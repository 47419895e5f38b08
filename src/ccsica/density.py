"""Parzen window density estimation with a Gaussian kernel.

Estimates are direct sums over the full reference set (no tree or FFT
shortcuts, no leave-one-out).  Each sum works in place through blocks of
query rows, a block holding at most `_CHUNK` kernel terms (query rows x
references), so its working memory is two such blocks whatever the number
of references, unless one query row (two, for the joint sum) alone exceeds
the budget.  For arbitrary queries a row's kernel sum does not depend on
how many rows share its block; only the feature product of the 1-D sum,
which BLAS blocks itself, can move by an ulp.  When the 1-D queries are the
first n of T references, each pair of queries is computed once, about
n*T - n^2/2 terms in all; a query's sum then gathers its pairs with earlier
queries block by block, so it too can move by an ulp with the budget.
The 1-D sum divides its references and queries by h once per call and
forms each block of differences u = q/h - r/h as one rank-2 matrix
product, [q | 1] @ [1 ; -r], which rounds each u once, as a subtraction
does, but runs about three times as fast as `subtract.outer`.
There are two sums: the 1-D one, which also carries the derivative sums
the contrast gradient needs, and the joint M-D density.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

# kernel terms (query rows x references) per block; two float64 blocks of
# this size are the working memory of one sum
_CHUNK = 1 << 16
# work blocks start on a cache line: numpy's SIMD loops run about 15 % slower
# on a block that does not, and where an unaligned block starts depends on the
# heap's history, so the speed of a sum would change from process to process
_ALIGN = 64
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def default_bandwidth(t_count: int) -> float:
    """Rule-of-thumb bandwidth 1.06 * T^(-1/5) for T reference samples."""
    t_count = int(t_count)
    if t_count < 1:
        raise InvalidInput("bandwidth needs a positive sample count")
    return 1.06 * float(t_count) ** -0.2


def _block_rows(n_queries: int, n_refs: int) -> int:
    return max(1, min(n_queries, _CHUNK // max(n_refs, 1)))


def _aligned_empty(size: int) -> np.ndarray:
    """An uninitialised float64 array of `size` elements starting on a cache line."""
    raw = np.empty(size + _ALIGN // 8)
    start = (-raw.ctypes.data % _ALIGN) // 8
    return raw[start : start + size]


def kernel_scratch(n_queries: int, n_refs: int) -> tuple[np.ndarray, np.ndarray]:
    """The two work blocks one kernel sum of n_queries against n_refs needs."""
    size = _block_rows(n_queries, n_refs) * n_refs
    return _aligned_empty(size), _aligned_empty(size)


def gaussian_sums_1d(refs, queries, h: float, feats=None, work=None):
    """Unnormalised Gaussian kernel sums of 1-D queries against 1-D references.

    With u = q/h - r/h and k = exp(-u^2 / 2), returns sum_r k per query.
    Given per-reference features (T x d), returns (sum_r k, sum_r u*k,
    sum_r u*k*feats[r]) instead; the last two carry the derivative of the
    sum in the query point (-usum / h) or through features that move it.
    `queries` is an array of points, or a count n meaning the first n
    references themselves; then k(q, r) = k(r, q) and u(q, r) = -u(r, q)
    exactly, so each pair of queries is computed once.  References and
    queries are divided by h once per call, so u differs from (q - r) / h
    by rounding, and each block of u is the product [q | 1] @ [1 ; -r].
    `work` is a pair of blocks from `kernel_scratch` to reuse across calls;
    without it the call allocates its own.
    """
    refs = np.asarray(refs, dtype=float) / h
    shared = isinstance(queries, (int, np.integer))
    queries = refs[:queries] if shared else np.asarray(queries, dtype=float) / h
    n, n_refs = queries.size, refs.size
    rows = _block_rows(n, n_refs)
    if work is None:
        work = kernel_scratch(n, n_refs)
    # u = q - r as the rank-2 product [q | 1] @ [1 ; -r]: both products are
    # exact, so the sum rounds once, like the subtraction, at a third its cost
    q1, r1 = np.ones((n, 2)), np.ones((2, n_refs))
    q1[:, 0] = queries
    np.negative(refs, out=r1[1])
    # a strip of query rows [lo, hi) runs over the references from `start`;
    # shared, its part against the later queries hi:n is also their part
    # against the strip, so it is added to those queries by column (*_cols)
    ksum, k_cols, part, ones = np.empty(n), np.zeros(n), np.empty(n), np.ones(rows)
    if feats is not None:
        usum, ufsum = np.empty(n), np.empty((n, feats.shape[1]))
        u_cols, uf_cols, uf_part = np.zeros(n), np.zeros_like(ufsum), np.empty_like(ufsum)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        start, cols = (lo, n - hi) if shared else (0, 0)
        r, width = hi - lo, n_refs - start
        u = work[0][: r * width].reshape(r, width)
        k = work[1][: r * width].reshape(r, width)
        np.matmul(q1[lo:hi], r1[:, start:], out=u)
        np.multiply(u, -0.5, out=k)
        k *= u
        np.exp(k, out=k)
        k.sum(axis=1, out=ksum[lo:hi])
        if cols:
            k_cols[hi:] += np.matmul(ones[:r], k[:, r : r + cols], out=part[:cols])
        if feats is not None:
            u *= k
            u.sum(axis=1, out=usum[lo:hi])
            np.matmul(u, feats[start:], out=ufsum[lo:hi])
            if cols:
                u_cols[hi:] += np.matmul(ones[:r], u[:, r : r + cols], out=part[:cols])
                uf_cols[hi:] += np.matmul(u[:, r : r + cols].T, feats[lo:hi], out=uf_part[:cols])
    if feats is None:
        return ksum + k_cols
    return ksum + k_cols, usum - u_cols, ufsum - uf_cols


def gaussian_density_nd(refs, queries, h: float):
    """Joint Gaussian-kernel density; refs is M x N, queries M x K or a length-M vector."""
    refs = np.asarray(refs, dtype=float)
    if refs.ndim != 2:
        raise InvalidInput("reference block must be channels x T")
    m, n = refs.shape
    q = np.asarray(queries, dtype=float)
    scalar = q.ndim == 1
    if scalar:
        q = q[:, None]
    if q.shape[0] != m:
        raise InvalidInput(f"query channel count {q.shape[0]} does not match references ({m})")
    k = q.shape[1]
    norm = (2.0 * np.pi) ** (-m / 2.0) / (n * h**m)
    ref_sq = np.einsum("ij,ij->j", refs, refs)
    q_sq = np.einsum("ij,ij->j", q, q)
    out = np.empty(k)
    inv = -0.5 / (h * h)
    # numpy computes a one-row product with a matrix-vector routine that
    # rounds differently, so a block holds at least two rows and a last block
    # of one row starts a row early: each row's sum is then the same however
    # the queries fall into blocks
    rows = max(2, _block_rows(k, n))
    d2_block, g_block = (_aligned_empty(rows * n).reshape(rows, n) for _ in range(2))
    for lo in range(0, k, rows):
        lo = min(lo, max(k - 2, 0))
        hi = min(lo + rows, k)
        d2, g = d2_block[: hi - lo], g_block[: hi - lo]
        np.add.outer(q_sq[lo:hi], ref_sq, out=d2)
        np.matmul(q[:, lo:hi].T, refs, out=g)
        g *= 2.0
        d2 -= g
        np.maximum(d2, 0.0, out=d2)
        d2 *= inv
        np.exp(d2, out=d2)
        d2.sum(axis=1, out=out[lo:hi])
    out *= norm
    return float(out[0]) if scalar else out
