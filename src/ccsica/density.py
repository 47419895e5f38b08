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
queries block by block, and reduces each block by matrix products (a BLAS
row sum is two to three times as fast as numpy's pairwise one, but rounds
by the rows of its block), so it too can move by an ulp with the budget.
Shared queries also admit a B x T stack of rows in one call: the set-up is
done once, and each row then runs its blocks exactly as it would alone.
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
    exactly, so each pair of queries is computed once.  With a count, `refs`
    may also be a B x T stack of rows, each with its own queries; the sums
    then gain a leading axis of B, and row b of the result equals the call
    on refs[b] alone bit for bit.  References and queries are divided by h
    once per call, so u differs from (q - r) / h by rounding, and each block
    of u is the product [q | 1] @ [1 ; -r].  With a count each block is
    reduced by matrix products, whose rounding follows the budget; with an
    array of queries a row's sums (not its feature sums) are pairwise sums
    that do not.  `work` is a pair of blocks from `kernel_scratch` to reuse
    across calls; without it the call allocates its own.
    """
    refs = np.asarray(refs, dtype=float)
    shared = isinstance(queries, (int, np.integer))
    if refs.ndim != 1 and not (shared and refs.ndim == 2):
        raise InvalidInput("references must be one row, or a stack of rows with shared queries")
    n_rows, n_refs = (1, refs.size) if refs.ndim == 1 else refs.shape
    n = queries if shared else np.size(queries)
    rows = _block_rows(n, n_refs)
    if work is None:
        work = kernel_scratch(n, n_refs)
    # u = q - r as the rank-2 product [q | 1] @ [1 ; -r]: both products are
    # exact, so the sum rounds once, like the subtraction, at a third its cost;
    # -(r/h) == r/-h and, shared, q = -(-r/h) exactly
    q1, r1 = np.ones((n_rows, n, 2)), np.ones((n_rows, 2, n_refs))
    np.divide(refs.reshape(n_rows, n_refs), -h, out=r1[:, 1])
    if shared:
        np.negative(r1[:, 1, :n], out=q1[:, :, 0])
    else:
        np.divide(np.asarray(queries, dtype=float), h, out=q1[0, :, 0])
    # a strip of query rows [lo, hi) runs over the references from `start`;
    # shared, its part against the later queries hi:n is also their part
    # against the strip, so it is added to those queries by column (*_cols)
    ksum, k_cols, part, ones = np.empty((n_rows, n)), np.empty(n), np.empty(n), np.ones(n_refs)
    if feats is not None:
        # [1 | feats]: one product gives sum_r u*k and sum_r u*k*feats[r]
        f1 = np.ones((n_refs, feats.shape[1] + 1))
        f1[:, 1:] = feats
        uf, uf_cols = np.empty((n_rows, n, f1.shape[1])), np.empty((n, f1.shape[1]))
        uf_part = np.empty_like(uf_cols)
    for b in range(n_rows):
        k_cols.fill(0.0)
        if feats is not None:
            uf_cols.fill(0.0)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            start, cols = (lo, n - hi) if shared else (0, 0)
            r, width = hi - lo, n_refs - start
            u = work[0][: r * width].reshape(r, width)
            k = work[1][: r * width].reshape(r, width)
            np.matmul(q1[b, lo:hi], r1[b, :, start:], out=u)
            np.multiply(u, -0.5, out=k)
            k *= u
            np.exp(k, out=k)
            # a BLAS row sum rounds by the rows of its block; shared sums
            # already follow the budget by column, arbitrary ones do not
            if shared:
                np.matmul(k, ones[:width], out=ksum[b, lo:hi])
            else:
                k.sum(axis=1, out=ksum[b, lo:hi])
            if cols:
                k_cols[hi:] += np.matmul(ones[:r], k[:, r : r + cols], out=part[:cols])
            if feats is not None:
                u *= k
                np.matmul(u, f1[start:], out=uf[b, lo:hi])
                if not shared:  # usum as a pairwise sum too, like ksum
                    u.sum(axis=1, out=uf[b, lo:hi, 0])
                if cols:
                    uf_cols[hi:] += np.matmul(u[:, r : r + cols].T, f1[lo:hi], out=uf_part[:cols])
        ksum[b] += k_cols
        if feats is not None:
            uf[b] -= uf_cols
    sums = (ksum,) if feats is None else (ksum, uf[..., 0], uf[..., 1:])
    if refs.ndim == 1:
        sums = tuple(s[0] for s in sums)
    return sums[0] if feats is None else sums


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
    h = float(h)
    if not 0.0 < h < np.inf:
        raise InvalidInput(f"bandwidth must be positive and finite, got {h!r}")
    try:
        norm = (2.0 * np.pi) ** (-m / 2.0) / (n * h**m)
    except (OverflowError, ZeroDivisionError):
        raise InvalidInput(f"bandwidth {h!r} puts h^{m} outside the float range") from None
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
