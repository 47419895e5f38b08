"""Parzen window density estimation with a Gaussian kernel.

Estimates are direct sums over the full reference set (no tree or FFT
shortcuts, no leave-one-out).  Each sum works in place through blocks of
query rows, a block holding at most `_CHUNK` kernel terms (query rows x
references), so its working memory is one such block (two for the 1-D
sum with features) whatever the number of references, unless two query
rows alone exceed the budget.  For arbitrary queries a row's kernel sum
does not depend on how many rows share its block; only the feature product
of the 1-D sum, which BLAS blocks itself, can move by an ulp.  When the 1-D queries are the
first n of T references, each pair of queries is computed once, about
n*T - n^2/2 terms in all; a query's sum then gathers its pairs with earlier
queries block by block, and reduces each block by matrix products (a BLAS
row sum is two to three times as fast as numpy's pairwise one, but rounds
by the rows of its block), so it too can move by an ulp with the budget.
Shared queries also admit a B x T stack of rows in one call: the set-up is
done once, and each row then runs its blocks exactly as it would alone.
Both sums divide their references and queries by h once per call and form
each block of exponents -(q - r)^2 / 2 as one matrix product of a strip's
query operand [-q^2/2 | q | 1] with the reference operand [1 ; r ; -r^2/2]
(squared norms and vectors for the joint sum), then take `exp` in place.
Every such product has at least two query rows, so that a row's exponent
does not depend on how its strip falls.
There are two sums: the 1-D one, which also carries the derivative sums
the contrast gradient needs, and the joint M-D density.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

# kernel terms (query rows x references) per block; one float64 block of
# this size, two for the 1-D sum with features, is the working memory of a sum
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
    return max(2, min(n_queries, _CHUNK // max(n_refs, 1)))


def _aligned_empty(size: int) -> np.ndarray:
    """An uninitialised float64 array of `size` elements starting on a cache line."""
    raw = np.empty(size + _ALIGN // 8)
    start = (-raw.ctypes.data % _ALIGN) // 8
    return raw[start : start + size]


def kernel_scratch(n_queries: int, n_refs: int, count: int = 1) -> list[np.ndarray]:
    """`count` work blocks for a kernel sum of n_queries against n_refs."""
    size = _block_rows(n_queries, n_refs) * n_refs
    return [_aligned_empty(size) for _ in range(count)]


def _operand(x: np.ndarray, h: float) -> np.ndarray:
    """The B x 3 x T operand [1 ; x/h ; -(x/h)^2/2] of a B x T stack of points."""
    op = np.ones((x.shape[0], 3, x.shape[1]))
    np.divide(x, h, out=op[:, 1])
    np.multiply(op[:, 1], op[:, 1], out=op[:, 2])
    op[:, 2] *= -0.5
    return op


def _strip_product(q_op: np.ndarray, r: int, ref_op: np.ndarray, block: np.ndarray) -> np.ndarray:
    """q_op[:r] @ ref_op in `block`, returned as an r x width view.

    A one-row product would go to numpy's matrix-vector routine, which rounds
    differently, so a strip of one row is computed as two copies of it."""
    if r == 1:
        q_op[1] = q_op[0]
    rows, width = max(r, 2), ref_op.shape[1]
    out = block[: rows * width].reshape(rows, width)
    np.matmul(q_op[:rows], ref_op, out=out)
    return out[:r]


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
    on refs[b] alone bit for bit.

    References and queries are divided by h once per call.  Each block of
    exponents is the product [-q^2/2 | q | 1] @ [1 ; r ; -r^2/2], with q and
    r so divided, which rounds each term to within about eps * max|q|^2 (a
    subtraction first would give eps * |u| * max|q|, but costs two more
    passes).  After whitening a solver row has |q| <= T^0.7 / 1.06 at the
    default bandwidth, and typical ones far less.  With features, u comes
    from the same reference operand and query rows [q | -1 | 0]: both
    products are exact, so u is q - r rounded once.  With a count each block
    is reduced by matrix products, whose rounding follows the budget; with
    an array of queries a row's sums (not its feature sums) are pairwise
    sums that do not.  `work` is a list of blocks from `kernel_scratch` to
    reuse across calls: a call takes one, two with features, and appends
    those the list lacks.
    """
    refs = np.asarray(refs, dtype=float)
    shared = isinstance(queries, (int, np.integer))
    if refs.ndim != 1 and not (shared and refs.ndim == 2):
        raise InvalidInput("references must be one row, or a stack of rows with shared queries")
    n_rows, n_refs = (1, refs.size) if refs.ndim == 1 else refs.shape
    n = queries if shared else np.size(queries)
    rows = _block_rows(n, n_refs)
    work = [] if work is None else work
    work += kernel_scratch(n, n_refs, (1 if feats is None else 2) - len(work))
    # the reference operand [1 ; r ; -r^2/2]; read backwards and transposed,
    # its columns for the queries (shared, its own first n) are the rows
    # [-q^2/2 | q | 1] of a strip's query operand for the exponents
    ref_op = _operand(refs.reshape(n_rows, n_refs), h)
    q_src = ref_op if shared else _operand(np.reshape(queries, (1, n)), h)
    k_op = np.empty((rows, 3))
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
        # query rows [q | -1 | 0] give u = q - r
        u_op = np.zeros((rows, 3))
        u_op[:, 1] = -1.0
    for b in range(n_rows):
        k_cols.fill(0.0)
        if feats is not None:
            uf_cols.fill(0.0)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            start, cols = (lo, n - hi) if shared else (0, 0)
            r, width, ref = hi - lo, n_refs - start, ref_op[b, :, start:]
            k_op[:r] = q_src[b, ::-1, lo:hi].T
            k = _strip_product(k_op, r, ref, work[0])
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
                u_op[:r, 0] = q_src[b, 1, lo:hi]
                u = _strip_product(u_op, r, ref, work[1])
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
    # the exponent -|q - r|^2 / 2 of a block, q and r divided by h, is the
    # product [-|q|^2/2 | q^T | 1] @ [1 ; r ; -|r|^2/2], as in the 1-D sum
    ref_op = np.ones((m + 2, n))
    np.divide(refs, h, out=ref_op[1 : m + 1])
    np.einsum("ij,ij->j", ref_op[1 : m + 1], ref_op[1 : m + 1], out=ref_op[m + 1])
    ref_op[m + 1] *= -0.5
    q = q / h
    q_half_sq = np.einsum("ij,ij->j", q, q)
    q_half_sq *= -0.5
    out = np.empty(k)
    rows = _block_rows(k, n)
    q_op, block = np.ones((rows, m + 2)), _aligned_empty(rows * n)
    for lo in range(0, k, rows):
        hi = min(lo + rows, k)
        q_op[: hi - lo, 0] = q_half_sq[lo:hi]
        q_op[: hi - lo, 1 : m + 1] = q[:, lo:hi].T
        e = _strip_product(q_op, hi - lo, ref_op, block)
        np.exp(e, out=e)
        e.sum(axis=1, out=out[lo:hi])
    out *= norm
    return float(out[0]) if scalar else out
