"""Parzen window density estimation with a Gaussian kernel: one loop, two faces.

`_kernel_sums` is the only code that does kernel work.  It runs over a
B x m x T stack of reference sets, with direct sums over each full set (no
tree or FFT shortcuts, no leave-one-out).  `gaussian_sums_1d` is its m = 1
face, which adds the derivative sums the contrast gradient needs and
queries shared with the references; `gaussian_density_nd` is its B = 1
face, the normalised joint density.

The loop splits the queries into strips of at most `_CHUNK` kernel terms
(query rows x references), each worked in place in a block that starts on a
cache line, so a sum needs one such block (two with features) whatever the
number of references, unless two query rows alone exceed the budget.  Points
are divided by h once per call, and a strip's exponents -|q - r|^2 / 2 are
one matrix product of its query rows [-|q|^2/2 | q | 1] with the reference
operand [1 ; r ; -|r|^2/2], followed by `exp` in place.  That rounds each
term to within about eps * max|q|^2 (a subtraction first would give
eps * |u| * max|q|, but costs two more passes).  Every product has at least
two query rows, so a row's exponent does not depend on how its strip falls.

For arbitrary queries a row's kernel sum is a pairwise sum that does not
depend on the strips either; only the feature product, which BLAS blocks
itself, can move by an ulp.  When the queries are the first n of T
references, each pair of queries is computed once, about n*T - n^2/2 terms
in all: a query gathers its pairs with earlier queries strip by strip, and
each block is reduced by matrix products (a BLAS row sum is two to three
times as fast as numpy's pairwise one, but rounds by the rows of its block),
so these sums can move by an ulp with the budget.  Each set of a stack runs
its strips exactly as it would alone.
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
    """The B x (m+2) x T operand [1 ; x/h ; -|x/h|^2/2] of a B x m x T stack of points."""
    m = x.shape[1]
    op = np.ones((x.shape[0], m + 2, x.shape[2]))
    np.divide(x, h, out=op[:, 1 : m + 1])
    np.einsum("bij,bij->bj", op[:, 1 : m + 1], op[:, 1 : m + 1], out=op[:, m + 1])
    op[:, m + 1] *= -0.5
    return op


def _strip_product(q_op: np.ndarray, r: int, ref_op: np.ndarray, block: np.ndarray) -> np.ndarray:
    """q_op[:r] @ ref_op in `block`, returned as an r x width view.

    A one-row product would go to numpy's matrix-vector routine, which rounds
    differently, so a strip of one row is computed with the next row of
    `q_op`, which must hold a copy of it."""
    rows, width = max(r, 2), ref_op.shape[1]
    out = block[: rows * width].reshape(rows, width)
    np.matmul(q_op[:rows], ref_op, out=out)
    return out[:r]


def _kernel_sums(refs: np.ndarray, queries, h: float, feats=None, work=None):
    """Unnormalised kernel sums against each set of a B x m x T stack, as a
    tuple of arrays with a leading axis of B.

    `queries` is a count n, meaning the first n points of each set, or a
    B x m x n stack.  With k = exp(-|q/h - r/h|^2 / 2) the tuple is
    (sum_r k,); with per-reference features (T x d) at m = 1 it is
    (sum_r k, sum_r u*k, sum_r u*k*feats[r]), where u = q/h - r/h comes from
    query rows [q | -1] and operand rows [1 ; r], two exact products, so u is
    q - r rounded once.  `work` is as for `gaussian_sums_1d`.
    """
    n_sets, _, n_refs = refs.shape
    shared = isinstance(queries, (int, np.integer))
    n = queries if shared else queries.shape[2]
    rows = _block_rows(n, n_refs)
    work = [] if work is None else work
    work += kernel_scratch(n, n_refs, (1 if feats is None else 2) - len(work))
    ref_op = _operand(refs, h)
    q_op = ref_op if shared else _operand(queries, h)
    # query rows [-|q|^2/2 | q | 1], built once; row n repeats row n-1 for
    # `_strip_product`, since only the last strip can have one row
    q_rows = np.ones((n_sets, n + 1, q_op.shape[1]))
    q_rows[:, :n, 0] = q_op[:, -1, :n]
    q_rows[:, :n, 1:-1] = q_op[:, 1:-1, :n].transpose(0, 2, 1)
    q_rows[:, n] = q_rows[:, n - 1]
    # a strip of query rows [lo, hi) runs over the references from `start`;
    # shared, its part against the later queries hi:n is also their part
    # against the strip, so it is added to those queries by column (*_cols)
    ksum, k_cols, part, ones = np.empty((n_sets, n)), np.empty(n), np.empty(n), np.ones(n_refs)
    if feats is not None:
        # [1 | feats]: one product gives sum_r u*k and sum_r u*k*feats[r]
        f1 = np.ones((n_refs, feats.shape[1] + 1))
        f1[:, 1:] = feats
        uf, uf_cols = np.empty((n_sets, n, f1.shape[1])), np.empty((n, f1.shape[1]))
        uf_part = np.empty_like(uf_cols)
        u_op = np.full((rows, 2), -1.0)
    for b in range(n_sets):
        k_cols.fill(0.0)
        if feats is not None:
            uf_cols.fill(0.0)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            start, cols = (lo, n - hi) if shared else (0, 0)
            r, width, ref = hi - lo, n_refs - start, ref_op[b, :, start:]
            k = _strip_product(q_rows[b, lo:], r, ref, work[0])
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
                u_op[: max(r, 2), 0] = q_rows[b, lo : lo + max(r, 2), 1]
                u = _strip_product(u_op, r, ref[:2], work[1])
                u *= k
                np.matmul(u, f1[start:], out=uf[b, lo:hi])
                if not shared:  # usum as a pairwise sum too, like ksum
                    u.sum(axis=1, out=uf[b, lo:hi, 0])
                if cols:
                    uf_cols[hi:] += np.matmul(u[:, r : r + cols].T, f1[lo:hi], out=uf_part[:cols])
        ksum[b] += k_cols
        if feats is not None:
            uf[b] -= uf_cols
    return (ksum,) if feats is None else (ksum, uf[..., 0], uf[..., 1:])


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

    Each term rounds as the module docstring says; after whitening a solver
    row has |q/h| <= T^0.7 / 1.06 at the default bandwidth, and typical ones
    far less.  `work` is a list of blocks from `kernel_scratch` to reuse
    across calls: a call takes one, two with features, and appends those
    the list lacks.
    """
    refs = np.asarray(refs, dtype=float)
    shared = isinstance(queries, (int, np.integer))
    if refs.ndim != 1 and not (shared and refs.ndim == 2):
        raise InvalidInput("references must be one row, or a stack of rows with shared queries")
    stack = refs.reshape(1 if refs.ndim == 1 else len(refs), 1, refs.shape[-1])
    sums = _kernel_sums(stack, queries if shared else np.reshape(queries, (1, 1, -1)), h, feats, work)
    if refs.ndim == 1:
        sums = tuple(s[0] for s in sums)
    return sums[0] if feats is None else sums


def gaussian_density_nd(refs, queries, h: float):
    """Joint Gaussian-kernel density of M x N references at M x K queries."""
    refs = np.asarray(refs, dtype=float)
    if refs.ndim != 2:
        raise InvalidInput("reference block must be channels x T")
    m, n = refs.shape
    q = np.asarray(queries, dtype=float)
    if q.ndim != 2 or q.shape[0] != m:
        raise InvalidInput(f"queries must be {m} channels x K, got shape {q.shape}")
    h = float(h)
    if not 0.0 < h < np.inf:
        raise InvalidInput(f"bandwidth must be positive and finite, got {h!r}")
    try:
        norm = (2.0 * np.pi) ** (-m / 2.0) / (n * h**m)
    except (OverflowError, ZeroDivisionError):
        raise InvalidInput(f"bandwidth {h!r} puts h^{m} outside the float range") from None
    return _kernel_sums(refs[None], q[None], h)[0][0] * norm
