"""Parzen window density estimation with a Gaussian kernel: one loop, two faces.

`_kernel_sums` is the only code that does kernel work.  It runs over a
B x m x T stack of reference sets, with direct sums over each full set (no
tree or FFT shortcuts, no leave-one-out), at the first n points of each set
as queries, and checks the bandwidth, the query count and the scaled points
for both faces: `gaussian_sums_1d` is its m = 1 face, which adds the
derivative sums the contrast gradient needs; `gaussian_density_nd` is its
B = 1 face, the normalised joint density.

`stack_members` is the one rule for how many demixers one call takes when a
caller stacks their output rows as 1-D sets: as many as let their m T-point
rows each and the rows' 3-row operand (below) fit one block budget,
`_CHUNK // (4 m T)`, but at least one, so a caller that groups its demixers
by this rule holds O(_CHUNK) of stack whatever its number of demixers.

The loop splits the queries into strips of at most `_CHUNK` kernel terms
(query rows x references), each worked in place in a block that starts on a
cache line, so a sum needs one such block (two with features) whatever the
number of references, unless three query rows alone exceed the budget.
Each thread keeps its own two blocks (`_scratch`) for its lifetime, sized by
its largest sum (at most 2 x 512 KiB when T <= 21,845); no caller holds any.
A block holds at least three query rows, unless there are fewer queries, so
that a last strip of one row can take a row from the strip before it: no
strip has one row unless n = 1.  Points are divided by h once per call, and
a strip's exponents -|q - r|^2 / 2 are one matrix product of its query rows
[-|q|^2/2 | q | 1] with the reference operand [1 ; r ; -|r|^2/2], followed
by `exp` in place.  That rounds each term to within about eps * max|q|^2 (a
subtraction first would give eps * |u| * max|q|, but costs two more
passes), so a call refuses points that are not finite or have max|x/h|
above `_MAX_SCALED` = 2^16, where that error reaches about 1e-6 of a term;
a whitened solver row stays below T^0.7 / 1.06, which passes 2^16 only
beyond T = 8 * 10^6.  A product of two or more rows goes to gemm, which
rounds a row's exponents the same way however its strip falls; a one-row
product would go to gemv, which rounds differently.

Each pair of queries is computed once, about n*T - n^2/2 terms in all: a
query gathers its pairs with earlier queries strip by strip, and each block
is reduced by matrix products (a BLAS row sum is two to three times as fast
as numpy's pairwise one, but rounds by the rows of its block), so the sums
can move by an ulp with the budget.  Each set of a stack runs its strips
exactly as it would alone.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from .errors import InvalidInput
from .preprocess import finite_number, whole_number

# kernel terms (query rows x references) per block
_CHUNK = 1 << 16
# largest |x/h| a call accepts: the exponents round to about eps * max|x/h|^2
_MAX_SCALED = 2.0**16
# work blocks start on a cache line: numpy's SIMD loops run about 15 % slower
# on a block that does not, and where an unaligned block starts depends on the
# heap's history, so the speed of a sum would change from process to process
_ALIGN = 64
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))
_scratch = threading.local()


def default_bandwidth(t_count: int) -> float:
    """Rule-of-thumb bandwidth 1.06 * T^(-1/5) for T reference samples."""
    return 1.06 * float(whole_number(t_count, "bandwidth sample count")) ** -0.2


def stack_members(n_refs: int, rows: int) -> int:
    """How many demixers with `rows` output rows of n_refs points each one
    kernel-sum call takes: as many as fit one block budget with their 3-row
    operand, but at least one."""
    return max(1, _CHUNK // (4 * n_refs * rows))


def _block_rows(n_queries: int, n_refs: int) -> int:
    return min(n_queries, max(3, _CHUNK // n_refs))


def _strips(n_queries: int, n_refs: int) -> list[tuple[int, int]]:
    """The strips [lo, hi) of query rows that tile [0, n_queries) in order:
    `_block_rows` rows each, but a last strip of one row takes a row from
    the strip before it."""
    bounds = list(range(0, n_queries, _block_rows(n_queries, n_refs))) + [n_queries]
    if n_queries > 1 and bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1
    return list(zip(bounds[:-1], bounds[1:]))


def _kernel_scratch(n_queries: int, n_refs: int) -> list[np.ndarray]:
    """The calling thread's two float64 work blocks, each starting on a cache
    line, both replaced if one is too small for n_queries against n_refs."""
    size = _block_rows(n_queries, n_refs) * n_refs
    if min(map(len, getattr(_scratch, "blocks", ())), default=0) < size:
        raws = [np.empty(size + _ALIGN // 8) for _ in range(2)]
        # each block starts at the first element of its raw array on a cache line
        _scratch.blocks = [raw[(-raw.ctypes.data % _ALIGN) // 8 :][:size] for raw in raws]
    return _scratch.blocks


def _operand(x: np.ndarray, h: float) -> np.ndarray:
    """The B x (m+2) x T operand [1 ; x/h ; -|x/h|^2/2] of a B x m x T stack of points."""
    m = x.shape[1]
    op = np.ones((x.shape[0], m + 2, x.shape[2]))
    np.divide(x, h, out=op[:, 1 : m + 1])
    np.einsum("bij,bij->bj", op[:, 1 : m + 1], op[:, 1 : m + 1], out=op[:, m + 1])
    op[:, m + 1] *= -0.5
    return op


def _kernel_sums(refs: np.ndarray, n, h: float, feats=None):
    """Unnormalised kernel sums against each set of a B x m x T stack at its
    first n points, as a tuple of arrays with a leading axis of B.

    With k = exp(-|q/h - r/h|^2 / 2) the tuple is (sum_r k,); with
    per-reference features (T x d) at m = 1 it is
    (sum_r k, sum_r u*k, sum_r u*k*feats[r]), where u = q/h - r/h comes from
    query rows [q | -1] and operand rows [1 ; r], two exact products, so u is
    q - r rounded once.
    """
    n_sets, _, n_refs = refs.shape
    n = whole_number(n, "query count")
    if n > n_refs:
        raise InvalidInput(f"query count must be at most the {n_refs} references, got {n!r}")
    h = finite_number(h, "bandwidth")
    if h <= 0.0:
        raise InvalidInput(f"bandwidth must be positive, got {h!r}")
    with np.errstate(over="ignore"):
        ref_op = _operand(refs, h)
    # the last operand row is -|x/h|^2/2; a NaN fails the comparison too
    low = ref_op[:, -1].min()
    if not -low <= _MAX_SCALED**2 / 2:
        raise InvalidInput(f"points must be finite with |x|/h <= {_MAX_SCALED:g}, "
                           f"got max |x|/h = {np.sqrt(-2.0 * low):.3g} at h = {h!r}")
    strips, work = _strips(n, n_refs), _kernel_scratch(n, n_refs)
    # query rows [-|q|^2/2 | q | 1], built once
    q_rows = np.ones((n_sets, n, ref_op.shape[1]))
    q_rows[..., 0] = ref_op[:, -1, :n]
    q_rows[..., 1:-1] = ref_op[:, 1:-1, :n].transpose(0, 2, 1)
    # a strip of query rows [lo, hi) runs over the references from lo; its
    # part against the later queries hi:n is also their part against the
    # strip, so it is added to those queries by column (*_cols)
    ksum, k_cols, part, ones = np.empty((n_sets, n)), np.empty(n), np.empty(n), np.ones(n_refs)
    if feats is not None:
        # [1 | feats]: one product gives sum_r u*k and sum_r u*k*feats[r]
        f1 = np.ones((n_refs, feats.shape[1] + 1))
        f1[:, 1:] = feats
        uf, uf_cols = np.empty((n_sets, n, f1.shape[1])), np.empty((n, f1.shape[1]))
        uf_part = np.empty_like(uf_cols)
        u_op = np.full((_block_rows(n, n_refs), 2), -1.0)
    for b in range(n_sets):
        k_cols.fill(0.0)
        if feats is not None:
            uf_cols.fill(0.0)
        for lo, hi in strips:
            r, cols, ref = hi - lo, n - hi, ref_op[b, :, lo:]
            k = np.matmul(q_rows[b, lo:hi], ref, out=work[0][: r * (n_refs - lo)].reshape(r, -1))
            np.exp(k, out=k)
            np.matmul(k, ones[: n_refs - lo], out=ksum[b, lo:hi])
            if cols:
                k_cols[hi:] += np.matmul(ones[:r], k[:, r : r + cols], out=part[:cols])
            if feats is not None:
                u_op[:r, 0] = q_rows[b, lo:hi, 1]
                u = np.matmul(u_op[:r], ref[:2], out=work[1][: r * (n_refs - lo)].reshape(r, -1))
                u *= k
                np.matmul(u, f1[lo:], out=uf[b, lo:hi])
                if cols:
                    uf_cols[hi:] += np.matmul(u[:, r : r + cols].T, f1[lo:hi], out=uf_part[:cols])
        ksum[b] += k_cols
        if feats is not None:
            uf[b] -= uf_cols
    return (ksum,) if feats is None else (ksum, uf[..., 0], uf[..., 1:])


def gaussian_sums_1d(refs, n, h: float, feats=None):
    """Unnormalised Gaussian kernel sums of 1-D references at the first n of them.

    With u = q/h - r/h and k = exp(-u^2 / 2), returns sum_r k per query.
    Given per-reference features (T x d), returns (sum_r k, sum_r u*k,
    sum_r u*k*feats[r]) instead; the last two carry the derivative of the
    sum in the query point (-usum / h) or through features that move it.
    The queries are references too, so k(q, r) = k(r, q) and
    u(q, r) = -u(r, q) exactly, and each pair of queries is computed once.
    `refs` may also be a B x T stack of rows, each with its own queries; the
    sums then gain a leading axis of B, and row b of the result equals the
    call on refs[b] alone bit for bit.

    Each term rounds as the module docstring says; after whitening a solver
    row has |q/h| <= T^0.7 / 1.06 at the default bandwidth, and typical ones
    far less.  The work blocks are the calling thread's, which keeps its
    largest for its lifetime (module docstring), so threads may call at once.
    """
    refs = np.asarray(refs, dtype=float)
    if refs.ndim not in (1, 2):
        raise InvalidInput("references must be one row, or a stack of rows")
    stack = refs.reshape(1 if refs.ndim == 1 else len(refs), 1, refs.shape[-1])
    sums = _kernel_sums(stack, n, h, feats)
    if refs.ndim == 1:
        sums = tuple(s[0] for s in sums)
    return sums[0] if feats is None else sums


def gaussian_density_nd(refs, n, h: float):
    """Joint Gaussian-kernel density of M x T references at the first n of them.

    The normaliser is (2 pi)^(-M/2) / (T h^M): InvalidInput unless h^M is a
    normal positive float (at least sys.float_info.min) and T h^M is finite,
    as a subnormal h^M would make every density inf, and an infinite T h^M 0.
    """
    refs = np.asarray(refs, dtype=float)
    if refs.ndim != 2:
        raise InvalidInput("reference block must be channels x T")
    m, t_count = refs.shape
    try:
        h_m = finite_number(h, "bandwidth") ** m
    except OverflowError:
        h_m = np.inf
    # h = 0 fails here too; the kernel sums refuse any other h that is not positive
    if not (sys.float_info.min <= h_m and t_count * h_m < np.inf):
        raise InvalidInput(f"bandwidth {h!r} puts h^{m}, or T h^{m}, outside the normal positive "
                           "float range")
    norm = (2.0 * np.pi) ** (-m / 2.0) / (t_count * h_m)
    return _kernel_sums(refs[None], n, h)[0][0] * norm
