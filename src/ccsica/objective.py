"""Sample-sum separation contrast built on the convex Cauchy-Schwarz ratio.

For a demixing matrix W acting on whitened samples, the contrast is

    D(W) = log(v_joint) + log(v_marg) - 2 log(v_cross)

where the three terms sum, over a strided evaluation set, the squared and
crossed values of convex_f applied to two density estimates per point: the
joint output density and the product of the per-row marginal densities.

The joint output density factors as (input density) / |det W|, so its value
at each evaluation point is cached once per data set and only the
determinant is touched when W moves.  The marginal factors are Parzen
estimates of each output row against the full reference set; the stride
thins only the evaluation sum, and the bandwidth follows the full sample
count.  The evaluation points are kept first among the references, so the
kernel of each pair of them is computed once: one evaluation costs about
T^2/ts - (T/ts)^2/2 kernel terms per output row, about T^2/2 at ts 1.

`value` also takes a K x m x m stack of demixers, such as the angle grid of
a Jacobi pair visit, and returns K values.  It checks the stack and takes
its determinants once, then evaluates it in groups of as many demixers as
`density.stack_members` lets one kernel-sum call take (at least one), so a
group's output rows fit one block budget whatever K is.  A group's output
rows are projected by one product and summed by one kernel-sum call, and
its contrast terms are assembled on G x n arrays, each member's row
computed exactly as that member alone.  The gradient is the group of one demixer.

The gradient is the exact derivative of the log form,

    dD = d(v_joint)/v_joint + d(v_marg)/v_marg - 2 d(v_cross)/v_cross,

assembled from two chains: the joint side flows through the determinant,
d(py)/dW = -py W^-T because py = p_x / |det W|; the marginal side flows
through each output row's kernel sums.  Points whose density sits on the
clamping floor contribute zero derivative, so the gradient stays consistent
with the clamped value.
"""

from __future__ import annotations

import numpy as np

from .density import _SQRT_2PI, default_bandwidth, gaussian_density_nd, gaussian_sums_1d, stack_members
from .divergences import EPS_FLOOR, convex_f, convex_f_prime, log_ratio
from .errors import InvalidInput, NonFinite, SingularDemixer
from .preprocess import finite_number, validate_signal, whole_number

DET_FLOOR = 1e-12


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[g] @ b[g] for each row g, by the same BLAS dot as a product of two
    1-D arrays, so a row's result does not depend on the other rows."""
    return np.matmul(a[:, None], b[:, :, None])[:, 0, 0]


class CcsObjective:
    """Contrast and gradient evaluator bound to one (whitened) data set.

    The kernel reference set is every column of the data; the evaluation sum
    runs over every stride-th column starting at the first.  `data` holds
    those evaluation columns first, then the others in their order, and is
    the one copy of the samples: its first n_points columns are the queries,
    and its transpose is the features of the gradient's sums.  The bandwidth
    follows the reference count.

    No evaluation writes to an objective, and each thread has its own kernel
    work blocks, so threads may share one instance and evaluate it at once.
    """

    def __init__(self, data, alpha: float, stride: int = 1):
        data = validate_signal(data)
        stride = whole_number(stride, "stride")
        n_points = len(range(0, data.shape[1], stride))
        if n_points < 2:
            raise InvalidInput("need at least 2 evaluation points after striding")
        self.alpha = finite_number(alpha, "alpha")
        self.n_points = n_points
        self.h = default_bandwidth(data.shape[1])
        # evaluation points first, so that the kernel sums share their pairs
        rest = np.ones(data.shape[1], dtype=bool)
        rest[::stride] = False
        self.data = np.concatenate([data[:, ::stride], data[:, rest]], axis=1)
        # input joint density at the evaluation points; W enters only via det
        self.base_density = gaussian_density_nd(self.data, n_points, self.h)

    @property
    def n_refs(self) -> int:
        return self.data.shape[1]

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    # -- marginal pass --------------------------------------------------------------

    def _marginal_pass(self, rows: np.ndarray, need_grad: bool):
        """Kernel density of each output row (one row, or a stack of them) at
        its evaluation points (its first n_points entries), plus the
        derivative of that density in the corresponding row of W."""
        n, h = self.n_points, self.h
        norm_p = 1.0 / (self.n_refs * h * _SQRT_2PI)
        if not need_grad:
            return gaussian_sums_1d(rows, n, h) * norm_p, None
        norm_k = 1.0 / (self.n_refs * h * h * _SQRT_2PI)
        ksum, usum, ufsum = gaussian_sums_1d(rows, n, h, self.data.T)
        grad = -norm_k * (usum[..., None] * self.data[:, :n].T - ufsum)
        return ksum * norm_p, grad

    # -- evaluation ---------------------------------------------------------------

    def _checked(self, w: np.ndarray, stacks: bool) -> np.ndarray:
        """|det| of each demixer of `w`, one m x m matrix or, where `stacks`,
        a non-empty K x m x m stack, after the checks every evaluation makes."""
        if not (w.ndim == 2 or stacks and w.ndim == 3 and len(w)) or w.shape[-1] != w.shape[-2]:
            kind = "square, or a non-empty stack of square matrices" if stacks else "square"
            raise InvalidInput(f"demixing matrix must be {kind}, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise InvalidInput("demixing matrix contains non-finite entries")
        m = self.n_channels
        if w.shape[-1] != m:
            raise InvalidInput(f"demixing matrix is {w.shape[-1]}x{w.shape[-1]} but data has {m} channels")
        dets = np.linalg.det(w.reshape(-1, m, m))
        singular = np.abs(dets) < DET_FLOOR
        if np.any(singular):
            raise SingularDemixer(f"determinant {float(dets[singular][0])!r} below {DET_FLOOR}")
        return np.abs(dets)

    def _evaluate(self, w: np.ndarray, abs_dets: np.ndarray, need_grad: bool):
        """Contrast at each demixer of a checked G x m x m group, and, for a
        group of one, its gradient if asked.  The group's G*m output rows go
        through one kernel-sum call; each member's terms are then the rows
        of G x n arrays, computed as they would be for that member alone."""
        g, m, n = len(w), self.n_channels, self.n_points
        y = np.matmul(w, self.data)
        dens, grads = self._marginal_pass(y.reshape(g * m, -1), need_grad)
        dens = dens.reshape(g, m, n)

        q = dens.prod(axis=1)
        py = self.base_density / abs_dets[:, None]
        py_c = np.maximum(py, EPS_FLOOR)
        q_c = np.maximum(q, EPS_FLOOR)

        fj = convex_f(py_c, self.alpha)
        fm = convex_f(q_c, self.alpha)
        v_joint = _row_dots(fj, fj)
        v_marg = _row_dots(fm, fm)
        v_cross = _row_dots(fj, fm)
        values = log_ratio(v_joint, v_marg, v_cross)
        if not np.all(np.isfinite(values)):
            raise NonFinite("contrast value is non-finite")
        if not need_grad:
            return values, None

        # only a group of one asks for the gradient
        py, py_c, fj, q, q_c, fm, dens = py[0], py_c[0], fj[0], q[0], q_c[0], fm[0], dens[0]
        v_joint, v_marg, v_cross = v_joint[0], v_marg[0], v_cross[0]
        # dD = sum(a * d(py)) + sum(b * d(q)) over the evaluation points
        fpj = convex_f_prime(py_c, self.alpha)
        fpm = convex_f_prime(q_c, self.alpha)
        a = np.where(py > EPS_FLOOR, 2.0 * fpj * (fj / v_joint - fm / v_cross), 0.0)
        b = np.where(q > EPS_FLOOR, 2.0 * fpm * (fm / v_marg - fj / v_cross), 0.0)
        # joint chain: d(py)/dW = -py W^-T; inv is safe past the DET_FLOOR check
        grad = -float(a @ py) * np.linalg.inv(w[0]).T
        # marginal chain: d(q)/dW[r] = (product of the other rows) * d(dens_r)/dW[r];
        # row r of `others` multiplies every density row but r, in row order
        others = dens[np.arange(m - 1) + (np.arange(m - 1) >= np.arange(m)[:, None])].prod(axis=1)
        grad += np.matmul((b * others)[:, None], grads)[:, 0]
        if not np.all(np.isfinite(grad)):
            raise NonFinite("contrast gradient contains non-finite entries")
        return values, grad

    def value(self, w):
        """Contrast at one m x m demixer, as a float, or at each demixer of a
        K x m x m stack, as an array of K values.

        The whole stack is checked, and its determinants taken, before any
        member is evaluated.  Members are then evaluated in groups of
        stack_members(T, m) demixers, one kernel-sum call per group, so a
        group's output rows fit one block budget whatever K is; each member is
        computed as it would be alone, so value(ws)[k] == value(ws[k]) bit
        for bit.
        """
        w = np.asarray(w, dtype=float)
        abs_dets = self._checked(w, stacks=True)
        ws = w.reshape(-1, self.n_channels, self.n_channels)
        size = stack_members(self.n_refs, self.n_channels)
        values = np.concatenate([self._evaluate(ws[lo : lo + size], abs_dets[lo : lo + size], False)[0]
                                 for lo in range(0, len(ws), size)])
        return float(values[0]) if w.ndim == 2 else values

    def value_and_gradient(self, w) -> tuple[float, np.ndarray]:
        """Contrast and its gradient at one m x m demixer."""
        w = np.asarray(w, dtype=float)
        values, grad = self._evaluate(w[None], self._checked(w, stacks=False), need_grad=True)
        return float(values[0]), grad
