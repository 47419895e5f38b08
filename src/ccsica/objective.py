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
thins only the evaluation sum, so one full evaluation costs O(T^2/stride)
kernel terms and the bandwidth follows the full sample count.

The gradient is the exact derivative of the log form,

    dD = d(v_joint)/v_joint + d(v_marg)/v_marg - 2 d(v_cross)/v_cross,

assembled from two chains: the joint side flows through the determinant via
the cofactor matrix, the marginal side flows through each output row's
kernel sums.  Points whose density sits on the clamping floor contribute
zero derivative, so the gradient stays consistent with the clamped value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import _SQRT_2PI, default_bandwidth, gaussian_density_nd, gaussian_sums_1d
from .divergences import EPS_FLOOR, convex_f, convex_f_prime
from .errors import DegenerateDivergence, InvalidInput, NonFinite, SingularDemixer
from .preprocess import validate_signal

DET_FLOOR = 1e-12


def cofactor_matrix(w) -> np.ndarray:
    """Matrix of signed minors; row-dotted with w it reproduces det(w).

    Defined for singular matrices too, hence the explicit minor expansion
    instead of det * inverse-transpose.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InvalidInput(f"cofactor_matrix needs a square matrix, got shape {w.shape}")
    m = w.shape[0]
    if m == 1:
        return np.ones((1, 1))
    if m == 2:
        return np.array([[w[1, 1], -w[1, 0]], [-w[0, 1], w[0, 0]]])
    out = np.empty((m, m))
    for i in range(m):
        rows = np.delete(np.arange(m), i)
        sub = w[rows]
        for j in range(m):
            cols = np.delete(np.arange(m), j)
            out[i, j] = (-1.0) ** (i + j) * np.linalg.det(sub[:, cols])
    return out


@dataclass(frozen=True)
class ContrastTerms:
    """The three contrast sums, plus their W-derivatives when requested."""

    v_joint: float
    v_marg: float
    v_cross: float
    g_joint: np.ndarray | None = None
    g_marg: np.ndarray | None = None
    g_cross: np.ndarray | None = None


class CcsObjective:
    """Contrast and gradient evaluator bound to one (whitened) data set.

    The kernel reference set is every column of the data; the evaluation sum
    runs over every stride-th column starting at the first.  The bandwidth
    follows the reference count unless given explicitly.
    """

    def __init__(self, data, alpha: float, stride: int = 1, bandwidth: float | None = None):
        data = validate_signal(data)
        stride = int(stride)
        if stride < 1:
            raise InvalidInput("stride must be a positive integer")
        queries = np.ascontiguousarray(data[:, ::stride])
        if queries.shape[1] < 2:
            raise InvalidInput("need at least 2 evaluation points after striding")
        self.data = np.ascontiguousarray(data)
        self.data_t = np.ascontiguousarray(data.T)
        self.queries_t = np.ascontiguousarray(queries.T)
        self.alpha = float(alpha)
        self.stride = stride
        self.h = float(bandwidth) if bandwidth is not None else default_bandwidth(data.shape[1])
        if not self.h > 0.0:
            raise InvalidInput("bandwidth must be positive")
        # input joint density at the evaluation points; W enters only via det
        self.base_density = gaussian_density_nd(self.data, queries, self.h)

    @property
    def n_points(self) -> int:
        return self.queries_t.shape[0]

    @property
    def n_refs(self) -> int:
        return self.data.shape[1]

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    # -- single-row marginal pass -------------------------------------------------

    def _marginal_pass(self, row: np.ndarray, need_grad: bool):
        """Kernel density of one output row at its strided points, plus the
        derivative of that density in the corresponding row of W."""
        vals = row[:: self.stride]
        h = self.h
        norm_p = 1.0 / (self.n_refs * h * _SQRT_2PI)
        if not need_grad:
            return gaussian_sums_1d(row, vals, h) * norm_p, None
        norm_k = 1.0 / (self.n_refs * h * h * _SQRT_2PI)
        ksum, usum, ufsum = gaussian_sums_1d(row, vals, h, self.data_t)
        grad = -norm_k * (usum[:, None] * self.queries_t - ufsum)
        return ksum * norm_p, grad

    # -- evaluation ---------------------------------------------------------------

    def _evaluate(self, w, need_grad: bool) -> ContrastTerms:
        w = np.asarray(w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidInput(f"demixing matrix must be square, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise InvalidInput("demixing matrix contains non-finite entries")
        m = self.n_channels
        if w.shape[0] != m:
            raise InvalidInput(f"demixing matrix is {w.shape[0]}x{w.shape[0]} but data has {m} channels")
        det = float(np.linalg.det(w))
        if abs(det) < DET_FLOOR:
            raise SingularDemixer(f"determinant {det!r} below {DET_FLOOR}")
        y = w @ self.data

        dens = np.empty((m, self.n_points))
        grads = []
        for r in range(m):
            dens[r], g = self._marginal_pass(y[r], need_grad)
            grads.append(g)

        q = dens.prod(axis=0)
        py = self.base_density / abs(det)
        py_c = np.maximum(py, EPS_FLOOR)
        q_c = np.maximum(q, EPS_FLOOR)

        fj = convex_f(py_c, self.alpha)
        fm = convex_f(q_c, self.alpha)
        v_joint = float(fj @ fj)
        v_marg = float(fm @ fm)
        v_cross = float(fj @ fm)
        if v_joint <= 0.0 or v_marg <= 0.0 or v_cross <= 0.0:
            raise DegenerateDivergence("contrast sums vanished, log ratio undefined")

        if not need_grad:
            return ContrastTerms(v_joint, v_marg, v_cross)

        fpj = convex_f_prime(py_c, self.alpha)
        fpm = convex_f_prime(q_c, self.alpha)

        # joint chain: d(py)/d w_ml = coef * cofactor[m, l]
        cofactors = cofactor_matrix(w)
        coef = -self.base_density * np.sign(det) / (det * det)
        coef = np.where(py > EPS_FLOOR, coef, 0.0)
        g_joint = (2.0 * np.dot(fj * fpj, coef)) * cofactors
        g_cross = np.dot(fpj * fm, coef) * cofactors

        # marginal chain: d(q)/d w_ml = (product of the other rows) * d(dens_m)/d w_ml
        marg_mask = q > EPS_FLOOR
        w2 = np.where(marg_mask, 2.0 * fm * fpm, 0.0)
        w3 = np.where(marg_mask, fj * fpm, 0.0)
        g_marg = np.empty((m, m))
        for r in range(m):
            others = np.ones(self.n_points)
            for s in range(m):
                if s != r:
                    others *= dens[s]
            g_marg[r] = (w2 * others) @ grads[r]
            g_cross[r] += (w3 * others) @ grads[r]

        return ContrastTerms(v_joint, v_marg, v_cross, g_joint, g_marg, g_cross)

    def terms(self, w) -> ContrastTerms:
        return self._evaluate(w, need_grad=False)

    def value(self, w) -> float:
        return self._log_ratio(self._evaluate(w, need_grad=False))

    def value_and_gradient(self, w) -> tuple[float, np.ndarray]:
        t = self._evaluate(w, need_grad=True)
        grad = t.g_joint / t.v_joint + t.g_marg / t.v_marg - 2.0 * t.g_cross / t.v_cross
        value = self._log_ratio(t)
        if not np.all(np.isfinite(grad)):
            raise NonFinite("contrast gradient contains non-finite entries")
        return value, grad

    def gradient(self, w) -> np.ndarray:
        return self.value_and_gradient(w)[1]

    @staticmethod
    def _log_ratio(t: ContrastTerms) -> float:
        value = float(np.log(t.v_joint) + np.log(t.v_marg) - 2.0 * np.log(t.v_cross))
        if not np.isfinite(value):
            raise NonFinite("contrast value is non-finite")
        return value

