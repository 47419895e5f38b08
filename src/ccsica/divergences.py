"""Dependence measures between a 2x2 joint table and the product of its marginals.

The star of the module is ccs_div: a Cauchy-Schwarz style log ratio computed
after pushing both distributions through a curvature-controlled convex
function.  The remaining measures (KL, Euclidean, plain Cauchy-Schwarz,
alpha, Jensen-Shannon, convex-Jensen, beta) are the classical comparators
used in the surface studies.

One numeric convention is shared everywhere: any probability that enters a
logarithm or a fractional power is clamped below at EPS_FLOOR, which keeps
every measure finite and continuous up to the boundary of the simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateDivergence, InvalidInput
from .preprocess import choose, finite_number, resolve, whole_number

EPS_FLOOR = 1e-12
_TABLE_TOL = 1e-12


def _floor(p):
    return np.maximum(p, EPS_FLOOR)


def _as_marginal(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise InvalidInput(f"marginal must have exactly 2 entries, got shape {v.shape}")
    if np.any(v < 0.0) or not np.all(np.isfinite(v)):
        raise InvalidInput("marginal entries must be finite and nonnegative")
    if abs(float(v.sum()) - 1.0) > _TABLE_TOL:
        raise InvalidInput(f"marginal must sum to 1, got {v.sum()!r}")
    return v


@dataclass(frozen=True)
class DiscreteBivariate:
    """A 2x2 joint probability table together with its two marginals."""

    joint: np.ndarray
    marg1: np.ndarray
    marg2: np.ndarray

    @classmethod
    def from_joint(cls, joint) -> "DiscreteBivariate":
        joint = np.asarray(joint, dtype=float)
        if joint.shape != (2, 2):
            raise InvalidInput(f"joint table must be 2x2, got shape {joint.shape}")
        if not np.all(np.isfinite(joint)):
            raise InvalidInput("joint table contains non-finite entries")
        if np.any(joint < -1e-15):
            raise InvalidInput("joint table contains negative entries")
        joint = np.maximum(joint, 0.0)
        total = float(joint.sum())
        if abs(total - 1.0) > _TABLE_TOL:
            raise InvalidInput(f"joint table must sum to 1, got {total!r}")
        return cls(joint=joint, marg1=joint.sum(axis=1), marg2=joint.sum(axis=0))

    @classmethod
    def independent(cls, marg1, marg2) -> "DiscreteBivariate":
        """The exactly independent table with the given marginals."""
        m1 = _as_marginal(marg1)
        m2 = _as_marginal(marg2)
        return cls.from_joint(np.outer(m1, m2))

    @classmethod
    def from_free_cells(cls, marg1, p_aa, p_ba) -> "DiscreteBivariate":
        """Build the table with first marginal fixed and two free cells.

        p_aa is the (A,A) cell and p_ba the (B,A) cell; the remaining two
        cells are forced by the first marginal.
        """
        m1 = _as_marginal(marg1)
        joint = np.array([[p_aa, m1[0] - p_aa], [p_ba, m1[1] - p_ba]], dtype=float)
        return cls.from_joint(joint)

    def product_cells(self) -> np.ndarray:
        return np.outer(self.marg1, self.marg2)


def _cells(d: DiscreteBivariate):
    return d.joint.ravel(), d.product_cells().ravel()


# ---------------------------------------------------------------------------
# the convex function and its derivative


def convex_f(t, alpha: float):
    """Curvature-controlled convex function, nonnegative with a root at t = 1.

    The curvature parameter sweeps a family that degenerates at the endpoints;
    alpha equal to +1 or -1 selects the closed-form limit branch instead of
    the generic expression.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise InvalidInput("convex_f requires t >= 0")
    a = finite_number(alpha, "alpha")
    tc = _floor(t)
    if a == 1.0:
        out = t * np.log(tc) - t + 1.0
    elif a == -1.0:
        out = t - 1.0 - np.log(tc)
    else:
        expo = 0.5 * (1.0 + a)
        out = (4.0 / (1.0 - a * a)) * (0.5 * (1.0 - a) + 0.5 * (1.0 + a) * t - tc**expo)
    return out if out.ndim else float(out)


def convex_f_prime(t, alpha: float):
    """Derivative of convex_f in t, with the same limit branches."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise InvalidInput("convex_f_prime requires t > 0")
    a = finite_number(alpha, "alpha")
    tc = _floor(t)
    if a == 1.0:
        out = np.log(tc)
    elif a == -1.0:
        out = 1.0 - 1.0 / tc
    else:
        out = (2.0 / (1.0 - a)) * (1.0 - tc ** (0.5 * (a - 1.0)))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# divergence evaluators


def log_ratio(v_joint, v_marg, v_cross):
    """log v_joint + log v_marg - 2 log v_cross, the Cauchy-Schwarz log ratio,
    elementwise; DegenerateDivergence unless every sum is positive."""
    if np.any(v_joint <= 0.0) or np.any(v_marg <= 0.0) or np.any(v_cross <= 0.0):
        raise DegenerateDivergence("a sum of the log ratio vanished, the ratio is undefined")
    return np.log(v_joint) + np.log(v_marg) - 2.0 * np.log(v_cross)


def ccs_div(d: DiscreteBivariate, alpha: float) -> float:
    """Convex Cauchy-Schwarz divergence of the table against independence."""
    j, p = _cells(d)
    fj = convex_f(j, alpha)
    fp = convex_f(p, alpha)
    return float(log_ratio(float(fj @ fj), float(fp @ fp), float(fj @ fp)))


def cs_div(d: DiscreteBivariate) -> float:
    """Cauchy-Schwarz divergence on the raw cells (no convex reshaping)."""
    j, p = _cells(d)
    return float(log_ratio(float(j @ j), float(p @ p), float(j @ p)))


def kl_div(d: DiscreteBivariate) -> float:
    """Kullback-Leibler divergence of the joint from the marginal product."""
    j, p = _cells(d)
    return float(np.sum(j * (np.log(_floor(j)) - np.log(_floor(p)))))


def e_div(d: DiscreteBivariate) -> float:
    """Squared Euclidean distance between joint and marginal product."""
    j, p = _cells(d)
    return float(np.sum((j - p) ** 2))


def alpha_div(d: DiscreteBivariate, alpha: float) -> float:
    """Alpha divergence between joint and marginal product.

    The endpoints alpha = +1 and alpha = -1 are rejected; their limits are
    covered by kl_div, matching the policy used for beta_div endpoints.
    """
    a = finite_number(alpha, "alpha")
    if a in (1.0, -1.0):
        raise InvalidInput("alpha_div is undefined at alpha = +1/-1, use kl_div")
    j, p = _cells(d)
    jc, pc = _floor(j), _floor(p)
    inner = 0.5 * (1.0 - a) * j + 0.5 * (1.0 + a) * p - jc ** (0.5 * (1.0 - a)) * pc ** (0.5 * (1.0 + a))
    return float(4.0 / (1.0 - a * a) * np.sum(inner))


def _entropy(v) -> float:
    return float(-np.sum(v * np.log(_floor(v))))


def js_div(d: DiscreteBivariate, weight: float = 0.5) -> float:
    """Jensen-Shannon divergence with mixing weight on the joint side."""
    lam = finite_number(weight, "weight")
    if not 0.0 <= lam <= 1.0:
        raise InvalidInput("js_div weight must lie in [0, 1]")
    j, p = _cells(d)
    mid = lam * j + (1.0 - lam) * p
    return _entropy(mid) - lam * _entropy(j) - (1.0 - lam) * _entropy(p)


def c_div(d: DiscreteBivariate, alpha: float, weight: float = 0.5) -> float:
    """Jensen gap of convex_f between the joint, the product, and their mixture.

    At alpha = 1 this coincides with js_div at the same weight.
    """
    lam = finite_number(weight, "weight")
    if not 0.0 <= lam <= 1.0:
        raise InvalidInput("c_div weight must lie in [0, 1]")
    j, p = _cells(d)
    mid = lam * j + (1.0 - lam) * p
    return float(
        lam * np.sum(convex_f(j, alpha))
        + (1.0 - lam) * np.sum(convex_f(p, alpha))
        - np.sum(convex_f(mid, alpha))
    )


def beta_div(d: DiscreteBivariate, beta: float) -> float:
    """Beta divergence between joint and marginal product.

    beta = 0 and beta = -1 are rejected: those limits are the KL and
    Itakura-Saito forms and would need separate branches.
    """
    b = finite_number(beta, "beta")
    if b in (0.0, -1.0):
        raise InvalidInput("beta_div is undefined at beta in {0, -1}, use kl_div for the beta -> 0 limit")
    j, p = _cells(d)
    jc, pc = _floor(j), _floor(p)
    inner = jc ** (b + 1.0) + b * pc ** (b + 1.0) - (b + 1.0) * jc * pc**b
    return float(np.sum(inner) / (b * (b + 1.0)))


# ---------------------------------------------------------------------------
# surfaces over the free cells of the table


# each id's measure and the parameters it reads, by name
_EVALUATORS = {
    "ccs": (ccs_div, ("alpha",)), "cs": (cs_div, ()), "kl": (kl_div, ()), "e": (e_div, ()),
    "alpha": (alpha_div, ("alpha",)), "js": (js_div, ("weight",)),
    "c": (c_div, ("alpha", "weight")), "beta": (beta_div, ("beta",)),
}
DIVERGENCE_IDS = tuple(_EVALUATORS)


def make_divergence(which: str, alpha: float = -1.0, weight: float = 0.5, beta: float = 2.0):
    """Resolve a divergence id to its measure on tables, with the parameters it reads bound; one it
    does not read (`_EVALUATORS`) is ignored, where the surfaces refuse it off its default."""
    measure, reads = _EVALUATORS[resolve(which, _EVALUATORS, "divergence id")]
    given = dict(alpha=alpha, weight=weight, beta=beta)
    return partial(measure, **{name: given[name] for name in reads})


def _centers(lo: float, hi: float, n: int) -> np.ndarray:
    w = (hi - lo) / n
    return lo + w * (np.arange(n) + 0.5)


def _walk(m1: np.ndarray, p_ba_values, grid: int, which: str, alpha, weight, beta) -> np.ndarray:
    """Rows (p_aa, p_ba, value) over the grid cell centers of p_aa in (0, m1[0]) times p_ba_values,
    each p_ba in [0, m1[1]] (every table is feasible: no p_aa center reaches m1[0]), each value from
    make_divergence, after refusing a parameter off its default that the id does not read."""
    choose(_EVALUATORS, which, "divergence id", alpha=None if alpha == -1.0 else alpha,
           weight=None if weight == 0.5 else weight, beta=None if beta == 2.0 else beta)
    measure = make_divergence(which, alpha, weight, beta)
    return np.asarray([(p_aa, p_ba, measure(DiscreteBivariate.from_free_cells(m1, p_aa, p_ba)))
                       for p_aa in _centers(0.0, m1[0], grid) for p_ba in p_ba_values], dtype=float)


def divergence_surface(marg1, grid: int, which: str, *, alpha: float = -1.0,
                       weight: float = 0.5, beta: float = 2.0) -> np.ndarray:
    """Evaluate a divergence over the two free cells with marg1 held fixed.

    Nodes sit at cell centers of a grid-by-grid lattice over the open
    feasible box, so every node is strictly interior.  Returns rows of
    (p_aa, p_ba, value).
    """
    m1 = _as_marginal(marg1)
    grid = whole_number(grid, "grid resolution", least=8)
    return _walk(m1, _centers(0.0, m1[1], grid), grid, which, alpha, weight, beta)


def divergence_slice(marg1, marg2, grid: int, which: str, *, alpha: float = -1.0,
                     weight: float = 0.5, beta: float = 2.0) -> np.ndarray:
    """Evaluate a divergence along the surface grid line through independence.

    The line fixes the (B,A) cell at marg1[1]*marg2[0] and sweeps p_aa over
    cell centers of (0, marg1[0]), matching the p_aa rows of
    divergence_surface.  Returns rows of (p_aa, p_ba, value); the minimum
    sits at the node nearest marg1[0]*marg2[0].
    """
    m1 = _as_marginal(marg1)
    p_ba = m1[1] * _as_marginal(marg2)[0]
    if not 0.0 < p_ba < m1[1]:
        raise InvalidInput("marginal pair admits no interior sweep line")
    return _walk(m1, [p_ba], whole_number(grid, "grid resolution", least=8), which, alpha, weight, beta)


def second_differences(values) -> np.ndarray:
    """Discrete second differences of a 1-D sequence (convexity probe)."""
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        raise InvalidInput("need at least 3 values for second differences")
    return v[2:] - 2.0 * v[1:-1] + v[:-2]
