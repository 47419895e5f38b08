"""Three ICA solvers driven by the convex Cauchy-Schwarz contrast.

ica_gradient_descent updates the full demixing matrix by explicit gradient
steps with row renormalization.  ica_pairwise_gd runs the same core on every
row pair of the running demixed data and accumulates the patches.
ica_pairwise_jacobi replaces the pair subproblem by a search over one
period of rotation angles, tracking progress in a matrix of last-applied
angles; it settles, without a visit, a pair whose plane no other pair has
moved since its last nonzero rotation.

All three whiten exactly once up front and report both the algorithm matrix
(acting on whitened data) and the composed demixer (acting on centered raw
observations).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, SingularDemixer
from .objective import CcsObjective, whole_number
from .preprocess import WhiteningTransform, center_and_whiten

QUARTER_PI = np.pi / 4.0


@dataclass(frozen=True)
class GdConfig:
    """Knobs for the gradient solver (and the pair subproblems built on it).

    Descent stops once the contrast moves by at most epsilon.  epsilon = 0
    still stops at the first step that leaves the contrast bit-equal to the
    step before, so a "fixed-iteration" run can end before max_iter.
    """

    step_size: float = 0.3
    max_iter: int = 250
    epsilon: float = 1e-4
    alpha: float = -0.99999
    stride: int = 1

    def __post_init__(self):
        if not 0.0 < self.step_size < np.inf:
            raise InvalidInput("step_size must be positive and finite")
        if not self.epsilon >= 0.0:
            raise InvalidInput("epsilon must be nonnegative")
        object.__setattr__(self, "max_iter", whole_number(self.max_iter, "max_iter", least=0))
        object.__setattr__(self, "stride", whole_number(self.stride, "stride"))


@dataclass(frozen=True)
class JacobiConfig:
    """Knobs for the plane-rotation solver."""

    alpha: float = -0.99999
    stride: int = 1
    max_sweeps: int = 30

    def __post_init__(self):
        object.__setattr__(self, "max_sweeps", whole_number(self.max_sweeps, "max_sweeps"))
        object.__setattr__(self, "stride", whole_number(self.stride, "stride"))


@dataclass
class SeparationResult:
    """Everything a separation run produces.

    demixer acts on centered raw observations; algo_matrix acts on the
    whitened data.  trace is the per-iteration contrast for the gradient
    solvers and empty for the Jacobi solver, which reports its per-sweep
    angle mass in cm_sweep_totals instead.
    """

    demixer: np.ndarray
    algo_matrix: np.ndarray
    whitening: WhiteningTransform
    trace: np.ndarray
    n_iter: int
    cm: np.ndarray | None = None
    cm_sweep_totals: list = field(default_factory=list)

    def estimate(self, x) -> np.ndarray:
        """Apply the composed demixer to raw observations."""
        x = np.asarray(x, dtype=float)
        return self.demixer @ (x - self.whitening.mean[:, None])


def rotation(theta: float) -> np.ndarray:
    """2x2 plane rotation; the solver only ever needs angles up to pi/4."""
    th = float(theta)
    if abs(th) > QUARTER_PI + 1e-12:
        raise InvalidInput("rotation angle must lie in [-pi/4, pi/4]")
    c, s = np.cos(th), np.sin(th)
    return np.array([[c, s], [-s, c]])


def compose_demixer(w_algo, whitening: WhiteningTransform) -> np.ndarray:
    """Stack the algorithm matrix on the whitening matrix."""
    w_algo = np.asarray(w_algo, dtype=float)
    if w_algo.shape != whitening.matrix.shape:
        raise InvalidInput(
            f"algorithm matrix shape {w_algo.shape} does not match whitening {whitening.matrix.shape}"
        )
    return w_algo @ whitening.matrix


def _normalize_rows(w: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(w, axis=1)
    if np.any(norms <= 0.0) or not np.all(np.isfinite(norms)):
        raise SingularDemixer("a demixing row collapsed to zero norm")
    return w / norms[:, None]


def _gd_core(data: np.ndarray, cfg: GdConfig) -> tuple[np.ndarray, np.ndarray]:
    """Gradient descent from the identity on already-whitened data.

    Each step subtracts step_size times the gradient and renormalizes every
    row to unit length; iteration stops when the contrast moves by at most
    epsilon or max_iter is reached.  With epsilon = 0 that is a step whose
    contrast is bit-equal to the last one's.  Returns (w, trace).
    """
    obj = CcsObjective(data, cfg.alpha, stride=cfg.stride)
    w = np.eye(data.shape[0])
    if cfg.max_iter == 0:
        return w, np.array([obj.value(w)])
    d_prev, grad = obj.value_and_gradient(w)
    trace = [d_prev]
    for _ in range(cfg.max_iter):
        w = _normalize_rows(w - cfg.step_size * grad)
        d_cur, grad = obj.value_and_gradient(w)
        trace.append(d_cur)
        if abs(d_cur - d_prev) <= cfg.epsilon:
            break
        d_prev = d_cur
    return w, np.asarray(trace)


def ica_gradient_descent(x, cfg: GdConfig | None = None) -> SeparationResult:
    """Whiten, then descend the contrast over the full demixing matrix."""
    cfg = cfg or GdConfig()
    z, wt = center_and_whiten(x)
    w_algo, trace = _gd_core(z, cfg)
    return SeparationResult(
        demixer=compose_demixer(w_algo, wt),
        algo_matrix=w_algo,
        whitening=wt,
        trace=trace,
        n_iter=len(trace) - 1,
    )


def ica_pairwise_gd(x, cfg: GdConfig | None = None, sweeps: int = 3) -> SeparationResult:
    """Sweep the gradient core over all row pairs of the demixed data.

    Every pair (i, j) with i < j gets a 2x2 subproblem on the current demixed
    rows; its solution is patched into the identity and accumulated.  With
    two channels and a single sweep this is exactly ica_gradient_descent.
    """
    cfg = cfg or GdConfig()
    sweeps = whole_number(sweeps, "sweeps")
    z, wt = center_and_whiten(x)
    m = z.shape[0]
    w_algo = np.eye(m)
    demixed = z.copy()
    trace_parts = []
    iterations = 0
    for _ in range(sweeps):
        for i, j in itertools.combinations(range(m), 2):
            w_pair, trace = _gd_core(demixed[[i, j], :], cfg)
            patch = np.eye(m)
            patch[np.ix_([i, j], [i, j])] = w_pair
            w_algo = patch @ w_algo
            demixed[[i, j], :] = w_pair @ demixed[[i, j], :]
            trace_parts.append(trace)
            iterations += len(trace) - 1
    return SeparationResult(
        demixer=compose_demixer(w_algo, wt),
        algo_matrix=w_algo,
        whitening=wt,
        trace=np.concatenate(trace_parts) if trace_parts else np.empty(0),
        n_iter=iterations,
    )


# The Jacobi angle grid: one period, [-pi/4, pi/4), at pi/64.  +pi/4 is left
# out: that rotation is -pi/4 with its rows swapped and one negated.
JACOBI_THETAS = np.arange(-16, 16) * (np.pi / 64.0)
JACOBI_ROTATIONS = np.array([rotation(th) for th in JACOBI_THETAS])
JACOBI_THETAS.setflags(write=False)
JACOBI_ROTATIONS.setflags(write=False)
# grid indices by magnitude, the negative angle first: the order ties go in
_TIE_ORDER = sorted(range(len(JACOBI_THETAS)),
                    key=lambda k: (abs(JACOBI_THETAS[k]), JACOBI_THETAS[k] > 0.0))
# sweeping stops once a sweep's total absolute angle is at most this
CM_STOP_DEG = 1.0


def _best_angle(values: np.ndarray) -> int:
    """Grid index of the minimizing angle; exact ties go to the smallest
    magnitude, then to the negative angle."""
    v_min = values.min()
    return next(k for k in _TIE_ORDER if values[k] == v_min)


def ica_pairwise_jacobi(x, cfg: JacobiConfig | None = None) -> SeparationResult:
    """Plane-rotation solver: per pair, grid-search the 2-D contrast minimum.

    A pair visit builds one objective on the pair's demixed rows and hands
    it the whole grid of rotations as one stack, so the contrast is checked
    and called once per visit, not once per angle.

    The angle matrix cm starts at a 90 degree sentinel so every pair is
    visited at least once; a pair whose last selected angle was exactly zero
    is skipped on later sweeps.  Sweeping stops once the total absolute angle
    mass drops to CM_STOP_DEG, once a sweep leaves cm as the sweep before
    last did (pairs undoing each other's rotations, which would otherwise
    repeat until the end), or once max_sweeps is hit.

    A pair whose plane has not moved is settled without a visit: when no
    other pair has rotated row i or row j since pair (i, j) last applied a
    nonzero angle, cm[i, j] is set to 0 and no objective is built.  That
    visit would pick angle 0 in exact arithmetic: the contrast of a pair is
    pi/2-periodic in the angle (the marginal product ignores the order and
    the signs of the two rows, the joint density is rotation-invariant), and
    JACOBI_THETAS spans one period, so its grid is the last one shifted to
    put the minimum at index 0, where ties also go.  At m = 2 this settles
    every second visit; at m >= 3 it applies in late sweeps.
    """
    cfg = cfg or JacobiConfig()
    z, wt = center_and_whiten(x)
    m = z.shape[0]
    w_algo = np.eye(m)
    demixed = z.copy()
    cm = np.full((m, m), 90.0)
    np.fill_diagonal(cm, 0.0)
    settled: set[tuple[int, int]] = set()
    sweep_totals: list[float] = []
    recent: list[np.ndarray] = []  # cm after the last two sweeps
    sweeps_done = 0
    for _ in range(cfg.max_sweeps):
        for i, j in itertools.combinations(range(m), 2):
            if cm[i, j] == 0.0:
                continue
            if (i, j) in settled:
                cm[i, j] = cm[j, i] = 0.0
                continue
            obj = CcsObjective(demixed[[i, j], :], cfg.alpha, stride=cfg.stride)
            k = _best_angle(obj.value(JACOBI_ROTATIONS))
            theta = float(JACOBI_THETAS[k])
            cm[i, j] = cm[j, i] = np.degrees(theta)
            if theta != 0.0:
                patch = np.eye(m)
                patch[np.ix_([i, j], [i, j])] = JACOBI_ROTATIONS[k]
                w_algo = patch @ w_algo
                demixed[[i, j], :] = JACOBI_ROTATIONS[k] @ demixed[[i, j], :]
                settled = {p for p in settled if i not in p and j not in p}
                settled.add((i, j))
        sweeps_done += 1
        total = float(sum(abs(cm[i, j]) for i, j in itertools.combinations(range(m), 2)))
        sweep_totals.append(total)
        if total <= CM_STOP_DEG or len(recent) == 2 and np.array_equal(cm, recent[0]):
            break
        recent = (recent + [cm.copy()])[-2:]
    return SeparationResult(
        demixer=compose_demixer(w_algo, wt),
        algo_matrix=w_algo,
        whitening=wt,
        trace=np.empty(0),
        n_iter=sweeps_done,
        cm=cm,
        cm_sweep_totals=sweep_totals,
    )


ALGORITHMS = ("gd", "pairwise-gd", "jacobi")


def separate(x, algorithm: str = "jacobi", gd_cfg: GdConfig | None = None,
             jacobi_cfg: JacobiConfig | None = None, sweeps: int = 3) -> SeparationResult:
    """Dispatch by algorithm id; the single entry point used by the CLI."""
    key = str(algorithm).strip().lower()
    if key == "gd":
        return ica_gradient_descent(x, gd_cfg)
    if key == "pairwise-gd":
        return ica_pairwise_gd(x, gd_cfg, sweeps=sweeps)
    if key == "jacobi":
        return ica_pairwise_jacobi(x, jacobi_cfg)
    raise InvalidInput(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
