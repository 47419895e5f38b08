"""ICA by the convex Cauchy-Schwarz contrast, through one entry point.

separate(x, algorithm) checks the algorithm id, centers and whitens x once,
runs the algorithm's solver core from _SOLVERS on the whitened data and
builds one SeparationResult from the core's (algo_matrix, trace, n_iter,
cm).  The cores: _gd_core takes explicit gradient steps on the full demixing
matrix with row renormalization (gd); _pairwise_gd runs that core on every
row pair of the running demixed data and applies each 2x2 solution to the
pair's two rows (pairwise-gd); _jacobi searches one period of rotation
angles per pair, tracking progress in a matrix of last-applied angles, and
settles without a visit a pair whose plane no other pair has moved since
its last nonzero rotation (jacobi).  The result's demixer, the algorithm
matrix times the whitening matrix, acts on centered raw observations.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, SingularDemixer
from .objective import CcsObjective
from .preprocess import WhiteningTransform, center_and_whiten, choose, finite_number, whole_number

QUARTER_PI = np.pi / 4.0
# pairwise-gd's sweep count when separate is given none
PAIRWISE_GD_SWEEPS = 3


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
        for name in ("step_size", "epsilon", "alpha"):
            object.__setattr__(self, name, finite_number(getattr(self, name), name))
        if not self.step_size > 0.0:
            raise InvalidInput("step_size must be positive and finite")
        if not self.epsilon >= 0.0:
            raise InvalidInput("epsilon must be nonnegative")
        object.__setattr__(self, "max_iter", whole_number(self.max_iter, "max_iter", least=0))
        object.__setattr__(self, "stride", whole_number(self.stride, "stride"))


@dataclass(frozen=True)
class JacobiConfig:
    """Knobs for the plane-rotation solver; its contrast settings default as
    the gradient solver's."""

    alpha: float = GdConfig.alpha
    stride: int = GdConfig.stride
    max_sweeps: int = 30

    def __post_init__(self):
        object.__setattr__(self, "alpha", finite_number(self.alpha, "alpha"))
        object.__setattr__(self, "max_sweeps", whole_number(self.max_sweeps, "max_sweeps"))
        object.__setattr__(self, "stride", whole_number(self.stride, "stride"))


@dataclass
class SeparationResult:
    """Everything a separation run produces.

    algo_matrix acts on the whitened data and demixer, algo_matrix @
    whitening.matrix, on centered raw observations.  trace holds the contrast
    per gradient iteration, or the total absolute angle (degrees) per Jacobi
    sweep; n_iter counts iterations, or sweeps (len(trace)).  cm is Jacobi's
    last-applied angle matrix, None for the gradient solvers.
    """

    algo_matrix: np.ndarray
    whitening: WhiteningTransform
    trace: np.ndarray
    n_iter: int
    cm: np.ndarray | None = None

    @property
    def demixer(self) -> np.ndarray:
        return self.algo_matrix @ self.whitening.matrix

    def estimate(self, x) -> np.ndarray:
        """Apply the composed demixer to raw observations."""
        x = np.asarray(x, dtype=float)
        return self.demixer @ (x - self.whitening.mean[:, None])


def rotation(theta: float) -> np.ndarray:
    """2x2 plane rotation; the solver only ever needs angles up to pi/4."""
    th = finite_number(theta, "rotation angle")
    if not abs(th) <= QUARTER_PI + 1e-12:
        raise InvalidInput("rotation angle must lie in [-pi/4, pi/4]")
    c, s = np.cos(th), np.sin(th)
    return np.array([[c, s], [-s, c]])


def _normalize_rows(w: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(w, axis=1)
    if np.any(norms <= 0.0) or not np.all(np.isfinite(norms)):
        raise SingularDemixer("a demixing row collapsed to zero norm")
    return w / norms[:, None]


def _gd_core(z: np.ndarray, gd_cfg: GdConfig = GdConfig()) -> tuple[np.ndarray, np.ndarray, int, None]:
    """Gradient descent from the identity on already-whitened data.

    Each step subtracts step_size times the gradient and renormalizes every
    row to unit length; iteration stops when the contrast moves by at most
    epsilon or max_iter is reached.  With epsilon = 0 that is a step whose
    contrast is bit-equal to the last one's.  Returns (w, trace, the steps
    taken, which is len(trace) - 1, None).
    """
    obj = CcsObjective(z, gd_cfg.alpha, stride=gd_cfg.stride)
    w = np.eye(z.shape[0])
    d, grad = obj.value_and_gradient(w)
    trace = [d]
    for _ in range(gd_cfg.max_iter):
        w = _normalize_rows(w - gd_cfg.step_size * grad)
        d, grad = obj.value_and_gradient(w)
        trace.append(d)
        if abs(d - trace[-2]) <= gd_cfg.epsilon:
            break
    return w, np.asarray(trace), len(trace) - 1, None


def _rotate_pair(w_algo: np.ndarray, demixed: np.ndarray, i: int, j: int, r: np.ndarray) -> None:
    """Apply the 2x2 r on the left to rows i and j of w_algo and of demixed,
    in place; every other row is left as it is."""
    for a in (w_algo, demixed):
        a[[i, j]] = r @ a[[i, j]]


def _pairwise_gd(z: np.ndarray, gd_cfg: GdConfig = GdConfig(),
                 sweeps: int = PAIRWISE_GD_SWEEPS) -> tuple[np.ndarray, np.ndarray, int, None]:
    """Sweep the gradient core over all row pairs of the demixed data.

    Every pair (i, j) with i < j gets a 2x2 subproblem on the current demixed
    rows; its solution is applied to rows i and j of the running demixer and
    data.  With two channels and a single sweep this is exactly _gd_core.
    Returns (w_algo, the pair traces concatenated, the iterations over all
    pairs, None).
    """
    m = z.shape[0]
    w_algo = np.eye(m)
    demixed = z.copy()
    trace_parts, n_iter = [], 0
    for _ in range(sweeps):
        for i, j in itertools.combinations(range(m), 2):
            w_pair, trace, steps, _ = _gd_core(demixed[[i, j], :], gd_cfg)
            _rotate_pair(w_algo, demixed, i, j, w_pair)
            trace_parts.append(trace)
            n_iter += steps
    return w_algo, np.concatenate(trace_parts), n_iter, None


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


def _jacobi(z: np.ndarray,
            jacobi_cfg: JacobiConfig = JacobiConfig()) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
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
    nonzero angle (mover[i] == mover[j] == (i, j), mover[r] being the pair
    that last rotated row r), cm[i, j] is set to 0 and no objective is
    built.  That visit would pick angle 0 in exact arithmetic: the contrast
    of a pair is pi/2-periodic in the angle (the marginal product ignores
    the order and the signs of the two rows, the joint density is
    rotation-invariant), and JACOBI_THETAS spans one period, so its grid is
    the last one shifted to put the minimum at index 0, where ties also go.
    At m = 2 this settles every second visit; at m >= 3 it applies in late
    sweeps.

    Returns (w_algo, the total absolute angle per sweep, the sweep count, cm).
    """
    m = z.shape[0]
    w_algo = np.eye(m)
    demixed = z.copy()
    cm = np.full((m, m), 90.0)
    np.fill_diagonal(cm, 0.0)
    mover: list[tuple[int, int] | None] = [None] * m
    sweep_totals: list[float] = []
    recent: list[np.ndarray] = []  # cm after the last two sweeps
    for _ in range(jacobi_cfg.max_sweeps):
        for i, j in itertools.combinations(range(m), 2):
            if cm[i, j] == 0.0:
                continue
            if mover[i] == mover[j] == (i, j):
                cm[i, j] = cm[j, i] = 0.0
                continue
            obj = CcsObjective(demixed[[i, j], :], jacobi_cfg.alpha, stride=jacobi_cfg.stride)
            k = _best_angle(obj.value(JACOBI_ROTATIONS))
            theta = float(JACOBI_THETAS[k])
            cm[i, j] = cm[j, i] = np.degrees(theta)
            if theta != 0.0:
                _rotate_pair(w_algo, demixed, i, j, JACOBI_ROTATIONS[k])
                mover[i] = mover[j] = (i, j)
        total = float(sum(abs(cm[i, j]) for i, j in itertools.combinations(range(m), 2)))
        sweep_totals.append(total)
        if total <= CM_STOP_DEG or len(recent) == 2 and np.array_equal(cm, recent[0]):
            break
        recent = (recent + [cm.copy()])[-2:]
    return w_algo, np.asarray(sweep_totals), len(sweep_totals), cm


# each algorithm's solver core and the optional separate arguments it reads; any other must be None
_SOLVERS = {"gd": (_gd_core, ("gd_cfg",)), "pairwise-gd": (_pairwise_gd, ("gd_cfg", "sweeps")),
            "jacobi": (_jacobi, ("jacobi_cfg",))}
ALGORITHMS = tuple(_SOLVERS)


def separate(x, algorithm: str = "jacobi", gd_cfg: GdConfig | None = None,
             jacobi_cfg: JacobiConfig | None = None, sweeps: int | None = None) -> SeparationResult:
    """Separate the rows of x with the solver named by algorithm.

    gd_cfg drives gd and pairwise-gd, sweeps counts pairwise-gd's sweeps
    (PAIRWISE_GD_SWEEPS when None), and jacobi_cfg drives jacobi; each config
    defaults to its class's defaults.  An unknown algorithm, an argument it
    does not read (the rule of preprocess.choose) or a sweep count that is not
    a whole number >= 1 is refused with InvalidInput before any work.  A gd
    run that stops by its epsilon rule at its first step, with max_iter > 1,
    emits a RuntimeWarning: its demixer is then about the whitening alone
    (full-matrix gd at m >= 16).
    """
    core, given = choose(_SOLVERS, algorithm, "algorithm",
                         gd_cfg=gd_cfg, jacobi_cfg=jacobi_cfg, sweeps=sweeps)
    if sweeps is not None:
        given["sweeps"] = whole_number(sweeps, "sweeps")
    z, wt = center_and_whiten(x)
    w_algo, trace, n_iter, cm = core(z, **given)
    gd_cfg = gd_cfg or GdConfig()
    if core is _gd_core and n_iter == 1 < gd_cfg.max_iter:
        warnings.warn(f"gd stopped at its first step: the contrast moved by {abs(trace[1] - trace[0]):.3g}, "
                      f"at most epsilon {gd_cfg.epsilon:g}, so the demixer is about the whitening alone",
                      RuntimeWarning, stacklevel=2)
    return SeparationResult(w_algo, wt, trace, n_iter, cm)
