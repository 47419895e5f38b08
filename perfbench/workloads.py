"""The benchmark's three separation workloads: inputs, solver calls, checks.

Each workload is a list of rounds.  A round is the workload's unit of work
and is drawn from (seed, workload key, round index) alone, so the same seed
gives the same inputs in any process:

    jacobi-grid  five two-source Jacobi separations, one per t1 source pair,
                 each with a fresh random mixing matrix (T=1000, ts=10)
    gd-fig4      one uniform+laplacian draw mixed by the fig4 matrix and
                 separated by full-matrix GD on both contrast branches
                 (T=1000, ts=1, epsilon 0)
    noisy-long   one uniform+rayleigh+laplacian draw mixed by the fig6/fig7
                 matrix at 20 dB SNR, separated by Jacobi (T=8000, ts=32)

The solver only ever sees the mixtures.  The sources and the mixing matrix
stay with the benchmark, which scores every separation and checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ccsica import metrics, optimizers, sources
from ccsica.errors import CcsIcaError

ALPHA_NEG = -0.99999
# the five source pairs of the t1 table
T1_PAIRS = (
    ("uniform", "uniform"),
    ("rayleigh", "rayleigh"),
    ("laplacian", "laplacian"),
    ("lognormal", "lognormal"),
    ("uniform", "laplacian"),
)
# mixing matrices of the fig4 and fig6/fig7 demos (columns mix the sources)
FIG4_MATRIX = np.array([[0.5, 0.6], [0.3, 0.4]]).T
FIG7_MATRIX = np.array([[0.8, 0.3, -0.3], [0.2, -0.8, 0.7], [0.3, 0.2, 0.3]]).T
# fig4 runs 250 iterations; exact convergence (the epsilon-0 stop) came no
# earlier than iteration 147 over seeds 0-16, so a cap of 120 gives every
# separation the same work whatever the seed
GD_MAX_ITER = 120
# one sweep, so every noisy-long separation visits each of its three pairs
# exactly once; a second sweep skips the pairs whose first angle was zero,
# which made the work depend on the seed
NOISY_MAX_SWEEPS = 1
# sanity bound on the median Amari index x 100 of a run's separations.  A
# single hard trial (two rayleigh or two laplacian sources at T=1000) can
# reach 70, so the bound is on the median.  Whitening alone, with no
# rotation, leaves medians of about 33 to 53 on these workloads
AMARI_X100_MEDIAN_MAX = 25.0


@dataclass
class Trial:
    """One separation: its input, its solver settings and its ground truth."""

    trial_id: str
    x: np.ndarray
    truth: np.ndarray
    mixing: np.ndarray
    algorithm: str
    config: dict
    # the separation must beat the whitening-only SIR (the fig7 check)
    beat_whitening: bool = False


@dataclass
class Outcome:
    """Scores and checks of one separation."""

    trial_id: str
    amari_x100: float = float("nan")
    sir_db: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _centered(kinds, t_count, rng) -> np.ndarray:
    s = np.vstack([sources.draw_source(k, t_count, rng) for k in kinds])
    return s - s.mean(axis=1, keepdims=True)


def _jacobi_grid_round(seed: int, r: int) -> list[Trial]:
    trials = []
    for j, pair in enumerate(T1_PAIRS):
        rng = sources.rng_for(seed, 1, r, j)
        s = _centered(pair, 1000, rng)
        a = sources.random_mixing_matrix(2, rng)
        x = sources.mix(s, sources.MixingModel(a), seed=int(rng.integers(1 << 31)))
        cfg = optimizers.JacobiConfig(alpha=ALPHA_NEG, stride=10)
        trials.append(Trial(f"r{r}.{'+'.join(pair)}", x, s, a, "jacobi", {"jacobi_cfg": cfg}))
    return trials


def _gd_fig4_round(seed: int, r: int) -> list[Trial]:
    rng = sources.rng_for(seed, 44, r)
    s = _centered(("uniform", "laplacian"), 1000, rng)
    x = sources.mix(s, sources.MixingModel(FIG4_MATRIX), seed=int(rng.integers(1 << 31)))
    trials = []
    for alpha, step in ((ALPHA_NEG, 0.3), (1.0, 0.7)):
        cfg = optimizers.GdConfig(step_size=step, max_iter=GD_MAX_ITER, alpha=alpha, epsilon=0.0)
        trials.append(Trial(f"r{r}.alpha{alpha:g}", x, s, FIG4_MATRIX, "gd", {"gd_cfg": cfg}))
    return trials


def _noisy_long_round(seed: int, r: int) -> list[Trial]:
    rng = sources.rng_for(seed, 7, r)
    s = _centered(("uniform", "rayleigh", "laplacian"), 8000, rng)
    sigma = sources.noise_sigma_for_snr(FIG7_MATRIX @ s, 20.0)
    model = sources.MixingModel(FIG7_MATRIX, noise_sigma=sigma)
    x = sources.mix(s, model, seed=int(rng.integers(1 << 31)))
    cfg = optimizers.JacobiConfig(alpha=ALPHA_NEG, stride=32, max_sweeps=NOISY_MAX_SWEEPS)
    return [Trial(f"r{r}", x, s, FIG7_MATRIX, "jacobi", {"jacobi_cfg": cfg}, beat_whitening=True)]


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object
    # distinct rounds drawn in set-up; in a 40 s run the timed loop cycles
    # through them at least twice, so reruns of the same input are checked
    rounds: int
    # the leading rounds that each traced pass runs and that the quality
    # medians are taken over; the timed loop always completes them
    fixed_rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("jacobi-grid", _jacobi_grid_round, rounds=12, fixed_rounds=4),
        Workload("gd-fig4", _gd_fig4_round, rounds=3, fixed_rounds=1),
        Workload("noisy-long", _noisy_long_round, rounds=4, fixed_rounds=1),
    )
}


def make_rounds(workload: Workload, seed: int, count: int) -> list[list[Trial]]:
    return [workload.make_round(seed, r) for r in range(count)]


def warm_up(trial: Trial) -> float:
    """One contrast evaluation on the trial's input, so lazy set-up is paid."""
    (cfg,) = trial.config.values()
    z, _ = optimizers.center_and_whiten(trial.x)
    obj = optimizers.CcsObjective(z, cfg.alpha, stride=cfg.stride)
    return obj.value(np.eye(z.shape[0]))


def run_trial(trial: Trial):
    """The timed call: one separation of the mixtures alone."""
    return optimizers.separate(trial.x, trial.algorithm, **trial.config)


def check(trial: Trial, result, error: Exception | None) -> Outcome:
    """Score one separation and apply the benchmark's correctness gate."""
    out = Outcome(trial.trial_id)
    if error is not None:
        out.problems.append(f"{type(error).__name__}: {error}")
        return out
    if not np.all(np.isfinite(result.demixer)):
        out.problems.append("non-finite demixer")
        return out
    try:
        out.amari_x100 = 100.0 * metrics.amari_index(result.demixer, trial.mixing)
        estimate = result.estimate(trial.x)
        out.sir_db = [float(v) for v in metrics.sir_db(estimate, trial.truth)]
    except CcsIcaError as exc:
        out.problems.append(f"scoring failed: {exc}")
        return out
    if not (np.isfinite(out.amari_x100) and np.all(np.isfinite(out.sir_db))):
        out.problems.append("non-finite score")
    if trial.beat_whitening:
        baseline = metrics.sir_db(result.whitening.apply(trial.x), trial.truth)
        if not np.mean(out.sir_db) > np.mean(baseline):
            out.problems.append(
                f"mean SIR {np.mean(out.sir_db):.2f} dB does not beat whitening {np.mean(baseline):.2f} dB")
    if trial.algorithm == "gd":
        tr, n_iter = np.asarray(result.trace), int(result.n_iter)
        if len(tr) != n_iter + 1 or n_iter > trial.config["gd_cfg"].max_iter:
            out.problems.append(f"trace has {len(tr)} entries for {n_iter} iterations")
        elif not tr[-1] < tr[0]:
            out.problems.append(f"contrast rose from {tr[0]:.6g} to {tr[-1]:.6g}")
    return out
