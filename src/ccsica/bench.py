"""Benchmark harness: canned experiment grids with deterministic seeding.

Table ids:

    t1    two-source distribution grid, separation error per source pair
    t4    dimensions-by-samples grid, separation error
    t5    evaluation-set-size sweep, separation error and runtime
    fig4  fixed two-source mixing demo, per-source SIR for both contrast branches
    fig5  learning curves, per-iteration contrast for both contrast branches
    fig6  three-source separation, noise free
    fig7  three-source separation at a target SNR, against a whitening-only baseline

Every trial derives its generator from (seed, cell key, trial index) through
numpy SeedSequence, so runs are reproducible and trials can execute in any
order or process.  _trial_input alone draws a trial's input, and each task
carries the one separate call it makes (`solver`).  For t5, the trial data
depends only on (m, t, trial) so all evaluation-size columns face identical
mixtures.  SIR is always reported against centered sources, matching what a
demixer applied to centered observations can recover.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidInput
from .metrics import amari_index, sir_db
from .optimizers import ALGORITHMS, GdConfig, JacobiConfig, separate
from .preprocess import choose, finite_number, resolve, validate_signal, whole_number
from .sources import MixingModel, mix, noise_sigma_for_snr, random_mixing_matrix, rng_for, draw_source

# fixed mixing matrices for the demo scenarios (columns mix the sources)
DEMO_MATRIX_2 = np.array([[0.5, 0.6], [0.3, 0.4]]).T
DEMO_MATRIX_3 = np.array([[0.8, 0.3, -0.3], [0.2, -0.8, 0.7], [0.3, 0.2, 0.3]]).T

# four same-distribution rows plus the canonical sub+super mixed pair
_T1_PAIRS = (
    ("uniform", "uniform"),
    ("rayleigh", "rayleigh"),
    ("laplacian", "laplacian"),
    ("lognormal", "lognormal"),
    ("uniform", "laplacian"),
)
# samples per source of every t1 trial, and of fig6/fig7 without --wav
_T1_SAMPLES = 1000
_THREE_SOURCE_SAMPLES = 2000
_T4_BASE_TRIALS = {2: 100, 4: 50, 8: 20, 16: 10, 20: 5}
_T4_DIMS = tuple(_T4_BASE_TRIALS)
_T4_SAMPLES = (1000, 2000, 4000, 8000)
_T5_FRACS = (0.1, 0.01, 0.001, 1.0)
# the two fig4/fig5 descents, each run to max_iter 250 unless it stops early (epsilon 0)
_FIG4_CONFIGS = (GdConfig(max_iter=250, epsilon=0.0),
                 GdConfig(alpha=1.0, step_size=0.7, max_iter=250, epsilon=0.0))
# cycled to fill an m-row bank; the m=2 prefix is the canonical sub+super pair
_KIND_CYCLE = ("uniform", "laplacian", "rayleigh", "lognormal")


@dataclass(frozen=True)
class ExperimentRecord:
    """One separation trial: error metrics, the solver's trace, and bookkeeping;
    baseline_sir_db is the whitening-only SIR, set when the task asks for it."""

    amari_times_100: float
    sir_db: tuple
    iterations: int
    runtime_seconds: float
    trace: np.ndarray
    baseline_sir_db: tuple | None = None


def _scaled_trials(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _table_solver(algorithm: str, stride: int) -> dict:
    """The separate call of a t1/t4/t5/fig6/fig7 trial at the table's stride: jacobi at its
    defaults, the gd family converging each subproblem tightly (max_iter 400, epsilon 1e-5)."""
    if algorithm == "jacobi":
        return dict(algorithm=algorithm, jacobi_cfg=JacobiConfig(stride=stride))
    return dict(algorithm=algorithm, gd_cfg=GdConfig(max_iter=400, epsilon=1e-5, stride=stride))


def _trial_input(task: dict):
    """(x, centred sources, mixing matrix) of a trial: the sources are task["sources"], else
    drawn from task["kinds"], and the trial generator then draws, in order, the mixing matrix
    (unless task["matrix"]), the noise sigma at task["snr_db"] (if given) and the mix seed."""
    rng = rng_for(task["seed"], *task["key"])
    s = task.get("sources")
    if s is None:
        s = np.vstack([draw_source(k, task["t"], rng) for k in task["kinds"]])
    sources = s - s.mean(axis=1, keepdims=True)
    if task.get("matrix") is not None:
        a = np.asarray(task["matrix"], dtype=float)
    else:
        a = random_mixing_matrix(sources.shape[0], rng)
    sigma = 0.0
    if task.get("snr_db") is not None:
        sigma = noise_sigma_for_snr(a @ sources, task["snr_db"])
    x = mix(sources, MixingModel(a, noise_sigma=sigma), seed=int(rng.integers(1 << 31)))
    return x, sources, a


def _run_table_trial(task: dict) -> ExperimentRecord:
    """Worker for every table's trials (picklable): the task's input, its one
    separate call (task["solver"]), and the trial's scores."""
    x, sources, a = _trial_input(task)
    start = time.perf_counter()
    res = separate(x, **task["solver"])
    runtime = time.perf_counter() - start
    baseline = tuple(sir_db(res.whitening.apply(x), sources)) if task.get("baseline") else None
    return ExperimentRecord(
        amari_times_100=100.0 * amari_index(res.demixer, a),
        sir_db=tuple(sir_db(res.estimate(x), sources)),
        iterations=res.n_iter,
        runtime_seconds=runtime,
        trace=res.trace,
        baseline_sir_db=baseline,
    )


def _execute(tasks: list[dict], jobs: int):
    """Run the trials in order, in at most jobs worker processes, but no more
    than there are trials or CPUs: the pool starts all its workers at once."""
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [_run_table_trial(t) for t in tasks]
    # imported here, so that `import ccsica` does not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_table_trial, tasks))


def _grid_rows(seed, jobs, cells):
    """One row per t1/t4/t5 cell (lead, key, trials, task): the lead columns, the
    trial count, then the median and mean Amari error x100 and the mean runtime.
    Trial k of a cell runs under key + (k,); every trial of the grid goes
    through one _execute call."""
    tasks = [dict(task, seed=seed, key=key + (k,))
             for _, key, trials, task in cells for k in range(trials)]
    records = iter(_execute(tasks, jobs))
    rows = []
    for lead, _, trials, _ in cells:
        cell = [next(records) for _ in range(trials)]
        err = np.array([r.amari_times_100 for r in cell])
        rt = np.array([r.runtime_seconds for r in cell])
        rows.append([*lead, trials, float(np.median(err)), float(np.mean(err)), float(np.mean(rt))])
    return rows


def bench_t1(scale=1.0, seed=0, jobs=1, algorithm="jacobi"):
    header = ["pair", "trials", "median_amari_x100", "mean_amari_x100", "mean_runtime_s"]
    trials = _scaled_trials(100, scale)
    task = dict(t=_T1_SAMPLES, solver=_table_solver(algorithm, _T1_SAMPLES // 100))
    cells = [(["+".join(pair)], (1, ci), trials, dict(task, kinds=pair))
             for ci, pair in enumerate(_T1_PAIRS)]
    return header, _grid_rows(seed, jobs, cells)


def _grid_samples(dim_list, samples, scale):
    """A t4/t5 grid's dimensions and sample counts (`samples`, else the _T4_SAMPLES the scale
    reaches), each a whole number, the dimensions at least 2 and the counts reaching the
    largest dimension, and each dimension's source kinds, cycled from _KIND_CYCLE."""
    dim_list = [whole_number(m, "each grid dimension", least=2) for m in dim_list]
    t_list = ([whole_number(t, "each sample count") for t in samples] if samples else
              [t for t in _T4_SAMPLES if t <= max(1000, int(np.ceil(8000 * scale)))])
    if min(t_list) < max(dim_list):
        raise InvalidInput(f"sample counts {t_list} must reach the largest dimension {max(dim_list)}")
    return dim_list, t_list, {m: tuple(_KIND_CYCLE[i % 4] for i in range(m)) for m in dim_list}


def bench_t4(scale=1.0, seed=0, jobs=1, algorithm="jacobi", dims=None, samples=None):
    header = ["m", "t", "trials", "median_amari_x100", "mean_amari_x100", "mean_runtime_s"]
    dim_list, t_list, kinds = _grid_samples(
        dims or [m for m in _T4_DIMS if m <= max(2, int(np.ceil(20 * scale)))], samples, scale)
    if not set(dim_list) <= _T4_BASE_TRIALS.keys():
        raise InvalidInput(f"t4 dimensions must be among {sorted(_T4_BASE_TRIALS)}, got {dim_list}")
    cells = [([m, t_count], (4, m, t_count), _scaled_trials(_T4_BASE_TRIALS[m], scale),
              dict(kinds=kinds[m], t=t_count, solver=_table_solver(algorithm, max(1, t_count // 100))))
             for m in dim_list for t_count in t_list]
    return header, _grid_rows(seed, jobs, cells)


def bench_t5(scale=1.0, seed=0, jobs=1, algorithm="jacobi", dims=None, samples=None, eval_fracs=None):
    header = ["m", "t", "eval_frac", "eval_points", "trials",
              "median_amari_x100", "mean_amari_x100", "mean_runtime_s"]
    dim_list, t_list, kinds = _grid_samples(
        dims or [m for m in (2, 4) if m <= max(2, int(np.ceil(4 * scale)))], samples, scale)
    fracs = eval_fracs or _T5_FRACS
    if not all(0.0 < finite_number(frac, "each evaluation fraction") <= 1.0 for frac in fracs):
        raise InvalidInput(f"evaluation fractions must lie in (0, 1], got {list(fracs)}")
    cells = []
    for m in dim_list:
        trials = _scaled_trials(_T4_BASE_TRIALS.get(m, 20), scale)
        for t_count in t_list:
            for frac in fracs:
                stride = max(1, round(1.0 / frac))
                eval_points = int(np.ceil(t_count / stride))
                # a one-point cell is skipped; the data key omits the frac so
                # every column sees the same mixtures
                if eval_points >= 2:
                    cells.append(([m, t_count, frac, eval_points], (5, m, t_count), trials,
                                  dict(kinds=kinds[m], t=t_count, solver=_table_solver(algorithm, stride))))
    if not cells:
        raise InvalidInput(f"no t5 cell has 2 evaluation points: samples {list(t_list)}, "
                           f"fractions {list(fracs)}")
    return header, _grid_rows(seed, jobs, cells)


def _fig4_records(seed, jobs) -> list[ExperimentRecord]:
    """The two-source demo's descents, each the gd call of its _FIG4_CONFIGS entry: epsilon 0
    runs it to its max_iter 250 unless a step leaves the contrast bit-equal to the step
    before, which stops it early (at 247 on the first branch, seed 0)."""
    tasks = [dict(seed=seed, key=(44,), kinds=("uniform", "laplacian"), t=1000, matrix=DEMO_MATRIX_2,
                  solver=dict(algorithm="gd", gd_cfg=cfg)) for cfg in _FIG4_CONFIGS]
    return _execute(tasks, jobs)


def bench_fig4(seed=0, jobs=1):
    header = ["alpha", "source", "sir_db", "iterations", "runtime_s"]
    rows = []
    for cfg, rec in zip(_FIG4_CONFIGS, _fig4_records(seed, jobs)):
        for k, s in enumerate(rec.sir_db):
            rows.append([cfg.alpha, k, float(s), rec.iterations, rec.runtime_seconds])
    return header, rows


def bench_fig5(seed=0, jobs=1):
    header = ["alpha", "iteration", "contrast"]
    rows = []
    for cfg, rec in zip(_FIG4_CONFIGS, _fig4_records(seed, jobs)):
        for k, v in enumerate(rec.trace):
            rows.append([cfg.alpha, k, float(v)])
    return header, rows


def _bench_three_source(table_key, scale=1.0, seed=0, jobs=1, algorithm="jacobi", snr_db=None,
                        wav_sources=None, matrix=None):
    """fig6/fig7 under table_key; the matrix, any sources and any SNR are checked before any trial."""
    header = ["trial", "source", "sir_db", "baseline_sir_db", "amari_x100"]
    trials = _scaled_trials(10, scale)
    a = MixingModel(DEMO_MATRIX_3 if matrix is None else matrix).matrix
    sources = None if wav_sources is None else validate_signal(wav_sources)
    if len(a) != 3 or (sources is not None and len(sources) != 3):
        raise InvalidInput(f"bench fig6/fig7 needs a 3x3 mixing matrix and 3 source rows, got a {a.shape} "
                           f"matrix and {'3 drawn' if sources is None else sources.shape} sources")
    if snr_db is not None:
        # refuses a non-finite SNR, or an overflowing noise scale: given sources fix the mixture
        noise_sigma_for_snr(1.0 if sources is None else a @ (sources - sources.mean(axis=1, keepdims=True)),
                            snr_db)
    t_count = _THREE_SOURCE_SAMPLES if sources is None else sources.shape[1]
    tasks = [
        dict(seed=seed, key=(table_key, k), kinds=("uniform", "rayleigh", "laplacian"),
             t=t_count, sources=sources, solver=_table_solver(algorithm, max(1, t_count // 200)),
             matrix=a.tolist(), snr_db=snr_db, baseline=True)
        for k in range(trials)
    ]
    rows = []
    for k, record in enumerate(_execute(tasks, jobs)):
        for src, (s_val, b_val) in enumerate(zip(record.sir_db, record.baseline_sir_db)):
            rows.append([k, src, float(s_val), float(b_val), record.amari_times_100])
    return header, rows


# each table's builder and the optional run_bench arguments it reads
_TABLES = {
    "t1": (bench_t1, ("scale", "algorithm")),
    "t4": (bench_t4, ("scale", "algorithm", "dims", "samples")),
    "t5": (bench_t5, ("scale", "algorithm", "dims", "samples", "eval_fracs")),
    "fig4": (bench_fig4, ()),
    "fig5": (bench_fig5, ()),
    "fig6": (partial(_bench_three_source, 6), ("scale", "algorithm", "wav_sources", "matrix")),
    "fig7": (partial(_bench_three_source, 7, snr_db=20.0),
             ("scale", "algorithm", "wav_sources", "matrix", "snr_db")),
}
TABLE_IDS = tuple(_TABLES)


def run_bench(table: str, scale: float = 1.0, seed: int = 0, jobs: int = 1, algorithm: str = "jacobi",
              wav_sources=None, dims=None, samples=None, eval_fracs=None,
              snr_db: float | None = None, matrix=None):
    """Run one table of TABLE_IDS: (header, rows). The table and algorithm ids match in any case,
    blanks trimmed (preprocess.resolve). A bad scale (a real number in (0, 1]), seed (a whole
    number), jobs or algorithm is refused, as are a bad table id and an option off its default
    (scale 1, algorithm jacobi, else None) that the table does not read (`_TABLES`, through
    preprocess.choose), and the table checks its own inputs: each before any trial."""
    if not 0.0 < finite_number(scale, "scale") <= 1.0:
        raise InvalidInput(f"scale must lie in (0, 1], got {scale!r}")
    seed = whole_number(seed, "seed", least=None)
    jobs = whole_number(jobs, "jobs")
    algorithm = resolve(algorithm, ALGORITHMS, "algorithm")
    builder, given = choose(
        _TABLES, table, "bench table", scale=None if scale == 1.0 else scale,
        algorithm=None if algorithm == "jacobi" else algorithm, dims=dims, samples=samples,
        eval_fracs=eval_fracs, wav_sources=wav_sources, matrix=matrix, snr_db=snr_db)
    return builder(seed=seed, jobs=jobs, **given)
