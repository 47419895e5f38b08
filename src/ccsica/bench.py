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
order or process.  For t5, the trial data depends only on (m, t, trial) so
all evaluation-size columns face identical mixtures.  SIR is always reported
against centered sources, matching what a demixer applied to centered
observations can recover.
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
from .preprocess import validate_signal, whole_number
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
_T4_DIMS = (2, 4, 8, 16, 20)
_T4_SAMPLES = (1000, 2000, 4000, 8000)
_T4_BASE_TRIALS = {2: 100, 4: 50, 8: 20, 16: 10, 20: 5}
_T5_FRACS = (0.1, 0.01, 0.001, 1.0)
# (alpha, step size) of the two fig4/fig5 descents
_FIG4_BRANCHES = ((-0.99999, 0.3), (1.0, 0.7))
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


def _sources_for(kinds, t_count, rng) -> np.ndarray:
    rows = [draw_source(k, t_count, rng) for k in kinds]
    s = np.vstack(rows)
    return s - s.mean(axis=1, keepdims=True)


def _run_table_trial(task: dict) -> ExperimentRecord:
    """Worker for every table's trials (picklable).

    Source rows are drawn from task["kinds"], or, when task["sources"] holds
    an array, are those rows centred; the trial generator then draws only
    what the task leaves open (mixing matrix, noise seed).
    """
    rng = rng_for(task["seed"], *task["key"])
    if task.get("sources") is not None:
        sources = task["sources"] - task["sources"].mean(axis=1, keepdims=True)
    else:
        sources = _sources_for(task["kinds"], task["t"], rng)
    if task.get("matrix") is not None:
        a = np.asarray(task["matrix"], dtype=float)
    else:
        a = random_mixing_matrix(sources.shape[0], rng)
    sigma = 0.0
    if task.get("snr_db") is not None:
        sigma = noise_sigma_for_snr(a @ sources, task["snr_db"])
    x = mix(sources, MixingModel(a, noise_sigma=sigma), seed=int(rng.integers(1 << 31)))
    if task["algorithm"] == "jacobi":
        solver = {"jacobi_cfg": JacobiConfig(alpha=task["alpha"], stride=task["stride"])}
    else:
        # gd-family table trials converge each subproblem tightly
        solver = {"gd_cfg": GdConfig(step_size=task.get("step_size", GdConfig.step_size),
                                     max_iter=task.get("max_iter", 400), alpha=task["alpha"],
                                     stride=task["stride"], epsilon=task.get("epsilon", 1e-5))}
    start = time.perf_counter()
    res = separate(x, task["algorithm"], **solver)
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
    Trial k of a cell runs under key + (k,) at the default GdConfig.alpha;
    every trial of the grid goes through one _execute call."""
    tasks = [dict(task, seed=seed, key=key + (k,), alpha=GdConfig.alpha)
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
    task = dict(t=_T1_SAMPLES, algorithm=algorithm, stride=_T1_SAMPLES // 100)
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
              dict(kinds=kinds[m], t=t_count, algorithm=algorithm, stride=max(1, t_count // 100)))
             for m in dim_list for t_count in t_list]
    return header, _grid_rows(seed, jobs, cells)


def bench_t5(scale=1.0, seed=0, jobs=1, algorithm="jacobi", dims=None, samples=None, eval_fracs=None):
    header = ["m", "t", "eval_frac", "eval_points", "trials",
              "median_amari_x100", "mean_amari_x100", "mean_runtime_s"]
    dim_list, t_list, kinds = _grid_samples(
        dims or [m for m in (2, 4) if m <= max(2, int(np.ceil(4 * scale)))], samples, scale)
    fracs = eval_fracs or _T5_FRACS
    if not all(0.0 < frac <= 1.0 for frac in fracs):
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
                                  dict(kinds=kinds[m], t=t_count, algorithm=algorithm, stride=stride)))
    if not cells:
        raise InvalidInput(f"no t5 cell has 2 evaluation points: samples {list(t_list)}, "
                           f"fractions {list(fracs)}")
    return header, _grid_rows(seed, jobs, cells)


def _fig4_records(seed, jobs, max_iter=250) -> list[ExperimentRecord]:
    """The two-source demo's descents, one per _FIG4_BRANCHES entry: epsilon 0
    runs each to max_iter unless a step leaves the contrast bit-equal to the
    step before, which stops it early (at 247 on the first branch, seed 0)."""
    tasks = [
        dict(seed=seed, key=(44,), kinds=("uniform", "laplacian"), t=1000,
             matrix=DEMO_MATRIX_2, algorithm="gd", alpha=alpha, step_size=gamma, stride=1,
             max_iter=max_iter, epsilon=0.0)
        for alpha, gamma in _FIG4_BRANCHES
    ]
    return _execute(tasks, jobs)


def bench_fig4(seed=0, jobs=1, max_iter=250):
    header = ["alpha", "source", "sir_db", "iterations", "runtime_s"]
    rows = []
    for (alpha, _), rec in zip(_FIG4_BRANCHES, _fig4_records(seed, jobs, max_iter)):
        for k, s in enumerate(rec.sir_db):
            rows.append([alpha, k, float(s), rec.iterations, rec.runtime_seconds])
    return header, rows


def bench_fig5(seed=0, jobs=1, max_iter=250):
    header = ["alpha", "iteration", "contrast"]
    rows = []
    for (alpha, _), rec in zip(_FIG4_BRANCHES, _fig4_records(seed, jobs, max_iter)):
        for k, v in enumerate(rec.trace):
            rows.append([alpha, k, float(v)])
    return header, rows


def _bench_three_source(table_key, scale=1.0, seed=0, jobs=1, algorithm="jacobi", snr_db=None,
                        wav_sources=None, matrix=None):
    """fig6/fig7 under table_key; the matrix and any sources are checked before any trial."""
    header = ["trial", "source", "sir_db", "baseline_sir_db", "amari_x100"]
    trials = _scaled_trials(10, scale)
    a = MixingModel(DEMO_MATRIX_3 if matrix is None else matrix).matrix
    sources = None if wav_sources is None else validate_signal(wav_sources)
    if len(a) != 3 or (sources is not None and len(sources) != 3):
        raise InvalidInput(f"bench fig6/fig7 needs a 3x3 mixing matrix and 3 source rows, got a {a.shape} "
                           f"matrix and {'3 drawn' if sources is None else sources.shape} sources")
    t_count = _THREE_SOURCE_SAMPLES if sources is None else sources.shape[1]
    tasks = [
        dict(seed=seed, key=(table_key, k), kinds=("uniform", "rayleigh", "laplacian"),
             t=t_count, sources=sources, algorithm=algorithm, alpha=GdConfig.alpha,
             stride=max(1, t_count // 200), matrix=a.tolist(), snr_db=snr_db, baseline=True)
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
    """Run one table of TABLE_IDS: (header, rows). An option off its default (scale 1, algorithm
    jacobi, else None) that the table does not read (`_TABLES`) is refused, as are a bad table id,
    scale, jobs or algorithm, and the table checks its own inputs: each before any trial."""
    key = str(table).strip().lower()
    if key not in _TABLES:
        raise InvalidInput(f"unknown bench table {table!r}, expected one of {TABLE_IDS}")
    if not 0.0 < scale <= 1.0:
        raise InvalidInput("scale must lie in (0, 1]")
    jobs = whole_number(jobs, "jobs")
    algorithm = str(algorithm).strip().lower()
    if algorithm not in ALGORITHMS:
        raise InvalidInput(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    builder, reads = _TABLES[key]
    options = dict(scale=None if scale == 1.0 else scale,
                   algorithm=None if algorithm == "jacobi" else algorithm, dims=dims, samples=samples,
                   eval_fracs=eval_fracs, wav_sources=wav_sources, matrix=matrix, snr_db=snr_db)
    given = {k: v for k, v in options.items() if v is not None}
    unread = [k for k in given if k not in reads]
    if unread:
        raise InvalidInput(f"bench {key} does not read {', '.join(unread)}")
    return builder(seed=seed, jobs=jobs, **given)
