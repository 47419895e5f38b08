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

import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .metrics import amari_index, sir_db
from .optimizers import GdConfig, JacobiConfig, ica_gradient_descent, separate
from .sources import MixingModel, mix, noise_sigma_for_snr, random_mixing_matrix, rng_for, draw_source

TABLE_IDS = ("t1", "t4", "t5", "fig4", "fig5", "fig6", "fig7")

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
_T4_DIMS = (2, 4, 8, 16, 20)
_T4_SAMPLES = (1000, 2000, 4000, 8000)
_T4_BASE_TRIALS = {2: 100, 4: 50, 8: 20, 16: 10, 20: 5}
_T5_FRACS = (0.1, 0.01, 0.001, 1.0)
# cycled to fill an m-row bank; the m=2 prefix is the canonical sub+super pair
_KIND_CYCLE = ("uniform", "laplacian", "rayleigh", "lognormal")


@dataclass(frozen=True)
class ExperimentRecord:
    """One separation trial: error metrics plus bookkeeping."""

    trial_index: int
    seed: int
    amari_times_100: float
    sir_db: tuple
    iterations: int
    runtime_seconds: float


def _scaled_trials(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _stride_for_eval(t_count: int, eval_frac: float) -> int:
    return max(1, round(1.0 / eval_frac))


def _sources_for(kinds, t_count, rng) -> np.ndarray:
    rows = [draw_source(k, t_count, rng) for k in kinds]
    s = np.vstack(rows)
    return s - s.mean(axis=1, keepdims=True)


def _solve(x, algorithm, alpha, stride, max_iter, step_size, epsilon):
    gd_cfg = GdConfig(step_size=step_size, max_iter=max_iter, alpha=alpha,
                      stride=stride, epsilon=epsilon)
    jac_cfg = JacobiConfig(alpha=alpha, stride=stride)
    return separate(x, algorithm, gd_cfg=gd_cfg, jacobi_cfg=jac_cfg)


def _run_table_trial(task: dict) -> ExperimentRecord:
    """Worker for the t1/t4/t5/fig6/fig7 style trials (picklable).

    Source rows are drawn from task["kinds"], or, when task["sources"] holds
    an array, are those rows centred; the trial generator then draws only
    what the task leaves open (mixing matrix, noise seed).
    """
    seed = task["seed"]
    rng = rng_for(seed, *task["key"])
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
    start = time.perf_counter()
    # gd-family table trials converge each subproblem tightly; jacobi ignores these
    res = _solve(x, task["algorithm"], task["alpha"], task["stride"],
                 task.get("max_iter", 400), task.get("step_size", 0.3),
                 task.get("epsilon", 1e-5))
    runtime = time.perf_counter() - start
    record = ExperimentRecord(
        trial_index=task["trial"],
        seed=seed,
        amari_times_100=100.0 * amari_index(res.demixer, a),
        sir_db=tuple(sir_db(res.estimate(x), sources)),
        iterations=res.n_iter,
        runtime_seconds=runtime,
    )
    if task.get("baseline"):
        base = sir_db(res.whitening.apply(x), sources)
        return record, tuple(base)
    return record


def _execute(tasks: list[dict], jobs: int):
    if jobs <= 1:
        return [_run_table_trial(t) for t in tasks]
    # imported here, so that `import ccsica` does not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_table_trial, tasks))


def _aggregate(records: list[ExperimentRecord]):
    err = np.array([r.amari_times_100 for r in records])
    rt = np.array([r.runtime_seconds for r in records])
    return float(np.median(err)), float(np.mean(err)), float(np.mean(rt))


def bench_t1(scale=1.0, seed=0, jobs=1, algorithm="jacobi", t_count=1000):
    header = ["pair", "trials", "median_amari_x100", "mean_amari_x100", "mean_runtime_s"]
    rows = []
    trials = _scaled_trials(100, scale)
    stride = max(1, t_count // 100)
    for ci, pair in enumerate(_T1_PAIRS):
        tasks = [
            dict(seed=seed, key=(1, ci, k), trial=k, kinds=pair, t=t_count,
                 algorithm=algorithm, alpha=-0.99999, stride=stride)
            for k in range(trials)
        ]
        med, mean, rt = _aggregate(_execute(tasks, jobs))
        rows.append(["+".join(pair), trials, med, mean, rt])
    return header, rows


def bench_t4(scale=1.0, seed=0, jobs=1, algorithm="jacobi", dims=None, samples=None):
    header = ["m", "t", "trials", "median_amari_x100", "mean_amari_x100", "mean_runtime_s"]
    dim_list = dims or [m for m in _T4_DIMS if m <= max(2, int(np.ceil(20 * scale)))]
    t_list = samples or [t for t in _T4_SAMPLES if t <= max(1000, int(np.ceil(8000 * scale)))]
    rows = []
    for m in dim_list:
        if m not in _T4_BASE_TRIALS:
            raise InvalidInput(f"unsupported dimension {m} for t4, expected one of {sorted(_T4_BASE_TRIALS)}")
        trials = _scaled_trials(_T4_BASE_TRIALS[m], scale)
        kinds = tuple(_KIND_CYCLE[i % 4] for i in range(m))
        for t_count in t_list:
            stride = max(1, t_count // 100)
            tasks = [
                dict(seed=seed, key=(4, m, t_count, k), trial=k, kinds=kinds, t=t_count,
                     algorithm=algorithm, alpha=-0.99999, stride=stride)
                for k in range(trials)
            ]
            med, mean, rt = _aggregate(_execute(tasks, jobs))
            rows.append([m, t_count, trials, med, mean, rt])
    return header, rows


def bench_t5(scale=1.0, seed=0, jobs=1, algorithm="jacobi", dims=None, samples=None, eval_fracs=None):
    header = ["m", "t", "eval_frac", "eval_points", "trials",
              "median_amari_x100", "mean_amari_x100", "mean_runtime_s"]
    dim_list = dims or [m for m in (2, 4) if m <= max(2, int(np.ceil(4 * scale)))]
    t_list = samples or [t for t in _T4_SAMPLES if t <= max(1000, int(np.ceil(8000 * scale)))]
    fracs = eval_fracs or _T5_FRACS
    if not all(0.0 < frac <= 1.0 for frac in fracs):
        raise InvalidInput(f"evaluation fractions must lie in (0, 1], got {list(fracs)}")
    rows = []
    for m in dim_list:
        trials = _scaled_trials(_T4_BASE_TRIALS.get(m, 20), scale)
        kinds = tuple(_KIND_CYCLE[i % 4] for i in range(m))
        for t_count in t_list:
            for frac in fracs:
                stride = _stride_for_eval(t_count, frac)
                eval_points = int(np.ceil(t_count / stride))
                if eval_points < 2:
                    continue
                # data key omits the frac so every column sees the same mixtures
                tasks = [
                    dict(seed=seed, key=(5, m, t_count, k), trial=k, kinds=kinds, t=t_count,
                         algorithm=algorithm, alpha=-0.99999, stride=stride)
                    for k in range(trials)
                ]
                med, mean, rt = _aggregate(_execute(tasks, jobs))
                rows.append([m, t_count, frac, eval_points, trials, med, mean, rt])
    return header, rows


def _fig4_run(seed, alpha, step_size, max_iter=250, t_count=1000):
    rng = rng_for(seed, 44)
    sources = _sources_for(("uniform", "laplacian"), t_count, rng)
    x = mix(sources, MixingModel(DEMO_MATRIX_2), seed=seed)
    # fixed-iteration protocol: the change-based stop is disabled here
    start = time.perf_counter()
    cfg = GdConfig(step_size=step_size, max_iter=max_iter, alpha=alpha, epsilon=0.0)
    res = ica_gradient_descent(x, cfg)
    runtime = time.perf_counter() - start
    return res, sir_db(res.estimate(x), sources), runtime


def bench_fig4(scale=1.0, seed=0, jobs=1, max_iter=250):
    header = ["alpha", "source", "sir_db", "iterations", "runtime_s"]
    rows = []
    for alpha, gamma in ((-0.99999, 0.3), (1.0, 0.7)):
        res, sirs, runtime = _fig4_run(seed, alpha, gamma, max_iter=max_iter)
        for k, s in enumerate(sirs):
            rows.append([alpha, k, float(s), res.n_iter, runtime])
    return header, rows


def bench_fig5(scale=1.0, seed=0, jobs=1, max_iter=250):
    header = ["alpha", "iteration", "contrast"]
    rows = []
    for alpha, gamma in ((-0.99999, 0.3), (1.0, 0.7)):
        res, _, _ = _fig4_run(seed, alpha, gamma, max_iter=max_iter)
        for k, v in enumerate(res.trace):
            rows.append([alpha, k, float(v)])
    return header, rows


def _bench_three_source(table_key, scale, seed, jobs, algorithm, snr_db, wav_sources=None,
                        t_count=2000, matrix=None):
    header = ["trial", "source", "sir_db", "baseline_sir_db", "amari_x100"]
    trials = _scaled_trials(10, scale)
    a = DEMO_MATRIX_3 if matrix is None else np.asarray(matrix, dtype=float)
    if wav_sources is not None:
        wav_sources = np.asarray(wav_sources, dtype=float)
        t_count = wav_sources.shape[1]
    tasks = [
        dict(seed=seed, key=(table_key, k), trial=k, kinds=("uniform", "rayleigh", "laplacian"),
             t=t_count, sources=wav_sources, algorithm=algorithm, alpha=-0.99999,
             stride=max(1, t_count // 200), matrix=a.tolist(), snr_db=snr_db, baseline=True)
        for k in range(trials)
    ]
    rows = []
    for k, (record, baseline) in enumerate(_execute(tasks, jobs)):
        for src, (s_val, b_val) in enumerate(zip(record.sir_db, baseline)):
            rows.append([k, src, float(s_val), float(b_val), record.amari_times_100])
    return header, rows


def bench_fig6(scale=1.0, seed=0, jobs=1, algorithm="jacobi", wav_sources=None, matrix=None):
    return _bench_three_source(6, scale, seed, jobs, algorithm, None, wav_sources, matrix=matrix)


def bench_fig7(scale=1.0, seed=0, jobs=1, algorithm="jacobi", snr_db=20.0, wav_sources=None,
               matrix=None):
    return _bench_three_source(7, scale, seed, jobs, algorithm, snr_db, wav_sources, matrix=matrix)


def run_bench(table: str, scale: float = 1.0, seed: int = 0, jobs: int = 1,
              algorithm: str | None = None, wav_sources=None,
              dims=None, samples=None, eval_fracs=None, snr_db: float | None = None,
              matrix=None):
    """Dispatch a table id to its scenario. Returns (header, rows)."""
    key = str(table).strip().lower()
    if not 0.0 < scale <= 1.0:
        raise InvalidInput("scale must lie in (0, 1]")
    if key == "t1":
        return bench_t1(scale, seed, jobs, algorithm or "jacobi")
    if key == "t4":
        return bench_t4(scale, seed, jobs, algorithm or "jacobi", dims=dims, samples=samples)
    if key == "t5":
        return bench_t5(scale, seed, jobs, algorithm or "jacobi", dims=dims, samples=samples,
                        eval_fracs=eval_fracs)
    if key == "fig4":
        return bench_fig4(scale, seed, jobs)
    if key == "fig5":
        return bench_fig5(scale, seed, jobs)
    if key == "fig6":
        return bench_fig6(scale, seed, jobs, algorithm or "jacobi", wav_sources=wav_sources,
                          matrix=matrix)
    if key == "fig7":
        return bench_fig7(scale, seed, jobs, algorithm or "jacobi",
                          snr_db=20.0 if snr_db is None else snr_db, wav_sources=wav_sources,
                          matrix=matrix)
    raise InvalidInput(f"unknown bench table {table!r}, expected one of {TABLE_IDS}")
