import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ccsica
from ccsica import bench
from ccsica.errors import InvalidInput
from ccsica.optimizers import GdConfig, JacobiConfig
from ccsica.sources import source_bank


def test_three_source_rows_do_not_depend_on_jobs():
    _, serial = bench.run_bench("fig7", scale=0.2, jobs=1)
    _, pooled = bench.run_bench("fig7", scale=0.2, jobs=2)
    assert len(serial) == 6
    assert np.array_equal(np.array(serial), np.array(pooled))


@pytest.mark.parametrize("table, n_rows", [(bench.bench_fig4, 4), (bench.bench_fig5, 12)])
def test_gd_demo_rows_do_not_depend_on_jobs(five_step_fig4, table, n_rows):
    header, serial = table(jobs=1)
    _, pooled = table(jobs=2)
    keep = [k for k, name in enumerate(header) if name != "runtime_s"]
    assert len(serial) == n_rows
    assert np.array_equal(np.array(serial)[:, keep], np.array(pooled)[:, keep])


def test_three_source_stride_follows_source_length(monkeypatch):
    # the synthetic table evaluates 200 points per contrast call; supplied
    # sources of any length must get the same evaluation-set size
    strides = []
    real_separate = bench.separate

    def spy(x, algorithm, gd_cfg=None, jacobi_cfg=None):
        strides.append((x.shape[1], jacobi_cfg.stride))
        return real_separate(x, algorithm, gd_cfg=gd_cfg, jacobi_cfg=jacobi_cfg)

    monkeypatch.setattr(bench, "separate", spy)
    bench.run_bench("fig6", scale=0.1)
    wav = source_bank(("uniform", "rayleigh", "laplacian"), 800, seed=2)
    _, rows = bench.run_bench("fig6", scale=0.1, wav_sources=wav)
    assert strides == [(2000, 10), (800, 4)]
    assert len(rows) == 3 and all(np.isfinite(r[2]) for r in rows)


@pytest.fixture
def solver_calls(monkeypatch):
    """The arguments of each bench.separate call after x; every call returns a
    one-sweep Jacobi result at stride 100, so that the trial's scoring still runs."""
    calls = []
    real_separate = bench.separate

    def spy(x, algorithm, **solver):
        calls.append(dict(algorithm=algorithm, **solver))
        return real_separate(x, "jacobi", jacobi_cfg=JacobiConfig(stride=100, max_sweeps=1))

    monkeypatch.setattr(bench, "separate", spy)
    return calls


@pytest.mark.parametrize("algorithm, solver", [
    ("jacobi", dict(jacobi_cfg=JacobiConfig(stride=10))),
    ("gd", dict(gd_cfg=GdConfig(max_iter=400, epsilon=1e-5, stride=10))),
    ("pairwise-gd", dict(gd_cfg=GdConfig(max_iter=400, epsilon=1e-5, stride=10))),
])
def test_table_trials_make_the_table_solver_call(solver_calls, algorithm, solver):
    # gd-family table trials converge each subproblem more tightly than separate's
    # defaults; pairwise-gd takes its default sweeps
    bench.run_bench("t1", scale=0.01, algorithm=algorithm)
    assert solver_calls == [dict(algorithm=algorithm, **solver)] * 5


def test_fig4_descents_make_their_config_calls(solver_calls):
    # the spy makes each call cheap, so the descents keep their full 250 steps
    bench.bench_fig4()
    assert solver_calls == [
        dict(algorithm="gd", gd_cfg=GdConfig(epsilon=0.0, max_iter=250)),
        dict(algorithm="gd", gd_cfg=GdConfig(alpha=1.0, step_size=0.7, epsilon=0.0, max_iter=250)),
    ]
    assert [call["gd_cfg"] for call in solver_calls] == list(bench._FIG4_CONFIGS)


def _fake_trial(task):
    return bench.ExperimentRecord(amari_times_100=float(task["t"]), sir_db=(), iterations=0,
                                  runtime_seconds=0.0, trace=np.zeros(0))


@pytest.mark.parametrize("table, kwargs, n_tasks, n_rows", [
    ("t1", dict(scale=0.02), 10, 5),
    ("t4", dict(scale=0.02, dims=[2, 4], samples=[1000, 2000]), 6, 4),
    ("t5", dict(scale=0.01, dims=[2], samples=[1000], eval_fracs=[0.001, 0.5, 1.0]), 2, 2),
])
def test_grid_tables_run_every_trial_through_one_execute(monkeypatch, table, kwargs, n_tasks, n_rows):
    # t5's T=1000 cell at fraction 0.001 has one evaluation point and is skipped
    calls = []
    real_execute = bench._execute

    def counting_execute(tasks, jobs):
        calls.append(len(tasks))
        return real_execute(tasks, jobs)

    monkeypatch.setattr(bench, "_run_table_trial", _fake_trial)
    monkeypatch.setattr(bench, "_execute", counting_execute)
    _, rows = bench.run_bench(table, **kwargs)
    assert calls == [n_tasks]
    assert len(rows) == n_rows
    if table == "t5":
        assert [row[2] for row in rows] == [0.5, 1.0]


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of each process pool made, with ProcessPoolExecutor
    replaced by a stand-in that runs the tasks in order in this process."""
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


@pytest.mark.parametrize("jobs, n_tasks, cpus, workers", [
    (500, 2, 64, [2]),    # fig4 --jobs 500: one worker per trial
    (3, 10, 2, [2]),      # no more workers than CPUs
    (4, 10, 8, [4]),
    (4, 10, 1, []),       # one CPU, or an unknown count: no pool
    (4, 10, None, []),
    (8, 1, 8, []),        # one trial: no pool
])
def test_pool_is_capped_at_the_trials_and_cpus(monkeypatch, pool_sizes, jobs, n_tasks, cpus, workers):
    monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(bench, "_run_table_trial", _fake_trial)
    records = bench._execute([dict(t=k) for k in range(n_tasks)], jobs)
    assert pool_sizes == workers
    assert [r.amari_times_100 for r in records] == list(range(n_tasks))


def test_fig4_with_many_jobs_starts_one_worker_per_trial(monkeypatch, pool_sizes, five_step_fig4):
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 64)
    _, pooled = bench.bench_fig4(jobs=500)
    _, serial = bench.bench_fig4(jobs=1)
    assert pool_sizes == [2]
    assert [row[:4] for row in pooled] == [row[:4] for row in serial]


@pytest.mark.parametrize("jobs", [1, 2])
def test_unknown_algorithm_refused_before_any_trial(monkeypatch, jobs):
    # with jobs > 1 the caller raises the refusal, not a worker process
    calls = []
    monkeypatch.setattr(bench, "_execute", lambda *a: calls.append(a))
    with pytest.raises(InvalidInput, match="unknown algorithm"):
        bench.run_bench("t1", scale=0.01, algorithm="fastica", jobs=jobs)
    assert calls == []


@pytest.mark.parametrize("given, match", [
    (dict(seed=0.5), "seed must be an integer"), (dict(seed="7"), "seed must be an integer"),
    (dict(scale="0.5"), "scale must be finite and real"), (dict(scale=True), "scale must be finite and real"),
    (dict(scale=Fraction(1, 2)), "scale must be finite and real"),
])
def test_seed_and_scale_of_another_type_refused_before_any_trial(monkeypatch, given, match):
    # a fractional seed was truncated to its integer part, and a text one reached the trials
    calls = []
    monkeypatch.setattr(bench, "_execute", lambda *a: calls.append(a))
    with pytest.raises(InvalidInput, match=match):
        bench.run_bench("t1", **dict(dict(scale=0.01), **given))
    assert calls == []


@pytest.mark.parametrize("table, grid", [
    ("t5", dict(dims=[2.5])), ("t5", dict(dims=[2], samples=[1000.5])),
    ("t4", dict(dims=["2"])), ("t4", dict(dims=[2], samples=[1000.5])),
])
def test_fractional_grid_entry_refused_before_any_trial(monkeypatch, table, grid):
    # library dims and samples are whole numbers, never truncated or parsed from text
    calls = []
    monkeypatch.setattr(bench, "_execute", lambda *a: calls.append(a))
    with pytest.raises(InvalidInput, match="must be an integer"):
        bench.run_bench(table, scale=0.01, **grid)
    assert calls == []


def test_evaluation_fraction_of_another_type_refused_before_any_trial(monkeypatch):
    # a fraction is a real number, never a bool
    calls = []
    monkeypatch.setattr(bench, "_execute", lambda *a: calls.append(a))
    with pytest.raises(InvalidInput, match="each evaluation fraction must be finite and real"):
        bench.run_bench("t5", scale=0.01, dims=[2], eval_fracs=[True])
    assert calls == []


@pytest.mark.parametrize("table", ["fig6", "fig7"])
@pytest.mark.parametrize("given", [dict(matrix=np.eye(2)),
                                   dict(wav_sources=source_bank(("uniform", "laplacian"), 400))])
def test_three_source_input_of_another_size_refused_before_any_trial(monkeypatch, table, given):
    # refused before the first trial draws its sources, not by mix inside that trial
    calls = []
    monkeypatch.setattr(bench, "draw_source", lambda *a: calls.append(a))
    monkeypatch.setattr(bench, "_execute", lambda *a: calls.append(a))
    with pytest.raises(InvalidInput, match="3x3 mixing matrix and 3 source rows"):
        bench.run_bench(table, scale=0.1, **given)
    assert calls == []


@pytest.mark.parametrize("snr_db, message, given", [
    (float("nan"), "SNR in dB must be finite and real", {}),
    ("10", "SNR in dB must be finite and real", {}),
    (-1e308, "puts the noise scale outside the float range", {}),
    # a unit-power mixture keeps this noise scale a float, the mixture of these sources does not
    (-3082.4, "puts the noise scale outside the float range",
     dict(wav_sources=3 * source_bank(("uniform", "rayleigh", "laplacian"), 400, 0))),
], ids=["nan", "10", "-1e+308", "-3082.4-wav"])
def test_three_source_bad_snr_refused_before_any_trial(monkeypatch, snr_db, message, given):
    # refused before the first trial draws its sources, not by noise_sigma_for_snr inside that trial
    calls = []
    monkeypatch.setattr(bench, "draw_source", lambda *a: calls.append(a))
    monkeypatch.setattr(bench, "_execute", lambda *a: calls.append(a))
    with pytest.raises(InvalidInput, match=message):
        bench.run_bench("fig7", scale=0.1, snr_db=snr_db, **given)
    assert calls == []


def test_import_leaves_the_process_pool_unloaded():
    # the pool, and multiprocessing with it, loads only for a run with jobs > 1
    env = dict(os.environ, PYTHONPATH=str(Path(ccsica.__file__).parents[1]))
    code = "import sys, ccsica; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
