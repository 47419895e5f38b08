import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ccsica
from ccsica import bench
from ccsica.errors import InvalidInput
from ccsica.sources import source_bank


def test_three_source_rows_do_not_depend_on_jobs():
    _, serial = bench.run_bench("fig7", scale=0.2, jobs=1)
    _, pooled = bench.run_bench("fig7", scale=0.2, jobs=2)
    assert len(serial) == 6
    assert np.array_equal(np.array(serial), np.array(pooled))


@pytest.mark.parametrize("table, n_rows", [(bench.bench_fig4, 4), (bench.bench_fig5, 12)])
def test_gd_demo_rows_do_not_depend_on_jobs(table, n_rows):
    header, serial = table(jobs=1, max_iter=5)
    _, pooled = table(jobs=2, max_iter=5)
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


def test_fig4_with_many_jobs_starts_one_worker_per_trial(monkeypatch, pool_sizes):
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 64)
    _, pooled = bench.bench_fig4(jobs=500, max_iter=5)
    _, serial = bench.bench_fig4(jobs=1, max_iter=5)
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


def test_import_leaves_the_process_pool_unloaded():
    # the pool, and multiprocessing with it, loads only for a run with jobs > 1
    env = dict(os.environ, PYTHONPATH=str(Path(ccsica.__file__).parents[1]))
    code = "import sys, ccsica; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
