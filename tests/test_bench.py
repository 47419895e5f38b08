import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ccsica
from ccsica import bench
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

    def spy(x, algorithm, gd_cfg, jacobi_cfg):
        strides.append((x.shape[1], jacobi_cfg.stride))
        return real_separate(x, algorithm, gd_cfg=gd_cfg, jacobi_cfg=jacobi_cfg)

    monkeypatch.setattr(bench, "separate", spy)
    bench.run_bench("fig6", scale=0.1)
    wav = source_bank(("uniform", "rayleigh", "laplacian"), 800, seed=2)
    _, rows = bench.run_bench("fig6", scale=0.1, wav_sources=wav)
    assert strides == [(2000, 10), (800, 4)]
    assert len(rows) == 3 and all(np.isfinite(r[2]) for r in rows)


def test_import_leaves_the_process_pool_unloaded():
    # the pool, and multiprocessing with it, loads only for a run with jobs > 1
    env = dict(os.environ, PYTHONPATH=str(Path(ccsica.__file__).parents[1]))
    code = "import sys, ccsica; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
