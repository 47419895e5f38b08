"""The benchmark's tracer wraps package entry points by name, and its
workloads build solver configs by field name; pin both here so a rename fails
the suite rather than only a benchmark run.  The gated workloads also run
once here, so that a separation that fails the benchmark's checks fails the
suite."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ccsica import objective, optimizers, sources
from ccsica.optimizers import GdConfig, JacobiConfig

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while they are built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_one_jacobi_and_one_gd_run():
    s = sources.source_bank(("uniform", "laplacian"), 300, 0, tau1=3.0, tau2=1.0)
    x = np.array([[1.0, 0.6], [0.4, 1.0]]) @ s
    tracer = _load("tracer").Tracer(1024, (sources, objective, optimizers))
    tracer.install()
    try:
        optimizers.separate(x, "jacobi", jacobi_cfg=JacobiConfig(stride=3, max_sweeps=1))
        optimizers.separate(x, "gd", gd_cfg=GdConfig(max_iter=3, epsilon=0.0, stride=3))
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["objective.build.calls"] == 2
    # one stacked `value` call per pair visit evaluates the whole angle grid
    assert counts["objective.value.calls"] == 1
    assert counts["objective.value_and_gradient.calls"] == 4
    assert counts["optimizers.jacobi.pair_visits"] == 1
    assert counts["optimizers.separate.calls"] == 2
    assert counts["density.joint.calls"] == 2
    assert counts["preprocess.center_and_whiten.calls"] == 2
    # uninstall put the originals back
    assert not hasattr(objective.CcsObjective.value, "__wrapped__")


@pytest.mark.parametrize("workload", ["jacobi-grid", "gd-fig4", "noisy-long"])
def test_workload_round_builds_its_solver_configs(workload):
    # builds the inputs of round 0 only; no separation runs
    trials = _load("workloads").WORKLOADS[workload].make_round(0, 0)
    assert trials
    for trial in trials:
        (cfg,) = trial.config.values()
        assert isinstance(cfg, JacobiConfig if trial.algorithm == "jacobi" else GdConfig)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["jacobi-grid", "gd-fig4"])
def test_gated_workload_measures_without_a_failure(workload, seed):
    # one pass over the set-up rounds, started as run.py starts it: src on the
    # path, one BLAS thread, the clock reading taken just before the start
    run = _load("run")
    cmd = [sys.executable, str(_PERFBENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", "measure", "--seconds", "0", "--t0", repr(run._clock())]
    proc = subprocess.run(cmd, env=run._child_env(), capture_output=True, text=True, timeout=run.DEADLINE_S)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["problems"]
    # run.py adds setup_s from its own probes
    contract = json.loads((_PERFBENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"] for m in contract} - {"setup_s"} <= result["metrics"].keys()


@pytest.mark.parametrize("workload, attempted", [("jacobi-grid", 65), ("gd-fig4", 8)])
def test_gated_workload_passes_every_round_and_a_rerun(workload, attempted):
    # every set-up round once, then round 0 again, as a timed run cycles them:
    # each separation passes its checks and the rerun gives the same demixer
    wl, worker = _load("workloads"), _load("worker")
    w = wl.WORKLOADS[workload]
    rounds = wl.make_rounds(w, 1, w.rounds)
    tally = worker.Tally()
    worker._run_pass(wl, rounds + rounds[:1], tally)
    assert tally.attempted == attempted
    summary = tally.summary(wl)
    assert summary["failed"] == 0, summary["problems"]
