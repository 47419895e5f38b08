"""The benchmark's tracer wraps package entry points by name; pin them here so
a rename fails the suite rather than only the traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from ccsica import objective, optimizers, sources
from ccsica.optimizers import GdConfig, JacobiConfig

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_one_jacobi_and_one_gd_run():
    s = sources.source_bank(("uniform", "laplacian"), 300, 0, tau1=3.0, tau2=1.0)
    x = np.array([[1.0, 0.6], [0.4, 1.0]]) @ s
    tracer = _load_tracer().Tracer(1024, (sources, objective, optimizers))
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
