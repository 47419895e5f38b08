import os
import re
import subprocess
import sys
from pathlib import Path

import ccsica


def test_every_export_resolves_once():
    assert len(ccsica.__all__) == len(set(ccsica.__all__))
    for name in ccsica.__all__:
        assert hasattr(ccsica, name), name


def test_removed_whitening_stages_not_exported():
    # the bench runner and the file helpers are imported from ccsica.bench and ccsica.fileio
    for name in ("remove_mean", "whiten", "TABLE_IDS", "run_bench", "read_matrix_csv", "read_signal_csv",
                 "read_wav", "write_csv", "write_matrix_csv", "write_signal_csv", "write_wav"):
        assert name not in ccsica.__all__
        assert not hasattr(ccsica, name)


def test_import_loads_the_separation_library_only():
    # a fresh `import ccsica` leaves the bench runner, the file helpers, csv and wave unloaded
    env = dict(os.environ, PYTHONPATH=str(Path(ccsica.__file__).parents[1]))
    code = ("import sys, ccsica\n"
            "print(sorted(m for m in ('ccsica.bench', 'ccsica.fileio', 'csv', 'wave') if m in sys.modules))\n"
            "from ccsica.bench import TABLE_IDS, run_bench\n"
            "from ccsica.fileio import (read_matrix_csv, read_signal_csv, read_wav, write_csv,\n"
            "                           write_matrix_csv, write_signal_csv, write_wav)\n"
            "print('ccsica.bench' in sys.modules and 'ccsica.fileio' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "True"]


def test_readme_library_sketch_runs_as_written():
    # README's one python block, run in a fresh process as CI's "Docs smoke" step runs it
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(Path(ccsica.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True, check=True)
    amari, sirs = out.stdout.splitlines()
    assert float(amari) < 0.01
    assert all(float(v) > 25.0 for v in sirs.strip("[]").split())
    assert out.stderr == ""
