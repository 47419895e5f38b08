import inspect
import os
import re
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest
import yaml

from ccsica import bench, cli, optimizers
from ccsica.cli import main
from ccsica.errors import InvalidInput
from ccsica.fileio import (read_matrix_csv, read_signal_csv, read_wav, write_matrix_csv,
                           write_signal_csv, write_wav)
from ccsica.metrics import kurtosis
from ccsica.optimizers import GdConfig, JacobiConfig, separate
from ccsica.preprocess import center_and_whiten
from ccsica.sources import random_mixing_matrix, rng_for, source_bank


def _read_metric_rows(path):
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        metric, source, value = line.split(",")
        rows[(metric, source)] = float(value)
    return rows


def _gen_and_mix(tmp, t=300, seed=0, kinds="uniform,laplacian"):
    assert main(["gen", "--out", str(tmp / "src"), "--t", str(t),
                 "--seed", str(seed), "--kinds", kinds]) == 0
    sources = sorted(str(p) for p in (tmp / "src").glob("source_*.csv"))
    assert main(["mix", "--inputs", ",".join(sources),
                 "--out", str(tmp / "mix"), "--seed", str(seed)]) == 0
    return sources, tmp / "mix" / "mixture.csv", tmp / "mix" / "mixing_matrix.csv"


class TestRoundTrip:
    @pytest.mark.parametrize("algorithm", ["gd", "pairwise-gd", "jacobi"])
    def test_exit_zero_and_artifacts(self, tmp_path, algorithm):
        sources, mixture, mixing = _gen_and_mix(tmp_path)
        sep = tmp_path / "sep"
        # jacobi does not read --max-iter
        cap = [] if algorithm == "jacobi" else ["--max-iter", "40"]
        assert main(["separate", "--input", str(mixture), "--algorithm", algorithm,
                     "--ts", "4", *cap, "--out", str(sep)]) == 0
        assert (sep / "estimates.csv").is_file()
        assert (sep / "demixer.csv").is_file()
        assert (sep / "trace.csv").is_file()
        assert (sep / "cm.csv").is_file() == (algorithm == "jacobi")
        assert main(["eval", "--estimates", str(sep / "estimates.csv"),
                     "--truth", ",".join(sources),
                     "--demixer", str(sep / "demixer.csv"), "--mixing", str(mixing),
                     "--out", str(tmp_path / "metrics")]) == 0
        rows = _read_metric_rows(tmp_path / "metrics" / "metrics.csv")
        assert ("sir_db", "0") in rows and ("sir_db", "1") in rows
        assert ("amari_x100", "") in rows

    def test_jacobi_separation_quality(self, tmp_path):
        sources, mixture, _ = _gen_and_mix(tmp_path, t=1000, seed=3)
        sep = tmp_path / "sep"
        assert main(["separate", "--input", str(mixture), "--algorithm", "jacobi",
                     "--ts", "2", "--out", str(sep)]) == 0
        assert main(["eval", "--estimates", str(sep / "estimates.csv"),
                     "--truth", ",".join(sources), "--out", str(tmp_path / "m")]) == 0
        rows = _read_metric_rows(tmp_path / "m" / "metrics.csv")
        assert rows[("sir_db", "0")] >= 20.0
        assert rows[("sir_db", "1")] >= 20.0

    def test_separation_is_deterministic(self, tmp_path):
        _, mixture, _ = _gen_and_mix(tmp_path)
        for d in ("a", "b"):
            assert main(["separate", "--input", str(mixture), "--algorithm", "jacobi",
                         "--ts", "4", "--out", str(tmp_path / d)]) == 0
        assert (tmp_path / "a" / "estimates.csv").read_bytes() == \
               (tmp_path / "b" / "estimates.csv").read_bytes()


class TestGen:
    def test_four_kinds_make_four_files(self, tmp_path):
        assert main(["gen", "--kinds", "uniform,laplacian,rayleigh,lognormal",
                     "--t", "50", "--out", str(tmp_path)]) == 0
        files = sorted(tmp_path.glob("source_*.csv"))
        assert len(files) == 4
        for f in files:
            assert len(f.read_text().splitlines()) == 51

    def test_deterministic(self, tmp_path):
        for d in ("a", "b"):
            assert main(["gen", "--t", "64", "--seed", "9", "--out", str(tmp_path / d)]) == 0
        for f in sorted((tmp_path / "a").glob("*.csv")):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_are_the_source_bank(self, tmp_path, seed):
        kinds = ("uniform", "laplacian", "rayleigh", "lognormal")
        assert main(["gen", "--kinds", ",".join(kinds), "--t", "500", "--seed", str(seed),
                     "--out", str(tmp_path)]) == 0
        rows = [read_signal_csv(tmp_path / f"source_{i:02d}_{k}.csv") for i, k in enumerate(kinds)]
        assert np.array_equal(np.vstack(rows), source_bank(kinds, 500, seed))

    def test_laplacian_sample_kurtosis(self, tmp_path):
        assert main(["gen", "--kinds", "laplacian", "--t", "20000", "--out", str(tmp_path)]) == 0
        data = read_signal_csv(tmp_path / "source_00_laplacian.csv")
        assert kurtosis(data) == pytest.approx(3.0, abs=0.3)


class TestSeparateEdges:
    def test_zero_iterations_returns_whitening(self, tmp_path):
        _, mixture, _ = _gen_and_mix(tmp_path)
        sep = tmp_path / "sep"
        assert main(["separate", "--input", str(mixture), "--algorithm", "gd",
                     "--max-iter", "0", "--out", str(sep)]) == 0
        x = np.atleast_2d(read_signal_csv(mixture))
        _, tr = center_and_whiten(x)
        assert np.array_equal(read_matrix_csv(sep / "demixer.csv"), tr.matrix)
        assert len((sep / "trace.csv").read_text().splitlines()) == 2

    @staticmethod
    def _twenty_sources(tmp_path):
        s = source_bank(tuple(bench._KIND_CYCLE[i % 4] for i in range(20)), 1000, 0)
        write_signal_csv(tmp_path / "x.csv", random_mixing_matrix(20, rng_for(0, 9)) @ s)
        return ["separate", "--input", str(tmp_path / "x.csv"), "--algorithm", "gd",
                "--ts", "10", "--out", str(tmp_path / "sep")]

    def test_first_step_stop_prints_a_warning_and_exits_zero(self, tmp_path, capsys):
        assert main(self._twenty_sources(tmp_path)) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: gd stopped at its first step")
        assert (tmp_path / "sep" / "demixer.csv").exists()

    def test_warning_filters_do_not_change_the_exit_code(self, tmp_path):
        # -W error would turn the warning into a traceback and exit 1
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "ccsica.cli",
                               *self._twenty_sources(tmp_path)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: gd stopped at its first step")

    def test_non_ccs_contrast_rejected(self, tmp_path):
        # separation always uses the ccs contrast; --divergence is a surface flag
        _, mixture, _ = _gen_and_mix(tmp_path)
        with pytest.raises(SystemExit) as stop:
            main(["separate", "--input", str(mixture), "--divergence", "kl",
                  "--out", str(tmp_path / "sep")])
        assert stop.value.code == 2
        assert not (tmp_path / "sep").exists()

    def test_jacobi_trace_csv_is_the_sweep_angle_mass(self, tmp_path):
        _, mixture, _ = _gen_and_mix(tmp_path)
        sep = tmp_path / "sep"
        assert main(["separate", "--input", str(mixture), "--ts", "4", "--out", str(sep)]) == 0
        res = separate(read_signal_csv(mixture), "jacobi", jacobi_cfg=JacobiConfig(stride=4))
        lines = (sep / "trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,value"
        assert [float(line.split(",")[1]) for line in lines[1:]] == res.trace.tolist()
        assert res.n_iter == len(res.trace) == len(lines) - 1
        assert np.array_equal(read_matrix_csv(sep / "cm.csv"), res.cm)


class TestExitCodes:
    def test_invalid_inputs_exit_two(self, tmp_path):
        assert main(["gen", "--kinds", "cauchy", "--out", str(tmp_path)]) == 2
        assert main(["bench", "t9", "--out", str(tmp_path)]) == 2

    def test_bad_gen_shape_exits_two(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["gen", "--kinds", "laplacian", "--tau2", "-1", "--out", str(out)]) == 2
        assert main(["gen", "--t", "0", "--out", str(out)]) == 2
        assert main(["gen", "--kinds", "uniform,cauchy", "--out", str(out)]) == 2
        assert not out.exists()

    def test_non_finite_alpha_exits_two(self, tmp_path):
        _, mixture, _ = _gen_and_mix(tmp_path)
        for alpha in ("nan", "inf"):
            assert main(["separate", "--input", str(mixture), "--alpha", alpha,
                         "--ts", "4", "--out", str(tmp_path / "sep")]) == 2

    def test_non_finite_gamma_exits_two(self, tmp_path):
        _, mixture, _ = _gen_and_mix(tmp_path)
        assert main(["separate", "--input", str(mixture), "--algorithm", "gd", "--gamma", "inf",
                     "--ts", "4", "--out", str(tmp_path / "sep")]) == 2

    @pytest.mark.parametrize("flag, value", [("--tau1", "inf"), ("--tau1", "1e308"),
                                             ("--tau2", "inf"), ("--tau2", "1e308")])
    def test_scale_beyond_float_range_exits_two(self, tmp_path, flag, value):
        # 2 tau1 is the uniform draw's width; tau2 1e308 draws inf samples
        out = tmp_path / "gen"
        assert main(["gen", "--kinds", "uniform,laplacian", flag, value, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["-inf", "nan"])
    def test_non_finite_snr_exits_two(self, tmp_path, snr):
        sources, _, _ = _gen_and_mix(tmp_path, t=50)
        assert main(["mix", "--inputs", ",".join(sources), f"--snr-db={snr}",
                     "--out", str(tmp_path / "noisy")]) == 2
        assert main(["bench", "fig7", "--scale", "0.1", f"--snr-db={snr}",
                     "--out", str(tmp_path / "bench")]) == 2

    def test_non_finite_clean_signal_with_snr_exits_two(self, tmp_path, capsys):
        sources, _, _ = _gen_and_mix(tmp_path, t=50)
        data = read_signal_csv(sources[0])
        data[..., 7] = np.nan
        write_signal_csv(tmp_path / "nan.csv", data)
        assert main(["mix", "--inputs", f"{tmp_path / 'nan.csv'},{sources[1]}", "--snr-db", "20",
                     "--out", str(tmp_path / "noisy")]) == 2
        assert "clean signal contains non-finite entries" in capsys.readouterr().err
        assert not (tmp_path / "noisy").exists()

    def test_overflowing_clean_signal_power_with_snr_exits_two(self, tmp_path, capsys):
        # finite entries of 1e200 whose mean square overflows
        sources, _, _ = _gen_and_mix(tmp_path, t=50)
        write_signal_csv(tmp_path / "big.csv", read_signal_csv(sources[0]) * 1e200)
        assert main(["mix", "--inputs", f"{tmp_path / 'big.csv'},{sources[1]}", "--snr-db", "20",
                     "--out", str(tmp_path / "noisy")]) == 2
        assert "clean signal power" in capsys.readouterr().err
        assert not (tmp_path / "noisy").exists()

    @pytest.mark.parametrize("frac", ["0", "nan", "-0.5", "1.5"])
    def test_eval_fraction_outside_unit_interval_exits_two(self, tmp_path, frac):
        assert main(["bench", "t5", "--scale", "0.1", f"--eval-fracs={frac}",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["t5", "--dims", "0", "--samples", "1000", "--eval-fracs", "1", "--scale", "0.01"],
        ["fig4", "--jobs", "-2"],
        ["fig4", "--jobs", "0"],
    ])
    def test_bad_bench_inputs_exit_two_before_any_trial(self, tmp_path, monkeypatch, argv):
        started = []
        monkeypatch.setattr(bench, "_execute", lambda tasks, jobs: started.append(jobs))
        assert main(["bench", *argv, "--out", str(tmp_path)]) == 2
        assert started == []

    @pytest.mark.parametrize("argv", [
        ["t4", "--dims", "2,3", "--samples", "1000", "--scale", "0.1"],
        ["t4", "--dims", "2", "--samples", "1", "--scale", "0.01"],
        ["t5", "--dims", "2", "--samples", "0", "--scale", "0.01"],
        ["t5", "--dims", "2", "--samples", "1000,1", "--scale", "0.01"],
        ["t5", "--dims", "2", "--samples", "5", "--eval-fracs", "0.1,0.2", "--scale", "0.01"],
    ])
    def test_bad_grids_exit_two_before_any_trial(self, tmp_path, monkeypatch, argv):
        # an unsupported t4 dimension, a sample count below 2, or a t5 grid
        # without a cell of 2 evaluation points is refused, with no CSV written
        trials = []
        monkeypatch.setattr(bench, "_run_table_trial", trials.append)
        out = tmp_path / "bench"
        assert main(["bench", *argv, "--out", str(out)]) == 2
        assert trials == []
        assert not out.exists()

    def test_missing_files_exit_four(self, tmp_path):
        missing = str(tmp_path / "nope.csv")
        assert main(["separate", "--input", missing, "--out", str(tmp_path)]) == 4
        assert main(["mix", "--inputs", missing, "--out", str(tmp_path)]) == 4

    @staticmethod
    def _failing_files(folder):
        # one file per way an input can fail, a good signal, and a folder of two WAVs
        x = np.random.default_rng(0).laplace(size=200)
        write_signal_csv(folder / "equal.csv", np.vstack([x, x]))
        write_signal_csv(folder / "good.csv", np.random.default_rng(1).laplace(size=(2, 200)))
        (folder / "header.csv").write_text("ch1,ch2\n")
        (folder / "cell.csv").write_text("ch1,ch2\n0.1,0.2\n0.3,abc\n")
        for name, channels, width in [("stereo.wav", 2, 2), ("8bit.wav", 1, 1)]:
            with wave.open(str(folder / name), "wb") as wf:
                wf.setnchannels(channels)
                wf.setsampwidth(width)
                wf.setframerate(8000)
                wf.writeframes(bytes(400))
        (folder / "bad.yaml").write_text("ts: [1\n")
        (folder / "list.yaml").write_text("- 1\n- 2\n")
        for k in range(2):
            write_wav(folder / "wavs" / f"s{k}.wav", np.random.default_rng(k).uniform(-0.5, 0.5, 400))

    @pytest.mark.parametrize("argv, code", [
        (["separate", "--input", "@equal.csv"], 3),
        (["separate", "--input", "@header.csv"], 4),
        (["separate", "--input", "@cell.csv"], 4),
        (["separate", "--input", "@stereo.wav"], 4),
        (["separate", "--input", "@8bit.wav"], 4),
        (["separate", "--input", "@good.csv", "--config", "@missing.yaml"], 4),
        (["separate", "--input", "@good.csv", "--config", "@bad.yaml"], 2),
        (["separate", "--input", "@good.csv", "--config", "@list.yaml"], 2),
        (["bench", "t4", "--dims", "a,b"], 2),
        (["separate", "--input", ","], 2),
        (["bench", "fig6", "--wav", "@wavs"], 2),
    ])
    def test_each_failure_exits_with_its_code_and_writes_nothing(self, tmp_path, capsys, argv, code):
        # an "@" argument names a file of _failing_files
        self._failing_files(tmp_path)
        out = tmp_path / "out"
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        assert main([*argv, "--out", str(out)]) == code
        prefix = {2: "error: invalid input: ", 3: "error: numerical failure: ", 4: "error: i/o failure: "}
        assert capsys.readouterr().err.startswith(prefix[code])
        assert not out.exists()


class TestSolverFlags:
    @pytest.mark.parametrize("argv, config", [
        (["--algorithm", "jacobi", "--gamma", "5"], None),
        (["--algorithm", "jacobi", "--max-iter", "3"], None),
        (["--algorithm", "jacobi", "--epsilon", "0.5"], None),
        (["--algorithm", "jacobi", "--sweeps", "7"], None),
        (["--algorithm", "gd", "--sweeps", "7"], None),
        ([], {"algorithm": "jacobi", "max-iter": 400}),
        (["--algorithm", "newton"], None),
    ])
    def test_unread_flag_exits_two_before_any_read(self, tmp_path, monkeypatch, argv, config):
        signal = tmp_path / "signal.csv"
        write_signal_csv(signal, np.random.default_rng(0).laplace(size=(2, 200)))
        if config is not None:
            (tmp_path / "run.yaml").write_text(yaml.safe_dump(config))
            argv = argv + ["--config", str(tmp_path / "run.yaml")]
        calls = []
        for name in ("separate", "_read_any_signal"):
            monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a))
        out = tmp_path / "sep"
        assert main(["separate", "--input", str(signal), *argv, "--out", str(out)]) == 2
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--alpha", "nan"], ["--algorithm", "pairwise-gd", "--sweeps", "0"],
                                      ["--algorithm", "gd", "--epsilon", "inf"]])
    def test_bad_solver_value_exits_two_before_whitening(self, tmp_path, monkeypatch, argv):
        signal = tmp_path / "signal.csv"
        write_signal_csv(signal, np.random.default_rng(0).laplace(size=(2, 200)))
        calls = []
        monkeypatch.setattr(optimizers, "center_and_whiten", lambda *a, **k: calls.append(a))
        out = tmp_path / "sep"
        assert main(["separate", "--input", str(signal), *argv, "--out", str(out)]) == 2
        assert calls == []
        assert not out.exists()

    def test_pairwise_gd_reads_every_solver_flag(self, tmp_path):
        _, mixture, _ = _gen_and_mix(tmp_path)
        sep = tmp_path / "sep"
        assert main(["separate", "--input", str(mixture), "--algorithm", "pairwise-gd",
                     "--alpha", "0.5", "--gamma", "0.4", "--ts", "4", "--max-iter", "6",
                     "--epsilon", "0", "--sweeps", "2", "--out", str(sep)]) == 0
        cfg = GdConfig(alpha=0.5, step_size=0.4, stride=4, max_iter=6, epsilon=0.0)
        res = separate(read_signal_csv(mixture), "pairwise-gd", gd_cfg=cfg, sweeps=2)
        assert np.array_equal(read_matrix_csv(sep / "demixer.csv"), res.demixer)

    def test_unread_flag_at_its_default_is_accepted(self, tmp_path):
        _, mixture, _ = _gen_and_mix(tmp_path)
        for d, extra in (("a", []), ("b", ["--gamma", "0.3"])):
            assert main(["separate", "--input", str(mixture), "--algorithm", "jacobi", "--ts", "4",
                         *extra, "--out", str(tmp_path / d)]) == 0
        assert (tmp_path / "a" / "demixer.csv").read_bytes() == \
               (tmp_path / "b" / "demixer.csv").read_bytes()


class TestConfigFile:
    def test_file_fills_unset_flags(self, tmp_path):
        _, mixture, _ = _gen_and_mix(tmp_path)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({"algorithm": "gd", "max-iter": 0, "ts": 4}))
        sep = tmp_path / "sep"
        assert main(["separate", "--input", str(mixture), "--config", str(cfg),
                     "--out", str(sep)]) == 0
        x = np.atleast_2d(read_signal_csv(mixture))
        _, tr = center_and_whiten(x)
        assert np.array_equal(read_matrix_csv(sep / "demixer.csv"), tr.matrix)

    def test_explicit_flags_beat_file(self, tmp_path):
        _, mixture, _ = _gen_and_mix(tmp_path)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({"algorithm": "gd", "max-iter": 0,
                                       "ts": 4, "epsilon": 0.0}))
        sep = tmp_path / "sep"
        assert main(["separate", "--input", str(mixture), "--config", str(cfg),
                     "--max-iter", "5", "--out", str(sep)]) == 0
        assert len((sep / "trace.csv").read_text().splitlines()) == 7

    def test_quoted_numbers_parse_like_flags(self, tmp_path):
        _, mixture, _ = _gen_and_mix(tmp_path)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({"algorithm": "gd", "max_iter": "0", "ts": "4",
                                       "epsilon": None}))
        sep = tmp_path / "sep"
        assert main(["separate", "--input", str(mixture), "--config", str(cfg),
                     "--out", str(sep)]) == 0
        assert len((sep / "trace.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("entry", [{"ts": 2.5}, {"max_iter": "five"}, {"format": "xyz"},
                                       {"algorithm": "newton"}, {"alpha": "steep"}])
    def test_bad_values_exit_two(self, tmp_path, entry):
        _, mixture, _ = _gen_and_mix(tmp_path)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump(entry))
        sep = tmp_path / "sep"
        assert main(["separate", "--input", str(mixture), "--config", str(cfg),
                     "--out", str(sep)]) == 2
        assert not sep.exists()

    def test_file_sets_defaulted_flags(self, tmp_path):
        cfg = tmp_path / "gen.yaml"
        cfg.write_text(yaml.safe_dump({"kinds": "laplacian", "format": "wav", "t": 64}))
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "src")]) == 0
        assert [p.name for p in (tmp_path / "src").iterdir()] == ["source_00_laplacian.wav"]

    def test_file_sets_mix_matrix(self, tmp_path):
        sources, _, _ = _gen_and_mix(tmp_path)
        write_matrix_csv(tmp_path / "a.csv", np.eye(2))
        cfg = tmp_path / "mix.yaml"
        cfg.write_text(yaml.safe_dump({"matrix": str(tmp_path / "a.csv")}))
        out = tmp_path / "fixed"
        assert main(["mix", "--inputs", ",".join(sources), "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert np.array_equal(read_matrix_csv(out / "mixing_matrix.csv"), np.eye(2))


# per subcommand: an argv with its required arguments, and every flag's built-in default
_BUILT_IN_DEFAULTS = {
    "gen": (["gen"], dict(seed=0, config=None, out="out", kinds="uniform,laplacian", t=1000,
                          tau1=3.0, tau2=1.0, format="csv")),
    "mix": (["mix", "--inputs", "s.csv"], dict(seed=0, config=None, out="out", matrix=None, snr_db=None)),
    "separate": (["separate", "--input", "x.csv"],
                 dict(config=None, out="out", algorithm="jacobi", alpha=-0.99999, gamma=0.3, ts=1, max_iter=250, epsilon=1e-4, sweeps=3,
                      format="csv")),
    "eval": (["eval", "--estimates", "y.csv", "--truth", "s.csv"],
             dict(config=None, out="out", demixer=None, mixing=None)),
    "bench": (["bench", "t1"], dict(seed=0, config=None, out="out", scale=1.0, jobs=1,
                                    algorithm="jacobi", dims=None, samples=None, eval_fracs=None,
                                    snr_db=None, wav=None, matrix=None)),
    "surface": (["surface"], dict(config=None, out="out", divergence="ccs", marg1="0.6,0.4",
                                  marg2=None, grid=64, alpha=-1.0, weight=0.5, beta=2.0)),
}


class TestDefaults:
    @pytest.mark.parametrize("command", sorted(_BUILT_IN_DEFAULTS))
    def test_built_in_defaults(self, monkeypatch, command):
        argv, expected = _BUILT_IN_DEFAULTS[command]
        seen = {}
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.update(vars(args)) or 0)
        assert main(argv) == 0
        got = {key: seen[key] for key in expected}
        assert got == expected
        assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in expected.items()}

    @pytest.mark.parametrize("command", sorted(_BUILT_IN_DEFAULTS))
    def test_help_shows_each_default(self, capsys, command):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        options = text[text.index("options:"):]
        entries = {seg.split()[0]: seg for seg in re.split(r" (?=--[a-z])", options)}
        for key, value in _BUILT_IN_DEFAULTS[command][1].items():
            if value is not None:
                assert f"(default {value})" in entries["--" + key.replace("_", "-")]

    @pytest.mark.parametrize("command", ["separate", "eval", "surface"])
    def test_seed_refused_where_nothing_draws(self, command):
        with pytest.raises(SystemExit) as stop:
            main(_BUILT_IN_DEFAULTS[command][0] + ["--seed", "0"])
        assert stop.value.code == 2

    @pytest.mark.parametrize("command", sorted(_BUILT_IN_DEFAULTS))
    def test_every_flag_is_read(self, command):
        # main reads --config before the command runs
        parser = cli._build_parser()[1][command]
        source = inspect.getsource(parser.get_default("func"))
        unread = [a.dest for a in parser._actions if a.option_strings and a.dest not in ("help", "config")
                  and not re.search(rf"\bargs\.{a.dest}\b", source)]
        assert unread == []


class TestSurface:
    def test_slice_holds_second_cell_fixed(self, tmp_path):
        out = tmp_path / "surf"
        assert main(["surface", "--divergence", "kl", "--marg1", "0.7,0.3",
                     "--marg2", "0.5,0.5", "--grid", "16", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "surface_kl.csv", delimiter=",", skiprows=1)
        assert rows.shape == (16, 3)
        assert np.allclose(rows[:, 1], 0.15)

    def test_full_surface_node_count(self, tmp_path):
        out = tmp_path / "surf"
        assert main(["surface", "--divergence", "e", "--grid", "8", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "surface_e.csv", delimiter=",", skiprows=1)
        assert rows.shape == (64, 3)

    def test_alpha_divergence_needs_alpha_other_than_one(self, tmp_path):
        # --alpha defaults to -1, where the alpha divergence is undefined
        out = tmp_path / "surf"
        assert main(["surface", "--divergence", "alpha", "--out", str(out)]) == 2
        assert not out.exists()
        assert main(["surface", "--divergence", "alpha", "--alpha", "0.5", "--grid", "8",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out / "surface_alpha.csv", delimiter=",", skiprows=1)
        assert rows.shape == (64, 3)

    @pytest.mark.parametrize("argv", [["--alpha", "nan"], ["--divergence", "beta", "--beta", "inf"]])
    def test_non_finite_parameter_exits_two(self, tmp_path, argv):
        # each wrote a CSV of NaN values and exited 0
        out = tmp_path / "s.csv"
        assert main(["surface", *argv, "--marg1", "0.6,0.4", "--marg2", "0.5,0.5", "--grid", "8",
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv, config", [
        (["--divergence", "kl", "--alpha", "0.5"], None),
        (["--divergence", "kl", "--beta", "7"], None),
        (["--divergence", "ccs", "--weight", "0.9"], None),
        ([], {"divergence": "kl", "alpha": 0.5}),
    ])
    def test_unread_parameter_exits_two(self, tmp_path, argv, config):
        # each wrote an 8-node CSV and exited 0
        if config is not None:
            (tmp_path / "run.yaml").write_text(yaml.safe_dump(config))
            argv = argv + ["--config", str(tmp_path / "run.yaml")]
        out = tmp_path / "s.csv"
        assert main(["surface", *argv, "--marg1", "0.6,0.4", "--marg2", "0.5,0.5", "--grid", "8",
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--divergence", "kl", "--alpha", "-1"],
                                      ["--divergence", "c", "--alpha", "0.5", "--weight", "0.3"]])
    def test_read_or_default_parameter_accepted(self, tmp_path, argv):
        out = tmp_path / "s.csv"
        assert main(["surface", *argv, "--marg1", "0.6,0.4", "--marg2", "0.5,0.5", "--grid", "8",
                     "--out", str(out)]) == 0
        assert np.loadtxt(out, delimiter=",", skiprows=1).shape == (8, 3)


class TestEval:
    def test_truth_against_itself_hits_cap(self, tmp_path):
        sources, _, _ = _gen_and_mix(tmp_path, t=200)
        assert main(["eval", "--estimates", ",".join(sources),
                     "--truth", ",".join(sources), "--out", str(tmp_path / "m")]) == 0
        rows = _read_metric_rows(tmp_path / "m" / "metrics.csv")
        assert rows[("sir_db", "0")] == 150.0
        assert rows[("sir_db", "1")] == 150.0


class TestBench:
    def test_t1_single_trial_grid(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench", "t1", "--scale", "0.01", "--out", str(out)]) == 0
        lines = (out / "bench_t1.csv").read_text().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("pair,trials,")
        for line in lines[1:]:
            assert int(line.split(",")[1]) == 1

    @pytest.mark.parametrize("argv", [
        ["t4", "--dims", "2.7", "--samples", "1000", "--scale", "0.01"],
        ["t4", "--dims", "2", "--samples", "1000.9", "--scale", "0.01"],
        ["t4", "--dims", "2,4", "--samples", "3", "--scale", "0.02"],
        ["t4", "--samples", "10", "--scale", "1"],
        ["t5", "--dims", "2,4", "--samples", "3", "--eval-fracs", "1", "--scale", "0.01"],
        ["t5", "--dims", "2.5", "--samples", "1000", "--eval-fracs", "1", "--scale", "0.01"],
        ["t5", "--dims", "2", "--samples", "1000.5", "--eval-fracs", "1", "--scale", "0.01"],
    ])
    def test_non_integer_or_short_grid_exits_two_before_any_trial(self, tmp_path, monkeypatch, argv):
        # not truncated to m = 2, T = 1000; t4's default grid at scale 1 reaches m = 20
        trials = []
        monkeypatch.setattr(bench, "_run_table_trial", trials.append)
        out = tmp_path / "bench.csv"
        assert main(["bench", *argv, "--out", str(out)]) == 2
        assert trials == []
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["t1", "--dims", "4", "--snr-db", "3", "--eval-fracs", "0.5"],
        ["t4", "--eval-fracs", "0.5"], ["t4", "--matrix", "MATRIX"], ["t5", "--snr-db", "3"],
        ["fig4", "--samples", "1000"], ["fig5", "--wav", "WAVS"], ["fig6", "--snr-db", "5"],
        ["fig6", "--dims", "3"], ["fig7", "--samples", "1000"],
        ["fig4", "--algorithm", "gd"], ["fig5", "--algorithm", "pairwise-gd"],
        ["fig4"], ["fig5"],  # the appended --scale 0.01: fig4/fig5 read no scale
    ])
    def test_option_the_table_does_not_read_exits_two_before_any_trial(self, tmp_path, monkeypatch, argv):
        write_matrix_csv(tmp_path / "a.csv", np.eye(3))
        wavs = tmp_path / "wavs"
        assert main(["gen", "--kinds", "uniform,laplacian,rayleigh", "--t", "64", "--format", "wav",
                     "--out", str(wavs)]) == 0
        trials = []
        monkeypatch.setattr(bench, "_run_table_trial", trials.append)
        argv = [{"MATRIX": str(tmp_path / "a.csv"), "WAVS": str(wavs)}.get(a, a) for a in argv]
        out = tmp_path / "bench.csv"
        assert main(["bench", *argv, "--scale", "0.01", "--out", str(out)]) == 2
        assert trials == []
        assert not out.exists()


class _Started(Exception):
    """Raised by a patched bench._execute: the table got past its refusals."""


class TestIdCase:
    # an id matches in any case with blanks trimmed, and a default file name uses the matched id

    def test_surface_file_uses_the_matched_id(self, tmp_path):
        out = tmp_path / "d"
        assert main(["surface", "--divergence", " KL ", "--grid", "8", "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["surface_kl.csv"]

    def test_bench_file_uses_the_matched_table(self, tmp_path):
        out = tmp_path / "b"
        assert main(["bench", " T1", "--scale", "0.01", "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["bench_t1.csv"]

    def test_gen_files_use_the_matched_kinds(self, tmp_path):
        for d, kinds in (("a", " Uniform,LAPLACIAN"), ("b", "uniform,laplacian")):
            assert main(["gen", "--kinds", kinds, "--t", "64", "--out", str(tmp_path / d)]) == 0
        names = ["source_00_uniform.csv", "source_01_laplacian.csv"]
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_separate_algorithm_from_flag_or_config(self, tmp_path):
        _, mixture, _ = _gen_and_mix(tmp_path)
        (tmp_path / "run.yaml").write_text(yaml.safe_dump({"algorithm": "GD"}))
        for d, argv in (("lower", ["--algorithm", "gd"]), ("flag", ["--algorithm", " GD"]),
                        ("config", ["--config", str(tmp_path / "run.yaml")])):
            assert main(["separate", "--input", str(mixture), *argv, "--max-iter", "5",
                         "--out", str(tmp_path / d)]) == 0
        for d in ("flag", "config"):
            assert (tmp_path / d / "demixer.csv").read_bytes() == \
                   (tmp_path / "lower" / "demixer.csv").read_bytes()

    @pytest.mark.parametrize("algorithm", ["JACOBI", " Jacobi "])
    def test_bench_default_algorithm_in_any_case(self, tmp_path, monkeypatch, algorithm):
        # fig4 reads no --algorithm, but the default jacobi is accepted however it is written
        def started(tasks, jobs):
            raise _Started

        monkeypatch.setattr(bench, "_execute", started)
        with pytest.raises(_Started):
            main(["bench", "fig4", "--algorithm", algorithm, "--out", str(tmp_path)])


class TestOutPath:
    @pytest.mark.parametrize("argv, module, name", [
        (["gen"], cli, "source_bank"),
        (["mix", "--inputs", "SIGNAL"], cli, "mix"),
        (["separate", "--input", "SIGNAL"], cli, "separate"),
        (["eval", "--estimates", "SIGNAL", "--truth", "SIGNAL"], cli, "sir_db"),
        (["bench", "t1"], bench, "_run_table_trial"),
        (["surface"], cli, "divergence_surface"),
    ])
    def test_out_under_a_file_exits_four_before_any_work(self, tmp_path, monkeypatch, argv, module, name):
        signal = tmp_path / "signal.csv"
        write_signal_csv(signal, np.random.default_rng(0).laplace(size=(2, 200)))
        calls = []
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a))
        argv = [str(signal) if a == "SIGNAL" else a for a in argv]
        assert main([*argv, "--out", str(signal / "sub")]) == 4
        assert calls == []

    @pytest.mark.parametrize("flag", ["--demixer", "--mixing"])
    def test_eval_matrix_without_its_partner_exits_two_before_any_read(self, tmp_path, monkeypatch, flag):
        # the Amari index needs both matrices; one alone is not dropped silently
        signal = tmp_path / "signal.csv"
        write_signal_csv(signal, np.random.default_rng(0).laplace(size=(2, 200)))
        write_matrix_csv(tmp_path / "a.csv", np.eye(2))
        calls = []
        for name in ("sir_db", "_read_any_signal", "read_matrix_csv"):
            monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a))
        out = tmp_path / "metrics"
        assert main(["eval", "--estimates", str(signal), "--truth", str(signal),
                     flag, str(tmp_path / "a.csv"), "--out", str(out)]) == 2
        assert calls == []
        assert not out.exists()

    def test_csv_out_in_a_missing_directory_is_written(self, tmp_path):
        out = tmp_path / "missing" / "t1.csv"
        assert main(["bench", "t1", "--scale", "0.01", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 6


class TestWavPipeline:
    def test_full_audio_round_trip(self, tmp_path):
        assert main(["gen", "--format", "wav", "--t", "400", "--seed", "1",
                     "--out", str(tmp_path / "src")]) == 0
        wavs = sorted(str(p) for p in (tmp_path / "src").glob("*.wav"))
        assert len(wavs) == 2
        rate, data = read_wav(wavs[0])
        assert rate == 8000 and data.shape == (400,)
        assert float(np.max(np.abs(data))) <= 0.9501
        assert main(["mix", "--inputs", ",".join(wavs),
                     "--out", str(tmp_path / "mix"), "--seed", "1"]) == 0
        sep = tmp_path / "sep"
        assert main(["separate", "--input", str(tmp_path / "mix" / "mixture.csv"),
                     "--ts", "4", "--format", "wav", "--out", str(sep)]) == 0
        estimates = sorted(str(p) for p in sep.glob("estimate_*.wav"))
        assert len(estimates) == 2
        assert main(["eval", "--estimates", ",".join(estimates),
                     "--truth", ",".join(wavs), "--out", str(tmp_path / "m")]) == 0

    def test_non_finite_samples_refused_before_the_file_opens(self, tmp_path):
        # NaN would be written as 0 and +-inf as full scale
        path = tmp_path / "sub" / "x.wav"
        with pytest.raises(InvalidInput, match=re.escape(str(path))):
            write_wav(path, [0.1, np.nan, np.inf, -np.inf])
        assert not path.parent.exists()

    @pytest.mark.parametrize("rate", [8000.7, True, 0])
    def test_rate_not_a_whole_number_refused_before_the_file_opens(self, tmp_path, rate):
        # a rate is a whole number >= 1, checked before any folder or file is made
        path = tmp_path / "sub" / "x.wav"
        with pytest.raises(InvalidInput, match="WAV sample rate must be an integer"):
            write_wav(path, [0.1, -0.2], rate)
        assert not path.parent.exists()

    def test_samples_outside_the_range_clipped_with_a_warning(self, tmp_path):
        with pytest.warns(UserWarning, match="clipped"):
            write_wav(tmp_path / "x.wav", [-3.0, -1.0, 0.5, 1.0, 2.0])
        top = 32767 / 32768
        assert np.array_equal(read_wav(tmp_path / "x.wav")[1], [-1.0, -1.0, 0.5, top, top])

    def test_whole_float_rate_written_as_its_integer(self, tmp_path):
        write_wav(tmp_path / "x.wav", [0.1, -0.2], 8000.0)
        assert read_wav(tmp_path / "x.wav")[0] == 8000

    @staticmethod
    def _wav_pair(folder, rates):
        # two mixed rows, one WAV each at its rate
        mixed = np.array([[0.6, 0.4], [0.3, 0.7]]) @ np.random.default_rng(3).uniform(-0.5, 0.5, (2, 400))
        paths = [folder / f"x{k}_{rate}.wav" for k, rate in enumerate(rates)]
        for path, row, rate in zip(paths, mixed, rates):
            write_wav(path, row, rate)
        return ",".join(str(p) for p in paths)

    def test_estimates_keep_the_input_rate(self, tmp_path):
        sep = tmp_path / "sep"
        assert main(["separate", "--input", self._wav_pair(tmp_path, (16000, 16000)),
                     "--ts", "4", "--format", "wav", "--out", str(sep)]) == 0
        estimates = sorted(sep.glob("estimate_*.wav"))
        assert len(estimates) == 2
        assert all(read_wav(p)[0] == 16000 for p in estimates)

    def test_csv_input_writes_8khz_estimates(self, tmp_path):
        signal = tmp_path / "signal.csv"
        write_signal_csv(signal, np.random.default_rng(0).laplace(size=(2, 200)))
        sep = tmp_path / "sep"
        assert main(["separate", "--input", str(signal), "--ts", "4", "--format", "wav",
                     "--out", str(sep)]) == 0
        estimates = sorted(sep.glob("estimate_*.wav"))
        assert len(estimates) == 2
        assert all(read_wav(p)[0] == 8000 for p in estimates)

    @pytest.mark.parametrize("command", ["separate", "mix", "eval"])
    def test_mixed_rates_exit_two_with_no_output(self, tmp_path, command):
        pair = self._wav_pair(tmp_path, (16000, 8000))
        out = tmp_path / "out"
        argv = {"separate": ["--input", pair], "mix": ["--inputs", pair],
                "eval": ["--estimates", pair, "--truth", pair]}[command]
        assert main([command, *argv, "--out", str(out)]) == 2
        assert not out.exists()

    def test_bench_wav_mixed_rates_exit_two_before_any_trial(self, tmp_path, monkeypatch):
        wavs = tmp_path / "wavs"
        rows = np.random.default_rng(4).uniform(-0.5, 0.5, (3, 400))
        for k, (row, rate) in enumerate(zip(rows, (8000, 8000, 16000))):
            write_wav(wavs / f"s{k}.wav", row, rate)
        calls = []
        monkeypatch.setattr(bench, "_execute", lambda *a, **k: calls.append(a))
        out = tmp_path / "bench.csv"
        assert main(["bench", "fig6", "--wav", str(wavs), "--scale", "0.1", "--out", str(out)]) == 2
        assert calls == []
        assert not out.exists()
