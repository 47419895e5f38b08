import numpy as np
import pytest
import yaml

from ccsica.cli import main
from ccsica.fileio import read_matrix_csv, read_signal_csv, read_wav, write_matrix_csv
from ccsica.metrics import kurtosis
from ccsica.preprocess import remove_mean, whiten


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
        assert main(["separate", "--input", str(mixture), "--algorithm", algorithm,
                     "--ts", "4", "--max-iter", "40", "--out", str(sep)]) == 0
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
        _, tr = whiten(remove_mean(x)[0])
        assert np.array_equal(read_matrix_csv(sep / "demixer.csv"), tr.matrix)
        assert len((sep / "trace.csv").read_text().splitlines()) == 2

    def test_non_ccs_contrast_rejected(self, tmp_path):
        _, mixture, _ = _gen_and_mix(tmp_path)
        assert main(["separate", "--input", str(mixture), "--divergence", "kl",
                     "--out", str(tmp_path / "sep")]) == 2


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

    @pytest.mark.parametrize("frac", ["0", "nan", "-0.5", "1.5"])
    def test_eval_fraction_outside_unit_interval_exits_two(self, tmp_path, frac):
        assert main(["bench", "t5", "--scale", "0.1", f"--eval-fracs={frac}",
                     "--out", str(tmp_path)]) == 2

    def test_missing_files_exit_four(self, tmp_path):
        missing = str(tmp_path / "nope.csv")
        assert main(["separate", "--input", missing, "--out", str(tmp_path)]) == 4
        assert main(["mix", "--inputs", missing, "--out", str(tmp_path)]) == 4


class TestConfigFile:
    def test_file_fills_unset_flags(self, tmp_path):
        _, mixture, _ = _gen_and_mix(tmp_path)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({"algorithm": "gd", "max-iter": 0, "ts": 4}))
        sep = tmp_path / "sep"
        assert main(["separate", "--input", str(mixture), "--config", str(cfg),
                     "--out", str(sep)]) == 0
        x = np.atleast_2d(read_signal_csv(mixture))
        _, tr = whiten(remove_mean(x)[0])
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
