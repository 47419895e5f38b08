import numpy as np
import pytest
from hypothesis import given, strategies as st

from ccsica import metrics
from ccsica.errors import InvalidInput
from ccsica.metrics import (
    SIR_CAP_DB,
    align_sources,
    amari_index,
    kurtosis,
    sir_db,
)
from ccsica.sources import (
    SOURCE_KINDS,
    MixingModel,
    draw_source,
    mix,
    noise_sigma_for_snr,
    random_mixing_matrix,
    rng_for,
    source_bank,
)


class TestRngFor:
    def test_deterministic(self):
        a = rng_for(7, 1, 2).normal(size=5)
        b = rng_for(7, 1, 2).normal(size=5)
        assert np.array_equal(a, b)

    def test_key_sensitivity(self):
        a = rng_for(7, 1, 2).normal(size=5)
        b = rng_for(7, 2, 1).normal(size=5)
        c = rng_for(8, 1, 2).normal(size=5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_whole_numbers_of_any_sign_accepted(self):
        # the mask maps each entry to 64 bits, so -1 and 2**64 - 1 draw alike
        assert np.array_equal(rng_for(-1, 3.0).normal(size=3), rng_for((1 << 64) - 1, 3).normal(size=3))
        rng_for(np.int64(-5), 1 << 70)

    @pytest.mark.parametrize("seed, key", [(0.5, ()), ("7", ()), (7, (1.5,)), (7, (True,)), (None, ())])
    def test_other_seeds_and_keys_refused(self, seed, key):
        with pytest.raises(InvalidInput, match="seed and key"):
            rng_for(seed, *key)


class TestSources:
    def test_kind_registry(self):
        assert set(SOURCE_KINDS) == {"uniform", "laplacian", "rayleigh", "lognormal"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInput):
            draw_source("cauchy", 10, rng_for(0))

    def test_kind_matches_in_any_case_with_blanks_trimmed(self):
        assert np.array_equal(draw_source(" Uniform ", 10, rng_for(0)), draw_source("uniform", 10, rng_for(0)))

    def test_spec_validation(self):
        with pytest.raises(InvalidInput):
            draw_source("uniform", 1, rng_for(0))
        with pytest.raises(InvalidInput):
            draw_source("uniform", 0, rng_for(0))
        with pytest.raises(InvalidInput):
            draw_source("uniform", 10, rng_for(0), tau1=0.0)
        with pytest.raises(InvalidInput):
            draw_source("laplacian", 10, rng_for(0), tau2=-1.0)
        with pytest.raises(InvalidInput):
            draw_source("laplacian", 10, rng_for(0), tau2=float("nan"))
        # a scale is a real number, never a bool, text or None
        for scales in (dict(tau1=True), dict(tau1="3"), dict(tau2=None)):
            with pytest.raises(InvalidInput):
                draw_source("uniform", 10, rng_for(0), **scales)
        # a count is a whole number, never truncated or parsed from text
        for n in (2.5, "10"):
            with pytest.raises(InvalidInput):
                draw_source("uniform", n, rng_for(0))

    def test_sample_source_deterministic(self):
        a = draw_source("laplacian", 64, rng_for(4), tau2=2.0)
        assert np.array_equal(a, draw_source("laplacian", 64, rng_for(4), tau2=2.0))

    def test_uniform_respects_half_width(self):
        s = draw_source("uniform", 5000, rng_for(0), tau1=2.0)
        assert np.all(np.abs(s) <= 2.0)
        assert np.max(np.abs(s)) > 1.8

    def test_positive_kinds(self):
        for kind in ("rayleigh", "lognormal"):
            assert np.all(draw_source(kind, 2000, rng_for(1)) > 0.0)

    def test_bank_shape_and_row_independence(self):
        s = source_bank(("uniform", "laplacian", "uniform"), 500, seed=2)
        assert s.shape == (3, 500)
        # same kind on two rows must still get distinct child streams
        assert not np.array_equal(s[0], s[2])

    def test_bank_rejects_empty(self):
        with pytest.raises(InvalidInput):
            source_bank((), 100)
        for t_count in (2.5, "10"):
            with pytest.raises(InvalidInput):
                source_bank(("uniform", "laplacian"), t_count)


class TestKurtosis:
    def test_distribution_signatures(self):
        assert kurtosis(draw_source("uniform", 100_000, rng_for(0))) == pytest.approx(-1.2, abs=0.1)
        assert kurtosis(draw_source("laplacian", 100_000, rng_for(1))) == pytest.approx(3.0, abs=0.3)
        assert kurtosis(rng_for(2).standard_normal(100_000)) == pytest.approx(0.0, abs=0.1)

    def test_alternating_sign_is_exact(self):
        s = np.tile([1.0, -1.0], 8)
        assert kurtosis(s) == -2.0

    def test_rejections(self):
        with pytest.raises(InvalidInput):
            kurtosis([0.0, 0.0, 0.0])
        with pytest.raises(InvalidInput):
            kurtosis([1.0])
        with pytest.raises(InvalidInput):
            kurtosis([1.0, np.nan])


class TestMixing:
    def test_noiseless_identity_is_bitwise(self):
        s = source_bank(("uniform", "laplacian"), 300, seed=1)
        x = mix(s, MixingModel(np.eye(2)))
        assert np.array_equal(x, s)

    def test_matrix_applied(self):
        s = source_bank(("uniform", "laplacian"), 300, seed=1)
        a = np.array([[0.5, 0.3], [0.6, 0.4]])
        assert np.allclose(mix(s, MixingModel(a)), a @ s, atol=0.0)

    def test_rank_deficient_rejected(self):
        with pytest.raises(InvalidInput):
            MixingModel(np.ones((2, 2)))

    def test_noise_hits_requested_snr(self):
        s = source_bank(("uniform", "laplacian"), 200_000, seed=3)
        a = np.array([[0.5, 0.3], [0.6, 0.4]])
        clean = a @ s
        sigma = noise_sigma_for_snr(clean, 20.0)
        noisy = mix(s, MixingModel(a, noise_sigma=sigma), seed=3)
        noise = noisy - clean
        snr = 10.0 * np.log10(np.mean(clean**2) / np.mean(noise**2))
        assert snr == pytest.approx(20.0, abs=0.5)

    def test_noise_stream_keyed_by_seed(self):
        s = source_bank(("uniform", "laplacian"), 300, seed=1)
        model = MixingModel(np.eye(2), noise_sigma=0.1)
        assert np.array_equal(mix(s, model, seed=5), mix(s, model, seed=5))
        assert not np.array_equal(mix(s, model, seed=5), mix(s, model, seed=6))

    def test_random_matrix_contract(self):
        for k in range(5):
            a = random_mixing_matrix(4, rng_for(11, k))
            assert abs(np.linalg.det(a)) >= 0.01
            assert np.all(np.abs(a) < 1.0)

    @pytest.mark.parametrize("m", [1, 2.5, "10"])
    def test_random_matrix_refuses_a_bad_channel_count(self, m):
        with pytest.raises(InvalidInput):
            random_mixing_matrix(m, rng_for(0))

    def test_zero_power_rejected(self):
        with pytest.raises(InvalidInput):
            noise_sigma_for_snr(np.zeros((2, 10)), 20.0)

    def test_overflowing_power_named(self):
        # finite entries whose mean square overflows: the clean signal's power
        # is refused, not the inf noise scale it would give
        with pytest.raises(InvalidInput, match="clean signal power"):
            noise_sigma_for_snr(np.full((2, 10), 1e200), 20.0)

    @pytest.mark.parametrize("snr_db", [-np.inf, np.nan, -4000.0, "20", True])
    def test_snr_without_float_noise_scale_rejected(self, snr_db):
        with pytest.raises(InvalidInput):
            noise_sigma_for_snr(np.ones((2, 10)), snr_db)

    def test_overflowing_noise_scale_named(self):
        # a finite power times 10^300 overflows to inf without an OverflowError
        with pytest.raises(InvalidInput, match="SNR -3000.0 dB puts the noise scale outside the float range"):
            noise_sigma_for_snr(np.full((2, 10), 1e5), -3000.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1, True, "0.1"])
    def test_noise_sigma_must_be_finite_and_nonnegative(self, sigma):
        with pytest.raises(InvalidInput):
            MixingModel(np.eye(2), noise_sigma=sigma)


class TestAmariIndex:
    def test_exact_inverse_is_zero(self, rng):
        a = random_mixing_matrix(3, rng)
        assert amari_index(np.linalg.inv(a), a) <= 1e-12

    def test_scaled_permuted_inverse_is_zero(self, rng):
        a = random_mixing_matrix(3, rng)
        d = np.diag([2.0, -0.5, 3.0])
        p = np.eye(3)[[2, 0, 1]]
        assert amari_index(d @ p @ np.linalg.inv(a), a) <= 1e-12

    def test_closed_form_value(self):
        assert amari_index(np.array([[1.0, 0.1], [0.1, 1.0]]), np.eye(2)) == pytest.approx(0.1, abs=1e-15)

    def test_worst_case_is_one(self):
        assert amari_index(np.ones((3, 3)) - 2e-16, np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(InvalidInput):
            amari_index(np.array([[0.0, 0.0], [1.0, 1.0]]), np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            amari_index(np.eye(2), np.eye(3))

    @given(st.integers(0, 10**6))
    def test_invariance_under_permutation_sign_and_scale(self, seed):
        # per-channel scaling is only guaranteed not to move the index off
        # zero; away from zero the invariances are permutation, sign, scale
        g = np.random.default_rng(seed)
        a = random_mixing_matrix(3, g)
        w = random_mixing_matrix(3, g)
        d = float(g.uniform(0.5, 2.0)) * np.diag(g.choice([-1.0, 1.0], 3))
        p = np.eye(3)[g.permutation(3)]
        assert abs(amari_index(d @ p @ w, a) - amari_index(w, a)) <= 1e-12


class TestAlignment:
    def test_permutation_and_gain_recovered(self):
        s = source_bank(("uniform", "laplacian"), 500, seed=9)
        y = np.vstack([3.0 * s[1], -0.5 * s[0]])
        aligned, perm, gains = align_sources(y, s)
        assert list(perm) == [1, 0]
        assert gains == pytest.approx([-2.0, 1.0 / 3.0], rel=1e-12)
        assert np.allclose(aligned, s, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            align_sources(np.zeros((2, 10)), np.zeros((3, 10)))

    def test_ties_are_within_the_tolerance_of_the_largest_unclaimed(self, monkeypatch):
        # (2, 1) is within 1e-12 of the largest unclaimed correlation, (2, 2), so it
        # ties with it and wins on the lower source index; a scan that ties each
        # entry with the best seen so far passes over it and takes (2, 2)
        e = 1e-12
        corr = np.array([[0.5 + 0.6 * e, 0.5 + 1.2 * e, 0.1],
                         [0.5 + 0.6 * e, 0.1, 0.5],
                         [0.5 + 0.6 * e, 0.5 + 0.6 * e, 0.5 + 1.2 * e]])
        monkeypatch.setattr(metrics, "_abs_correlations", lambda y, s: corr)
        s = source_bank(("uniform", "laplacian", "rayleigh"), 50, seed=1)
        _, perm, _ = align_sources(s, s)
        assert perm.tolist() == [0, 2, 1]


class TestSir:
    def test_exact_recovery_hits_cap(self):
        s = source_bank(("uniform", "laplacian"), 400, seed=9)
        assert np.array_equal(sir_db(s, s), [SIR_CAP_DB, SIR_CAP_DB])
        assert np.array_equal(sir_db(2.0 * s, s), [SIR_CAP_DB, SIR_CAP_DB])

    def test_orthogonal_interference_closed_form(self):
        s0 = np.tile([1.0, 1.0, -1.0, -1.0], 2)
        u = np.tile([1.0, -1.0], 4)
        estimates = np.vstack([s0 + 0.1 * u, u])
        values = sir_db(estimates, np.vstack([s0, u]))
        # least-squares gain against s0 leaves (1 + eps^2) / eps^2 as the ratio
        assert values[0] == pytest.approx(10.0 * np.log10(101.0), rel=1e-12)
        assert values[1] == SIR_CAP_DB

    def test_invariant_to_permutation_and_sign(self):
        s = source_bank(("uniform", "laplacian", "rayleigh"), 600, seed=12)
        y = s + 0.05 * rng_for(12, 9).standard_normal(s.shape)
        base = sir_db(y, s)
        shuffled = sir_db(np.vstack([-y[2], y[0], -y[1]]), s)
        assert np.allclose(shuffled, base, atol=1e-9)
