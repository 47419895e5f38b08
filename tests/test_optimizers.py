import numpy as np
import pytest

from ccsica.bench import _KIND_CYCLE, _T1_PAIRS, DEMO_MATRIX_2, _sources_for
from ccsica.errors import InvalidInput
from ccsica.metrics import amari_index
from ccsica.objective import CcsObjective
from ccsica.optimizers import (
    ALGORITHMS,
    GdConfig,
    JacobiConfig,
    _angle_grid,
    _best_angle,
    compose_demixer,
    ica_gradient_descent,
    ica_pairwise_gd,
    ica_pairwise_jacobi,
    rotation,
    separate,
)
from ccsica.preprocess import center_and_whiten, whiten, remove_mean
from ccsica.sources import MixingModel, mix, random_mixing_matrix, rng_for, source_bank


def _pair(t, seed, tau2=1.0):
    return source_bank(("uniform", "laplacian"), t, seed, tau1=3.0, tau2=tau2)


class TestConfigs:
    def test_gd_rejections(self):
        # an infinite step would turn the first update into NaN
        for step in (0.0, np.inf, np.nan):
            with pytest.raises(InvalidInput):
                GdConfig(step_size=step)
        with pytest.raises(InvalidInput):
            GdConfig(epsilon=-1e-9)
        with pytest.raises(InvalidInput):
            GdConfig(max_iter=-1)
        with pytest.raises(InvalidInput):
            GdConfig(stride=0)

    @pytest.mark.parametrize("field, value", [("stride", 2.5), ("max_iter", 2.5), ("stride", "2"),
                                              ("max_iter", True)])
    def test_gd_non_integral_counts_rejected(self, field, value):
        with pytest.raises(InvalidInput):
            GdConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("stride", 2.5), ("max_sweeps", 1.5), ("max_sweeps", np.nan)])
    def test_jacobi_non_integral_counts_rejected(self, field, value):
        with pytest.raises(InvalidInput):
            JacobiConfig(**{field: value})

    def test_integral_floats_become_ints(self):
        cfg = GdConfig(stride=2.0, max_iter=np.int64(7))
        assert (cfg.stride, cfg.max_iter) == (2, 7) and type(cfg.stride) is int
        assert JacobiConfig(max_sweeps=3.0).max_sweeps == 3

    def test_gd_boundary_values_accepted(self):
        # epsilon 0 runs fixed-iteration schedules, max_iter 0 returns the
        # whitening-only solution; both are part of the contract
        GdConfig(epsilon=0.0)
        GdConfig(max_iter=0)

    def test_jacobi_rejections(self):
        with pytest.raises(InvalidInput):
            JacobiConfig(angle_step=0.0)
        with pytest.raises(InvalidInput):
            JacobiConfig(angle_step=np.pi / 4 + 0.01)
        with pytest.raises(InvalidInput):
            JacobiConfig(cm_stop_deg=-1.0)
        with pytest.raises(InvalidInput):
            JacobiConfig(max_sweeps=0)


class TestRotation:
    def test_closed_form(self):
        r = rotation(np.pi / 4)
        c = np.sqrt(0.5)
        assert np.allclose(r, [[c, c], [-c, c]], atol=1e-15)

    def test_inverse(self):
        th = 0.31
        assert np.allclose(rotation(th) @ rotation(-th), np.eye(2), atol=1e-14)

    def test_range_guard(self):
        with pytest.raises(InvalidInput):
            rotation(np.pi / 4 + 0.01)


class TestCompose:
    def test_identity_sides(self):
        x = _pair(300, 1)
        _, tr = whiten(remove_mean(x)[0])
        assert np.array_equal(compose_demixer(np.eye(2), tr), tr.matrix)

    def test_shape_mismatch(self):
        x = _pair(300, 1)
        _, tr = whiten(remove_mean(x)[0])
        with pytest.raises(InvalidInput):
            compose_demixer(np.eye(3), tr)


class TestGradientDescent:
    def test_identity_mixing_recovers_sources(self):
        x = _pair(1000, 3)
        res = ica_gradient_descent(x, GdConfig(stride=10, max_iter=120))
        assert amari_index(res.demixer, np.eye(2)) < 0.1

    def test_trace_descends_with_zero_epsilon(self):
        x = DEMO_MATRIX_2 @ _pair(600, 5)
        res = ica_gradient_descent(x, GdConfig(stride=6, max_iter=60, epsilon=0.0))
        trace = np.asarray(res.trace)
        assert len(trace) == 61
        assert res.n_iter == 60
        assert np.all(np.isfinite(trace))
        assert trace[-1] < trace[0]
        increases = int(np.sum(np.diff(trace) > 0))
        assert increases <= 6

    def test_zero_iterations_returns_whitening(self):
        x = DEMO_MATRIX_2 @ _pair(400, 2)
        res = ica_gradient_descent(x, GdConfig(stride=4, max_iter=0))
        assert np.array_equal(res.demixer, res.whitening.matrix)
        assert np.array_equal(res.algo_matrix, np.eye(2))
        assert len(res.trace) == 1

    def test_algo_rows_unit_norm(self):
        x = DEMO_MATRIX_2 @ _pair(600, 5)
        res = ica_gradient_descent(x, GdConfig(stride=6, max_iter=60))
        assert np.allclose(np.linalg.norm(res.algo_matrix, axis=1), 1.0, atol=1e-12)

    def test_estimate_applies_demixer_to_centered_data(self):
        x = DEMO_MATRIX_2 @ _pair(400, 2) + 3.0
        res = ica_gradient_descent(x, GdConfig(stride=4, max_iter=20))
        want = res.demixer @ (x - x.mean(axis=1, keepdims=True))
        assert np.allclose(res.estimate(x), want, atol=1e-12)


class TestPairwiseGd:
    def test_two_channel_single_sweep_matches_gd(self):
        x = DEMO_MATRIX_2 @ _pair(600, 5)
        cfg = GdConfig(stride=6, max_iter=60)
        lhs = ica_pairwise_gd(x, cfg, sweeps=1)
        rhs = ica_gradient_descent(x, cfg)
        assert np.array_equal(lhs.demixer, rhs.demixer)
        assert np.array_equal(lhs.trace, rhs.trace)

    def test_sweeps_validated(self):
        x = _pair(300, 1)
        with pytest.raises(InvalidInput):
            ica_pairwise_gd(x, GdConfig(stride=3, max_iter=10), sweeps=0)
        with pytest.raises(InvalidInput):
            ica_pairwise_gd(x, GdConfig(stride=3, max_iter=10), sweeps=1.5)

    def test_channel_permutation_invariance(self):
        s = source_bank(("uniform", "laplacian", "rayleigh"), 800, 13)
        a = random_mixing_matrix(3, rng_for(13, 1))
        cfg = GdConfig(stride=8, max_iter=40)
        perm = [2, 0, 1]
        base = ica_pairwise_gd(a @ s, cfg, sweeps=2)
        permuted = ica_pairwise_gd(a[perm] @ s, cfg, sweeps=2)
        err0 = amari_index(base.demixer, a)
        err1 = amari_index(permuted.demixer, a[perm])
        assert abs(err0 - err1) <= 1e-6


class TestJacobi:
    def test_already_independent_stops_after_one_sweep(self):
        x = _pair(4000, 0, tau2=0.5)
        res = ica_pairwise_jacobi(x, JacobiConfig(stride=10))
        assert res.cm_sweep_totals == [0.0]
        assert np.array_equal(res.algo_matrix, np.eye(2))
        assert np.array_equal(res.demixer, res.whitening.matrix)
        assert np.array_equal(res.cm, np.zeros((2, 2)))

    def test_known_rotation_recovered(self):
        s = _pair(4000, 0)
        z = (s - s.mean(axis=1, keepdims=True)) / s.std(axis=1, keepdims=True)
        x = rotation(np.pi / 8) @ z
        res = ica_pairwise_jacobi(x, JacobiConfig(stride=10))
        gain = res.demixer @ rotation(np.pi / 8)
        # a clean separation leaves one dominant entry per row; the residual
        # angle is how far the small entry tilts the row off its axis
        mags = np.sort(np.abs(gain), axis=1)
        residual = float(np.max(np.arctan(mags[:, 0] / mags[:, 1])))
        assert residual <= np.pi / 64

    def test_algo_matrix_orthogonal(self):
        x = DEMO_MATRIX_2 @ _pair(1500, 3)
        res = ica_pairwise_jacobi(x, JacobiConfig(stride=5))
        assert np.allclose(res.algo_matrix @ res.algo_matrix.T, np.eye(2), atol=1e-8)

    def test_cm_bounded_and_symmetric(self):
        s = source_bank(("uniform", "laplacian", "rayleigh"), 1200, 7)
        a = random_mixing_matrix(3, rng_for(7, 1))
        res = ica_pairwise_jacobi(a @ s, JacobiConfig(stride=6))
        assert np.array_equal(res.cm, res.cm.T)
        assert np.all(np.diag(res.cm) == 0.0)
        assert np.all(np.abs(res.cm) <= 45.0 + 1e-9)

    def test_sweep_totals_shrink_when_converged(self):
        s = source_bank(("uniform", "laplacian", "rayleigh"), 1200, 7)
        a = random_mixing_matrix(3, rng_for(7, 1))
        res = ica_pairwise_jacobi(a @ s, JacobiConfig(stride=6))
        totals = res.cm_sweep_totals
        assert totals[-1] <= 1.0
        if len(totals) >= 2:
            assert totals[-1] <= totals[-2]

    def test_one_stacked_value_call_per_pair_visit(self, monkeypatch):
        # each visit hands the whole angle grid to a single `value` call
        real_value, stacks = CcsObjective.value, []

        def recording_value(obj, w):
            stacks.append(np.array(w))
            return real_value(obj, w)

        monkeypatch.setattr(CcsObjective, "value", recording_value)
        x = DEMO_MATRIX_2 @ _pair(400, 3)
        ica_pairwise_jacobi(x, JacobiConfig(stride=4, max_sweeps=1))
        assert len(stacks) == 1
        grid = np.arange(-16, 17) * (np.pi / 64.0)
        assert np.array_equal(stacks[0], np.array([rotation(th) for th in grid]))

    @staticmethod
    def _record_picks(monkeypatch, step=np.pi / 64.0):
        """Record the angle each `value` call on the grid of `step` picks."""
        real_value, picks, thetas = CcsObjective.value, [], _angle_grid(step)

        def recording_value(obj, w):
            values = real_value(obj, w)
            picks.append(float(thetas[_best_angle(values, thetas)]))
            return values

        monkeypatch.setattr(CcsObjective, "value", recording_value)
        return picks

    def test_unmoved_pair_settled_without_a_visit(self, monkeypatch):
        # at m = 2 the one pair's plane cannot move between its visits, so the
        # confirmation visit after a nonzero pick is settled without a call
        picks = self._record_picks(monkeypatch)
        res = ica_pairwise_jacobi(DEMO_MATRIX_2 @ _pair(400, 3), JacobiConfig(stride=4))
        assert len(picks) == 1 and picks[0] != 0.0
        assert res.n_iter == 2
        assert res.cm_sweep_totals == [abs(np.degrees(picks[0])), 0.0]
        assert np.array_equal(res.cm, np.zeros((2, 2)))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kinds", _T1_PAIRS)
    def test_confirmation_visit_picks_zero(self, kinds, seed):
        # what the settling relies on: over a full-period grid, the visit on
        # rows rotated by the last pick picks angle 0
        x = random_mixing_matrix(2, rng_for(seed, 1)) @ source_bank(kinds, 1000, seed)
        z, _ = center_and_whiten(x)
        thetas = np.arange(-16, 17) * (np.pi / 64.0)
        rotations = np.array([rotation(th) for th in thetas])
        k = _best_angle(CcsObjective(z, -0.99999, stride=10).value(rotations), thetas)
        assert thetas[k] != 0.0
        confirm = CcsObjective(rotations[k] @ z, -0.99999, stride=10)
        assert thetas[_best_angle(confirm.value(rotations), thetas)] == 0.0

    def test_partial_period_grid_keeps_the_confirmation_visit(self, monkeypatch):
        # a step of 0.1 gives a grid of +-0.7, not a full period, so nothing
        # forces the second visit's pick and it is made
        picks = self._record_picks(monkeypatch, 0.1)
        res = ica_pairwise_jacobi(DEMO_MATRIX_2 @ _pair(400, 3), JacobiConfig(stride=4, angle_step=0.1))
        assert len(picks) == 2 and picks[0] != 0.0
        assert res.cm_sweep_totals == [abs(np.degrees(picks[0])), abs(np.degrees(picks[1]))]

    def test_pair_whose_row_moved_is_visited_again(self, monkeypatch):
        # sweep 1 rotates every pair, so pair (0, 1) has had row 0 rotated by
        # pair (0, 2) before its second visit, which must then be made
        picks = self._record_picks(monkeypatch)
        s = source_bank(("uniform", "laplacian", "rayleigh"), 1200, 7)
        res = ica_pairwise_jacobi(random_mixing_matrix(3, rng_for(7, 1)) @ s, JacobiConfig(stride=6))
        assert all(p != 0.0 for p in picks[:3])
        assert len(picks) >= 4 and res.cm_sweep_totals[1] > 0.0

    def test_cycling_sweeps_stop(self):
        # bench t4 --scale 0.2 --seed 0, m = 4, T = 1000, trial 2: from sweep 4
        # pairs (1, 2) and (2, 3) pick -2.8125 and +2.8125 degrees in turn
        m, t, trial = 4, 1000, 2
        rng = rng_for(0, 4, m, t, trial)
        kinds = tuple(_KIND_CYCLE[i % 4] for i in range(m))
        s = _sources_for(kinds, t, rng)
        a = random_mixing_matrix(m, rng)
        x = mix(s, MixingModel(a), seed=int(rng.integers(1 << 31)))
        cfg = JacobiConfig(stride=10)
        res = ica_pairwise_jacobi(x, cfg)
        assert res.n_iter < cfg.max_sweeps
        assert res.cm_sweep_totals[-1] > cfg.cm_stop_deg


class TestBestAngle:
    def test_picks_minimum(self):
        thetas = np.array([-0.2, -0.1, 0.0, 0.1, 0.2])
        values = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
        assert thetas[_best_angle(values, thetas)] == -0.1

    def test_all_equal_prefers_zero(self):
        thetas = np.array([-0.2, -0.1, 0.0, 0.1, 0.2])
        values = np.ones(5)
        assert thetas[_best_angle(values, thetas)] == 0.0

    def test_symmetric_tie_prefers_negative(self):
        thetas = np.array([-0.2, -0.1, 0.0, 0.1, 0.2])
        values = np.array([3.0, 1.0, 2.0, 1.0, 4.0])
        assert thetas[_best_angle(values, thetas)] == -0.1


class TestDispatcher:
    def test_ids(self):
        assert ALGORITHMS == ("gd", "pairwise-gd", "jacobi")

    def test_unknown_rejected(self):
        with pytest.raises(InvalidInput):
            separate(_pair(300, 1), "fastica")

    def test_alias_accepted(self):
        x = _pair(300, 1)
        cfg = GdConfig(stride=3, max_iter=5)
        lhs = separate(x, "pairwise_gd", gd_cfg=cfg, sweeps=1)
        rhs = separate(x, "pairwise-gd", gd_cfg=cfg, sweeps=1)
        assert np.array_equal(lhs.demixer, rhs.demixer)
