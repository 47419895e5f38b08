import functools
import warnings
from contextlib import nullcontext

import numpy as np
import pytest

from ccsica import bench, optimizers
from ccsica.bench import _KIND_CYCLE, _T1_PAIRS, DEMO_MATRIX_2, _trial_input
from ccsica.errors import InvalidInput
from ccsica.metrics import amari_index
from ccsica.objective import CcsObjective
from ccsica.optimizers import (
    ALGORITHMS,
    CM_STOP_DEG,
    GdConfig,
    JACOBI_ROTATIONS,
    JACOBI_THETAS,
    JacobiConfig,
    SeparationResult,
    _best_angle,
    _pairwise_gd,
    _rotate_pair,
    _SOLVERS,
    rotation,
    separate,
)
from ccsica.preprocess import center_and_whiten
from ccsica.sources import random_mixing_matrix, rng_for, source_bank


def _pair(t, seed, tau2=1.0):
    return source_bank(("uniform", "laplacian"), t, seed, tau1=3.0, tau2=tau2)


def _first_step_warning(algorithm="gd"):
    """Expects gd's first-step RuntimeWarning, which these small two-source inputs raise; no
    warning for the other algorithms."""
    return pytest.warns(RuntimeWarning, match="first step") if algorithm == "gd" else nullcontext()


def _reads(algorithm, gd_cfg, jacobi_cfg, sweeps):
    """Of one config of each kind and a sweep count, what separate's algorithm reads."""
    if algorithm == "jacobi":
        return dict(jacobi_cfg=jacobi_cfg)
    return dict(gd_cfg=gd_cfg, sweeps=sweeps if algorithm == "pairwise-gd" else None)


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
        for th in (np.pi / 4 + 0.01, np.nan, "0.1", True):
            with pytest.raises(InvalidInput):
                rotation(th)


class TestRotatePair:
    @pytest.mark.parametrize("i, j", [(0, 1), (1, 3), (0, 4), (4, 2)])
    def test_two_rows_updated_in_place(self, i, j):
        g = np.random.default_rng(i + 5 * j)
        w, demixed, r = g.normal(size=(5, 5)), g.normal(size=(5, 40)), rotation(g.uniform(-0.7, 0.7))
        patch = np.eye(5)
        patch[np.ix_([i, j], [i, j])] = r
        w_new, d_new = w.copy(), demixed.copy()
        assert _rotate_pair(w_new, d_new, i, j, r) is None
        others = [k for k in range(5) if k not in (i, j)]
        for new, old in ((w_new, w), (d_new, demixed)):
            assert np.array_equal(new[others], old[others])
            assert np.abs(new - patch @ old).max() <= 1e-15 * np.abs(patch @ old).max()


class TestCompose:
    def test_identity_sides(self):
        x = _pair(300, 1)
        _, tr = center_and_whiten(x)
        assert np.array_equal(SeparationResult(np.eye(2), tr, np.empty(0), 0).demixer, tr.matrix)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_demixer_is_algo_matrix_times_whitening(self, algorithm):
        x = DEMO_MATRIX_2 @ _pair(400, 2)
        with _first_step_warning(algorithm):
            res = separate(x, algorithm, **_reads(algorithm, GdConfig(stride=4, max_iter=20),
                                                  JacobiConfig(stride=4), 1))
        assert np.array_equal(res.demixer, res.algo_matrix @ res.whitening.matrix)


class TestGradientDescent:
    def test_identity_mixing_recovers_sources(self):
        x = _pair(1000, 3)
        with _first_step_warning():
            res = separate(x, "gd", gd_cfg=GdConfig(stride=10, max_iter=120))
        assert amari_index(res.demixer, np.eye(2)) < 0.1

    def test_trace_descends_with_zero_epsilon(self):
        x = DEMO_MATRIX_2 @ _pair(600, 5)
        res = separate(x, "gd", gd_cfg=GdConfig(stride=6, max_iter=60, epsilon=0.0))
        trace = np.asarray(res.trace)
        assert len(trace) == 61
        assert res.n_iter == 60
        assert np.all(np.isfinite(trace))
        assert trace[-1] < trace[0]
        increases = int(np.sum(np.diff(trace) > 0))
        assert increases <= 6

    def test_zero_iterations_returns_whitening(self):
        x = DEMO_MATRIX_2 @ _pair(400, 2)
        res = separate(x, "gd", gd_cfg=GdConfig(stride=4, max_iter=0))
        assert np.array_equal(res.demixer, res.whitening.matrix)
        assert np.array_equal(res.algo_matrix, np.eye(2))
        assert len(res.trace) == 1

    def test_algo_rows_unit_norm(self):
        x = DEMO_MATRIX_2 @ _pair(600, 5)
        res = separate(x, "gd", gd_cfg=GdConfig(stride=6, max_iter=60))
        assert np.allclose(np.linalg.norm(res.algo_matrix, axis=1), 1.0, atol=1e-12)

    def test_estimate_applies_demixer_to_centered_data(self):
        x = DEMO_MATRIX_2 @ _pair(400, 2) + 3.0
        with _first_step_warning():
            res = separate(x, "gd", gd_cfg=GdConfig(stride=4, max_iter=20))
        want = res.demixer @ (x - x.mean(axis=1, keepdims=True))
        assert np.allclose(res.estimate(x), want, atol=1e-12)


    def test_first_step_stop_warns_at_twenty_sources(self):
        # full-matrix gd at m = 20 stops at its first step, at Amari x 100
        # 29.67 as whitening alone; the warning leaves the result as it was
        s = source_bank(tuple(_KIND_CYCLE[i % 4] for i in range(20)), 1000, 0)
        x = random_mixing_matrix(20, rng_for(0, 9)) @ s
        cfg = GdConfig(stride=10)
        with pytest.warns(RuntimeWarning, match=r"gd stopped at its first step: the contrast moved by "
                                                r"9\.93e-06, at most epsilon 0\.0001"):
            res = separate(x, "gd", gd_cfg=cfg)
        assert res.n_iter == 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = separate(x, "gd", gd_cfg=cfg)
        assert np.array_equal(res.demixer, quiet.demixer)
        assert np.array_equal(res.trace, quiet.trace)

    def test_no_first_step_warning_on_the_fig4_input(self):
        x = DEMO_MATRIX_2 @ source_bank(("uniform", "laplacian"), 1000, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert separate(x, "gd", gd_cfg=GdConfig(max_iter=5)).n_iter == 5
            assert [row[3] for row in bench.bench_fig4(max_iter=5)[1]] == [5] * 4


class TestPairwiseGd:
    def test_two_channel_single_sweep_matches_gd(self):
        x = DEMO_MATRIX_2 @ _pair(600, 5)
        cfg = GdConfig(stride=6, max_iter=60)
        lhs = separate(x, "pairwise-gd", gd_cfg=cfg, sweeps=1)
        rhs = separate(x, "gd", gd_cfg=cfg)
        assert np.array_equal(lhs.demixer, rhs.demixer)
        assert np.array_equal(lhs.trace, rhs.trace)

    def test_sweeps_validated(self):
        x = _pair(300, 1)
        with pytest.raises(InvalidInput):
            separate(x, "pairwise-gd", gd_cfg=GdConfig(stride=3, max_iter=10), sweeps=0)
        with pytest.raises(InvalidInput):
            separate(x, "pairwise-gd", gd_cfg=GdConfig(stride=3, max_iter=10), sweeps=1.5)

    def test_channel_permutation_invariance(self):
        s = source_bank(("uniform", "laplacian", "rayleigh"), 800, 13)
        a = random_mixing_matrix(3, rng_for(13, 1))
        cfg = GdConfig(stride=8, max_iter=40)
        perm = [2, 0, 1]
        base = separate(a @ s, "pairwise-gd", gd_cfg=cfg, sweeps=2)
        permuted = separate(a[perm] @ s, "pairwise-gd", gd_cfg=cfg, sweeps=2)
        err0 = amari_index(base.demixer, a)
        err1 = amari_index(permuted.demixer, a[perm])
        assert abs(err0 - err1) <= 1e-6


class TestJacobi:
    def test_already_independent_stops_after_one_sweep(self):
        x = _pair(4000, 0, tau2=0.5)
        res = separate(x, "jacobi", jacobi_cfg=JacobiConfig(stride=10))
        assert res.trace.tolist() == [0.0] and res.n_iter == 1
        assert np.array_equal(res.algo_matrix, np.eye(2))
        assert np.array_equal(res.demixer, res.whitening.matrix)
        assert np.array_equal(res.cm, np.zeros((2, 2)))

    def test_known_rotation_recovered(self):
        s = _pair(4000, 0)
        z = (s - s.mean(axis=1, keepdims=True)) / s.std(axis=1, keepdims=True)
        x = rotation(np.pi / 8) @ z
        res = separate(x, "jacobi", jacobi_cfg=JacobiConfig(stride=10))
        gain = res.demixer @ rotation(np.pi / 8)
        # a clean separation leaves one dominant entry per row; the residual
        # angle is how far the small entry tilts the row off its axis
        mags = np.sort(np.abs(gain), axis=1)
        residual = float(np.max(np.arctan(mags[:, 0] / mags[:, 1])))
        assert residual <= np.pi / 64

    def test_algo_matrix_orthogonal(self):
        x = DEMO_MATRIX_2 @ _pair(1500, 3)
        res = separate(x, "jacobi", jacobi_cfg=JacobiConfig(stride=5))
        assert np.allclose(res.algo_matrix @ res.algo_matrix.T, np.eye(2), atol=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eight_sources_beat_whitening(self, seed):
        # the pairwise scheme's high-dimensional case: Amari x 100 read 4.95,
        # 5.52 and 4.30 for seeds 0-2, against 33.4, 34.4 and 32.0 whitened
        s = source_bank(tuple(_KIND_CYCLE[i % 4] for i in range(8)), 1000, seed)
        a = random_mixing_matrix(8, rng_for(seed, 9))
        res = separate(a @ s, "jacobi", jacobi_cfg=JacobiConfig(stride=10))
        amari = 100 * amari_index(res.demixer, a)
        assert amari <= 8.0
        assert amari < 100 * amari_index(res.whitening.matrix, a) / 4

    def test_cm_bounded_and_symmetric(self):
        s = source_bank(("uniform", "laplacian", "rayleigh"), 1200, 7)
        a = random_mixing_matrix(3, rng_for(7, 1))
        res = separate(a @ s, "jacobi", jacobi_cfg=JacobiConfig(stride=6))
        assert np.array_equal(res.cm, res.cm.T)
        assert np.all(np.diag(res.cm) == 0.0)
        assert np.all(np.abs(res.cm) <= 45.0 + 1e-9)

    def test_sweep_totals_shrink_when_converged(self):
        s = source_bank(("uniform", "laplacian", "rayleigh"), 1200, 7)
        a = random_mixing_matrix(3, rng_for(7, 1))
        res = separate(a @ s, "jacobi", jacobi_cfg=JacobiConfig(stride=6))
        totals = res.trace
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
        separate(x, "jacobi", jacobi_cfg=JacobiConfig(stride=4, max_sweeps=1))
        assert len(stacks) == 1
        grid = np.arange(-16, 16) * (np.pi / 64.0)
        assert np.array_equal(stacks[0], np.array([rotation(th) for th in grid]))

    def test_angle_grid_drops_plus_quarter_pi_on_a_full_period(self):
        # the grid is one period, [-pi/4, pi/4): +pi/4 repeats -pi/4
        assert len(JACOBI_THETAS) == 32 and JACOBI_THETAS[0] == -np.pi / 4
        assert JACOBI_THETAS[-1] < np.pi / 4

    @staticmethod
    def _record_picks(monkeypatch):
        """Record the angle each `value` call on the grid picks."""
        real_value, picks = CcsObjective.value, []

        def recording_value(obj, w):
            values = real_value(obj, w)
            picks.append(float(JACOBI_THETAS[_best_angle(values)]))
            return values

        monkeypatch.setattr(CcsObjective, "value", recording_value)
        return picks

    def test_unmoved_pair_settled_without_a_visit(self, monkeypatch):
        # at m = 2 the one pair's plane cannot move between its visits, so the
        # confirmation visit after a nonzero pick is settled without a call
        picks = self._record_picks(monkeypatch)
        res = separate(DEMO_MATRIX_2 @ _pair(400, 3), "jacobi", jacobi_cfg=JacobiConfig(stride=4))
        assert len(picks) == 1 and picks[0] != 0.0
        assert res.n_iter == 2
        assert res.trace.tolist() == [abs(np.degrees(picks[0])), 0.0]
        assert np.array_equal(res.cm, np.zeros((2, 2)))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kinds", _T1_PAIRS)
    def test_confirmation_visit_picks_zero(self, kinds, seed):
        # what the settling relies on: over a full-period grid, the visit on
        # rows rotated by the last pick picks angle 0
        x = random_mixing_matrix(2, rng_for(seed, 1)) @ source_bank(kinds, 1000, seed)
        z, _ = center_and_whiten(x)
        k = _best_angle(CcsObjective(z, -0.99999, stride=10).value(JACOBI_ROTATIONS))
        assert JACOBI_THETAS[k] != 0.0
        confirm = CcsObjective(JACOBI_ROTATIONS[k] @ z, -0.99999, stride=10)
        assert JACOBI_THETAS[_best_angle(confirm.value(JACOBI_ROTATIONS))] == 0.0

    def test_pair_whose_row_moved_is_visited_again(self, monkeypatch):
        # sweep 1 rotates every pair, so pair (0, 1) has had row 0 rotated by
        # pair (0, 2) before its second visit, which must then be made
        picks = self._record_picks(monkeypatch)
        s = source_bank(("uniform", "laplacian", "rayleigh"), 1200, 7)
        res = separate(random_mixing_matrix(3, rng_for(7, 1)) @ s, "jacobi",
                       jacobi_cfg=JacobiConfig(stride=6))
        assert all(p != 0.0 for p in picks[:3])
        assert len(picks) >= 4 and res.trace[1] > 0.0

    def test_cycling_sweeps_stop(self):
        # bench t4 --scale 0.2 --seed 0, m = 4, T = 1000, trial 2: from sweep 4
        # pairs (1, 2) and (2, 3) pick -2.8125 and +2.8125 degrees in turn
        m, t, trial = 4, 1000, 2
        kinds = tuple(_KIND_CYCLE[i % 4] for i in range(m))
        x, _, _ = _trial_input(dict(seed=0, key=(4, m, t, trial), t=t, kinds=kinds))
        cfg = JacobiConfig(stride=10)
        res = separate(x, "jacobi", jacobi_cfg=cfg)
        assert res.n_iter < cfg.max_sweeps
        assert res.trace[-1] > CM_STOP_DEG
        assert res.n_iter == len(res.trace)


_FLIP = np.diag([1.0, -1.0])
# a transform of a mixture, and the matching transform of its mixing matrix
_TRANSFORMS = {
    "none": (lambda x: x, lambda a: a),
    "shift": (lambda x: x + 5.0, lambda a: a),
    "swap": (lambda x: x[::-1], lambda a: a[::-1]),
    "negate": (lambda x: _FLIP @ x, lambda a: _FLIP @ a),
}
_T1_SOLVERS = {"jacobi": dict(jacobi_cfg=JacobiConfig(stride=10)),
               "gd": dict(gd_cfg=GdConfig(max_iter=60, stride=10))}


@functools.lru_cache(maxsize=None)
def _t1_separations(algorithm, transform):
    """(algo_matrix, Amari index against the transformed mixing matrix) of each transformed
    t1 input: trial 0 of the five pairs at seeds 0-2."""
    tx, ta = _TRANSFORMS[transform]
    out = []
    for seed in range(3):
        for j, pair in enumerate(_T1_PAIRS):
            x, _, a = _trial_input(dict(seed=seed, key=(1, j, 0), kinds=pair, t=1000))
            res = separate(tx(x), algorithm, **_T1_SOLVERS[algorithm])
            out.append((res.algo_matrix, amari_index(res.demixer, ta(a))))
    return out


class TestInvariance:
    # whitening removes the mean and orders its rows by variance, with a fixed sign rule
    @pytest.mark.parametrize("transform", ["shift", "swap"])
    def test_jacobi_matrix_unchanged_by_a_shift_or_a_channel_swap(self, transform):
        for (before, _), (after, _) in zip(_t1_separations("jacobi", "none"),
                                           _t1_separations("jacobi", transform)):
            assert np.array_equal(after, before)

    # a negated channel changes Jacobi's matrix on 14 of the 15 inputs, not the separation;
    # two of gd's inputs stop at the first step and warn, which is not what this test checks
    @pytest.mark.filterwarnings("ignore:gd stopped at its first step:RuntimeWarning")
    @pytest.mark.parametrize("algorithm", ["jacobi", "gd"])
    @pytest.mark.parametrize("transform", ["shift", "swap", "negate"])
    def test_amari_index_unchanged(self, algorithm, transform):
        for (_, before), (_, after) in zip(_t1_separations(algorithm, "none"),
                                           _t1_separations(algorithm, transform)):
            assert abs(after - before) <= 1e-12


class TestBestAngle:
    # index 16 of the grid is angle 0; indices 15 and 17 are -pi/64 and +pi/64
    def test_picks_minimum(self):
        values = np.full(32, 3.0)
        values[[15, 16, 17]] = [1.0, 2.0, 5.0]
        assert JACOBI_THETAS[_best_angle(values)] == -np.pi / 64

    def test_all_equal_prefers_zero(self):
        assert JACOBI_THETAS[_best_angle(np.ones(32))] == 0.0

    def test_symmetric_tie_prefers_negative(self):
        values = np.full(32, 3.0)
        values[[15, 16, 17]] = [1.0, 2.0, 1.0]
        assert JACOBI_THETAS[_best_angle(values)] == -np.pi / 64


class TestDispatcher:
    def test_ids(self):
        assert ALGORITHMS == ("gd", "pairwise-gd", "jacobi")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_core_returns_the_result_fields(self, algorithm):
        # n_iter counts gradient steps (len(trace) - 1 for gd, summed over the three
        # pair traces of one pairwise-gd sweep) or Jacobi sweeps; cm is Jacobi's alone
        s = source_bank(("uniform", "laplacian", "rayleigh"), 600, 2)
        x = random_mixing_matrix(3, rng_for(2, 1)) @ s
        z, _ = center_and_whiten(x)
        core, _ = _SOLVERS[algorithm]
        read = _reads(algorithm, GdConfig(stride=6, max_iter=20), JacobiConfig(stride=6), 1)
        kwargs = {k: v for k, v in read.items() if v is not None}
        w_algo, trace, n_iter, cm = core(z, **kwargs)
        res = separate(x, algorithm, **kwargs)
        assert np.array_equal(res.algo_matrix, w_algo) and np.array_equal(res.trace, trace)
        assert res.n_iter == n_iter
        assert n_iter == {"gd": len(trace) - 1, "pairwise-gd": len(trace) - 3, "jacobi": len(trace)}[algorithm]
        assert (cm is None) == (algorithm != "jacobi")

    def test_unknown_rejected(self):
        with pytest.raises(InvalidInput):
            separate(_pair(300, 1), "fastica")

    def test_unknown_rejected_before_whitening(self, monkeypatch):
        calls = []
        real = optimizers.center_and_whiten
        monkeypatch.setattr(optimizers, "center_and_whiten", lambda x: calls.append(1) or real(x))
        with pytest.raises(InvalidInput):
            separate(_pair(300, 1), "fastica")
        assert calls == []
        for algorithm in ALGORITHMS:
            with _first_step_warning(algorithm):
                separate(_pair(300, 1), algorithm, **_reads(algorithm, GdConfig(stride=3, max_iter=2),
                                                            JacobiConfig(stride=3), 1))
        assert calls == [1] * len(ALGORITHMS)

    @pytest.mark.parametrize("algorithm, unread", [
        ("gd", dict(jacobi_cfg=JacobiConfig())), ("pairwise-gd", dict(jacobi_cfg=JacobiConfig())),
        ("jacobi", dict(gd_cfg=GdConfig())), ("gd", dict(sweeps=3)), ("jacobi", dict(sweeps=3)),
    ])
    def test_unread_argument_rejected_before_whitening(self, monkeypatch, algorithm, unread):
        calls = []
        monkeypatch.setattr(optimizers, "center_and_whiten", lambda x: calls.append(1))
        with pytest.raises(InvalidInput, match="does not read"):
            separate(_pair(300, 1), algorithm, **unread)
        assert calls == []

    def test_bad_values_rejected_before_whitening(self, monkeypatch):
        calls = []
        monkeypatch.setattr(optimizers, "center_and_whiten", lambda x: calls.append(1))
        for make in (lambda: GdConfig(alpha=float("nan")), lambda: JacobiConfig(alpha=float("inf")),
                     lambda: separate(_pair(300, 1), "pairwise-gd", sweeps=0),
                     # text, bools and None are refused, not parsed or raised as TypeError
                     lambda: GdConfig(alpha="0.5"), lambda: JacobiConfig(alpha=None),
                     lambda: GdConfig(step_size="0.3"), lambda: GdConfig(epsilon="0"),
                     lambda: GdConfig(alpha=True), lambda: GdConfig(epsilon=float("inf"))):
            with pytest.raises(InvalidInput):
                make()
        assert calls == []

    def test_alias_accepted(self):
        # the CLI's spelling dispatches to _pairwise_gd; the underscore one is gone
        x = _pair(300, 1)
        cfg = GdConfig(stride=3, max_iter=5)
        lhs = separate(x, "pairwise-gd", gd_cfg=cfg, sweeps=1)
        z, tr = center_and_whiten(x)
        w_algo, trace, n_iter, _ = _pairwise_gd(z, cfg, 1)
        assert np.array_equal(lhs.demixer, w_algo @ tr.matrix)
        assert np.array_equal(lhs.trace, trace) and lhs.n_iter == n_iter
        with pytest.raises(InvalidInput):
            separate(x, "pairwise_gd", gd_cfg=cfg, sweeps=1)
