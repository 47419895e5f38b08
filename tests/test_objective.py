import numpy as np
import pytest

from ccsica import density, objective
from ccsica.density import default_bandwidth, gaussian_sums_1d
from ccsica.divergences import EPS_FLOOR, convex_f
from ccsica.errors import InvalidInput, SingularDemixer
from ccsica.objective import DET_FLOOR, CcsObjective
from ccsica.optimizers import rotation
from ccsica.sources import source_bank


def _standardized_pair(t=400, seed=3, kinds=("uniform", "laplacian")):
    s = source_bank(kinds, t, seed, tau1=3.0, tau2=1.0)
    return (s - s.mean(axis=1, keepdims=True)) / s.std(axis=1, keepdims=True)


class TestCcsObjective:
    def test_value_nonnegative_and_finite(self):
        z = _standardized_pair()
        obj = CcsObjective(z, alpha=-0.99999, stride=4)
        for w in (np.eye(2), rotation(0.2), np.array([[0.9, 0.3], [-0.2, 1.1]])):
            v = obj.value(w)
            assert np.isfinite(v) and v >= -1e-9

    def test_terms_recompose_value(self):
        z = _standardized_pair()
        obj = CcsObjective(z, alpha=-0.99999, stride=4)
        w = np.array([[0.9, 0.3], [-0.2, 1.1]])
        # the three sums rebuilt by hand from the cached joint density and the
        # per-row 1-D kernel sums
        y = w @ z
        norm = 1.0 / (obj.n_refs * obj.h * np.sqrt(2.0 * np.pi))
        q = np.prod([gaussian_sums_1d(row, row[::4], obj.h) * norm for row in y], axis=0)
        py = obj.base_density / abs(np.linalg.det(w))
        fj = convex_f(np.maximum(py, EPS_FLOOR), obj.alpha)
        fm = convex_f(np.maximum(q, EPS_FLOOR), obj.alpha)
        v_joint, v_marg, v_cross = fj @ fj, fm @ fm, fj @ fm
        assert v_joint > 0 and v_marg > 0 and v_cross > 0
        recomposed = np.log(v_joint) + np.log(v_marg) - 2.0 * np.log(v_cross)
        assert obj.value(w) == pytest.approx(recomposed, abs=1e-12)

    @pytest.mark.parametrize("alpha,stride,kinds", [
        pytest.param(-0.99999, 1, ("uniform", "laplacian"), id="-0.99999-1"),
        pytest.param(1.0, 1, ("uniform", "laplacian"), id="1.0-1"),
        pytest.param(0.5, 3, ("uniform", "laplacian"), id="0.5-3"),
        pytest.param(-0.99999, 1, ("uniform", "laplacian", "rayleigh"), id="m3"),
        pytest.param(0.5, 2, ("uniform", "laplacian", "rayleigh", "lognormal"), id="m4"),
    ])
    def test_gradient_matches_finite_differences(self, alpha, stride, kinds):
        m = len(kinds)
        z = _standardized_pair(t=200, seed=7, kinds=kinds)
        obj = CcsObjective(z, alpha=alpha, stride=stride)
        w = np.eye(m) + 0.2 * np.cos(np.arange(m * m).reshape(m, m))
        w[:2, :2] = [[0.9, 0.3], [-0.2, 1.1]]  # the whole demixer when m = 2
        grad = obj.value_and_gradient(w)[1]
        eps = 1e-6
        for i in range(m):
            for j in range(m):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += eps
                wm[i, j] -= eps
                fd = (obj.value(wp) - obj.value(wm)) / (2 * eps)
                assert grad[i, j] == pytest.approx(fd, rel=1e-3, abs=1e-8)

    def test_identity_near_optimal_on_independent_pair(self):
        # sweeping rotations over a standardized independent pair, the
        # unrotated frame should sit within a whisker of the sweep minimum
        z = _standardized_pair(t=4000, seed=3)
        obj = CcsObjective(z, alpha=-0.99999, stride=10)
        thetas = np.linspace(-np.pi / 4, np.pi / 4, 33)
        values = [obj.value(rotation(th)) for th in thetas]
        assert obj.value(rotation(0.0)) <= min(values) + 0.05

    def test_stride_consistency(self):
        z = _standardized_pair(t=400, seed=3)
        w = np.array([[0.9, 0.3], [-0.2, 1.1]])
        v1 = CcsObjective(z, alpha=-0.99999, stride=1).value(w)
        v2 = CcsObjective(z, alpha=-0.99999, stride=2).value(w)
        assert abs(v1 - v2) / abs(v1) <= 0.2

    def test_sign_flip_of_data(self):
        # the contrast only sees densities of Wx, so negating the data and
        # the demixer together leaves the value unchanged
        z = _standardized_pair(t=300, seed=5)
        w = np.array([[0.9, 0.3], [-0.2, 1.1]])
        obj_pos = CcsObjective(z, alpha=0.5, stride=2)
        obj_neg = CcsObjective(-z, alpha=0.5, stride=2)
        assert obj_pos.value(w) == pytest.approx(obj_neg.value(-w), abs=1e-12)

    def test_singular_demixer_rejected(self):
        z = _standardized_pair(t=200, seed=7)
        obj = CcsObjective(z, alpha=-0.99999, stride=2)
        with pytest.raises(SingularDemixer):
            obj.value(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert DET_FLOOR == 1e-12

    def test_non_integral_stride_rejected(self):
        z = _standardized_pair(t=200, seed=7)
        for stride in (2.5, 0, "3", True):
            with pytest.raises(InvalidInput):
                CcsObjective(z, alpha=0.5, stride=stride)

    def test_needs_two_eval_points(self):
        z = _standardized_pair(t=200, seed=7)
        with pytest.raises(InvalidInput):
            CcsObjective(z, alpha=0.5, stride=200)

    def test_wrong_demixer_shape_rejected(self):
        z = _standardized_pair(t=200, seed=7)
        obj = CcsObjective(z, alpha=0.5, stride=2)
        with pytest.raises(InvalidInput):
            obj.value(np.eye(3))

    def test_counts(self):
        z = _standardized_pair(t=200, seed=7)
        obj = CcsObjective(z, alpha=0.5, stride=3)
        assert obj.n_channels == 2
        assert obj.n_refs == 200
        assert obj.n_points == 67

    def test_rebuilt_objective_matches(self):
        z = _standardized_pair(t=200, seed=7)
        w = np.array([[0.9, 0.3], [-0.2, 1.1]])
        obj = CcsObjective(z, alpha=0.5, stride=2)
        assert CcsObjective(z, 0.5, stride=2).value(w) == obj.value(w)
        assert np.array_equal(CcsObjective(z, 0.5, stride=2).value_and_gradient(w)[1],
                              obj.value_and_gradient(w)[1])

    def test_rejects_bad_samples_and_bandwidth(self):
        with pytest.raises(InvalidInput):
            CcsObjective(np.zeros(8), alpha=0.5)
        with pytest.raises(InvalidInput):
            CcsObjective(np.zeros((2, 1)), alpha=0.5)
        with pytest.raises(InvalidInput):
            CcsObjective(np.array([[0.0, np.nan, 1.0], [1.0, 0.0, 2.0]]), alpha=0.5)
        z = _standardized_pair(t=50, seed=7)
        # an infinite bandwidth floors every density, and h^m overflows at 1e300;
        # at 1e100 h^m is finite but the largest density, 1/(2 pi h^2), is below
        # EPS_FLOOR
        for h in (0.0, -0.3, np.nan, np.inf, 1e300, 1e-200, 1e100):
            with pytest.raises(InvalidInput):
                CcsObjective(z, alpha=0.5, bandwidth=h)
        # 1/(2 pi h^2) = 1.6e-11 clears the floor: a flat contrast, not a floored one
        assert np.isfinite(CcsObjective(z, alpha=0.5, bandwidth=1e5).value(np.eye(2)))

    def test_rejects_non_finite_alpha(self):
        z = _standardized_pair(t=50, seed=7)
        for alpha in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInput):
                CcsObjective(z, alpha=alpha)

    def test_default_bandwidth_follows_reference_count(self):
        z = _standardized_pair(t=200, seed=7)
        assert CcsObjective(z, alpha=0.5, stride=7).h == default_bandwidth(200)
        assert CcsObjective(z, alpha=0.5, bandwidth=0.25).h == 0.25

    def test_rejects_bad_demixer(self):
        z = _standardized_pair(t=200, seed=7)
        obj = CcsObjective(z, alpha=0.5, stride=2)
        for w in (np.zeros((2, 3)), np.array([[1.0, np.inf], [0.0, 1.0]])):
            with pytest.raises(InvalidInput):
                obj.value(w)
            with pytest.raises(InvalidInput):
                obj.value_and_gradient(w)

    def test_value_and_gradient_consistent(self):
        z = _standardized_pair(t=200, seed=7)
        w = np.array([[0.9, 0.3], [-0.2, 1.1]])
        obj = CcsObjective(z, alpha=-0.99999, stride=2)
        v, g = obj.value_and_gradient(w)
        assert v == obj.value(w)
        assert np.array_equal(g, obj.value_and_gradient(w)[1])


class TestStackedValue:
    """`value` on a K x m x m stack: K values, each as the demixer alone."""

    @staticmethod
    def _obj(m, stride=3):
        kinds = ("uniform", "laplacian", "rayleigh")[:m]
        return CcsObjective(_standardized_pair(t=300, seed=5, kinds=kinds), alpha=-0.99999,
                            stride=stride)

    def test_rotation_grid_matches_single_calls(self):
        obj = self._obj(2, stride=1)
        ws = np.array([rotation(th) for th in np.arange(-16, 17) * (np.pi / 64.0)])
        values = obj.value(ws)
        assert values.shape == (33,)
        assert all(values[k] == obj.value(ws[k]) for k in range(33))

    @pytest.mark.parametrize("m", [2, 3])
    def test_general_stack_matches_single_calls(self, m):
        obj = self._obj(m)
        ws = np.eye(m) + 0.3 * np.random.default_rng(m).normal(size=(5, m, m))
        values = obj.value(ws)
        assert values.shape == (5,)
        assert all(values[k] == obj.value(ws[k]) for k in range(5))
        assert values[2] == obj.value_and_gradient(ws[2])[0]

    @pytest.mark.parametrize("m", [2, 3])
    def test_groups_match_single_calls(self, monkeypatch, m):
        # a budget of 5 m T terms evaluates the 33 grid rotations in groups
        # of five, one kernel-sum call of 5 m rows each, the last of three
        obj = self._obj(m)
        ws = np.tile(np.eye(m), (33, 1, 1))
        ws[:, :2, :2] = [rotation(th) for th in np.arange(-16, 17) * (np.pi / 64.0)]
        monkeypatch.setattr(density, "_CHUNK", 5 * m * obj.n_refs)
        calls = []

        def counting_sums(rows, *args, **kwargs):
            calls.append(len(rows))
            return gaussian_sums_1d(rows, *args, **kwargs)

        monkeypatch.setattr(objective, "gaussian_sums_1d", counting_sums)
        values = obj.value(ws)
        assert calls == [5 * m] * 6 + [3 * m]
        for k in range(33):
            assert values[k] == obj.value(ws[k]) == obj.value_and_gradient(ws[k])[0]

    def test_single_demixer_gives_float(self):
        obj = self._obj(2)
        assert type(obj.value(np.eye(2))) is float
        assert type(obj.value(np.eye(2).tolist())) is float
        assert obj.value(np.eye(2)[None]).shape == (1,)

    def test_bad_stacks_rejected_like_single_demixers(self):
        obj = self._obj(2)
        good = np.array([np.eye(2), rotation(0.3)])
        non_finite = good.copy()
        non_finite[1, 0, 1] = np.nan
        singular = good.copy()
        singular[1] = [[1.0, 1.0], [1.0, 1.0]]
        for w in (np.empty((0, 2, 2)), np.ones(4), np.ones((1, 1, 2, 2)), np.ones((2, 2, 3)),
                  non_finite, np.stack([np.eye(3)] * 2)):
            with pytest.raises(InvalidInput):
                obj.value(w)
        with pytest.raises(SingularDemixer):
            obj.value(singular)
        # the gradient takes one demixer only
        with pytest.raises(InvalidInput):
            obj.value_and_gradient(good)
