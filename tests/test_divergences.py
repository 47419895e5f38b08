import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import binary_marginals, interior_tables
from ccsica.divergences import (
    DIVERGENCE_IDS,
    DiscreteBivariate,
    alpha_div,
    beta_div,
    c_div,
    ccs_div,
    convex_f,
    convex_f_prime,
    cs_div,
    divergence_slice,
    divergence_surface,
    e_div,
    js_div,
    kl_div,
    make_divergence,
    second_differences,
)
from ccsica.errors import InvalidInput

ALPHA_GRID = (-1.0, -0.99999, -0.5, 0.0, 0.3, 0.5, 0.99999, 1.0)


def _every_divergence(d):
    yield ccs_div(d, -1.0)
    yield ccs_div(d, 1.0)
    yield ccs_div(d, 0.5)
    yield cs_div(d)
    yield kl_div(d)
    yield e_div(d)
    yield alpha_div(d, 0.5)
    yield js_div(d)
    yield c_div(d, 0.5)
    yield beta_div(d, 2.0)


class TestConvexFunction:
    def test_root_at_one(self):
        for a in ALPHA_GRID:
            assert convex_f(1.0, a) == pytest.approx(0.0, abs=1e-12)

    def test_limit_branch_values(self):
        assert convex_f(2.0, 1.0) == pytest.approx(2.0 * np.log(2.0) - 1.0, rel=1e-14)
        assert convex_f(0.5, -1.0) == pytest.approx(-0.5 - np.log(0.5), rel=1e-14)
        assert convex_f(0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_prime_closed_forms(self):
        assert convex_f_prime(2.0, -1.0) == pytest.approx(0.5, rel=1e-14)
        for a in ALPHA_GRID:
            assert convex_f_prime(1.0, a) == pytest.approx(0.0, abs=1e-12)

    def test_prime_matches_finite_differences(self):
        # near-limit curvatures are excluded: their 4 / (1 - alpha^2) prefactor
        # amplifies rounding noise past what central differences can resolve
        ts = np.linspace(0.01, 10.0, 23)
        h = 1e-6
        for a in (-1.0, -0.5, 0.0, 0.3, 0.5, 1.0):
            fd = (convex_f(ts + h, a) - convex_f(ts - h, a)) / (2.0 * h)
            assert np.allclose(convex_f_prime(ts, a), fd, rtol=1e-5, atol=1e-7)

    def test_alpha_continuity_at_limits(self):
        ts = np.linspace(0.05, 5.0, 17)
        for sign in (1.0, -1.0):
            near = convex_f(ts, sign * (1.0 - 1e-6) if sign > 0 else -(1.0 - 1e-6))
            exact = convex_f(ts, sign)
            assert np.max(np.abs(near - exact)) < 1e-4

    def test_nonnegative_and_convex_in_t(self):
        ts = np.linspace(0.0, 4.0, 81)
        for a in ALPHA_GRID:
            vals = convex_f(ts, a)
            assert np.all(vals >= -1e-12)
            assert np.all(second_differences(vals) >= -1e-9)

    def test_negative_argument_rejected(self):
        with pytest.raises(InvalidInput):
            convex_f(-0.1, 0.5)
        with pytest.raises(InvalidInput):
            convex_f_prime(0.0, 0.5)

    def test_non_finite_alpha_rejected(self):
        # a NaN or infinite alpha made every value NaN
        # text, bools and None are refused too, not parsed
        for a in (np.nan, np.inf, -np.inf, "0.5", True, None):
            with pytest.raises(InvalidInput, match="alpha must be finite"):
                convex_f(0.5, a)
            with pytest.raises(InvalidInput, match="alpha must be finite"):
                convex_f_prime(0.5, a)


class TestDiscreteBivariate:
    def test_from_joint_marginals(self):
        d = DiscreteBivariate.from_joint([[0.1, 0.2], [0.3, 0.4]])
        assert np.allclose(d.marg1, [0.3, 0.7])
        assert np.allclose(d.marg2, [0.4, 0.6])
        assert np.allclose(d.product_cells(), np.outer([0.3, 0.7], [0.4, 0.6]))

    def test_from_joint_rejects_bad_tables(self):
        with pytest.raises(InvalidInput):
            DiscreteBivariate.from_joint([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(InvalidInput):
            DiscreteBivariate.from_joint([[-0.1, 0.4], [0.3, 0.4]])
        with pytest.raises(InvalidInput):
            DiscreteBivariate.from_joint([[0.25, 0.25], [0.25, np.nan]])

    def test_independent_table(self):
        d = DiscreteBivariate.independent([0.7, 0.3], [0.5, 0.5])
        assert np.allclose(d.joint, d.product_cells(), atol=1e-15)

    def test_from_free_cells_layout(self):
        d = DiscreteBivariate.from_free_cells([0.6, 0.4], 0.2, 0.1)
        assert np.allclose(d.joint, [[0.2, 0.4], [0.1, 0.3]])

    def test_slice_point_passes_through_independence(self):
        m1, m2 = [0.7, 0.3], [0.5, 0.5]
        d = DiscreteBivariate.from_free_cells(m1, 0.35, m1[1] * m2[0])
        assert np.allclose(d.joint, np.outer(m1, m2), atol=1e-15)


class TestDivergenceValues:
    @given(binary_marginals(), binary_marginals())
    def test_independence_implies_zero(self, m1, m2):
        d = DiscreteBivariate.independent(m1, m2)
        for value in _every_divergence(d):
            assert abs(value) < 1e-10

    @given(interior_tables())
    def test_nonnegativity(self, cells):
        d = DiscreteBivariate.from_joint(cells.reshape(2, 2))
        for value in _every_divergence(d):
            assert value >= -1e-12

    @given(interior_tables())
    def test_ccs_transpose_symmetry(self, cells):
        d = DiscreteBivariate.from_joint(cells.reshape(2, 2))
        dt = DiscreteBivariate.from_joint(cells.reshape(2, 2).T)
        for a in (-1.0, 1.0, 0.5):
            assert abs(ccs_div(d, a) - ccs_div(dt, a)) <= 1e-14

    @given(interior_tables())
    def test_angle_identities(self, cells):
        # each log ratio is -2 log cos of the angle between its two cell vectors
        def angle(u, v):
            return np.arccos(np.clip(u @ v / np.sqrt((u @ u) * (v @ v)), -1.0, 1.0))

        d = DiscreteBivariate.from_joint(cells.reshape(2, 2))
        j, p = d.joint.ravel(), d.product_cells().ravel()
        assert cs_div(d) == pytest.approx(-2.0 * np.log(np.cos(angle(j, p))), abs=1e-10)
        for a in (-1.0, 1.0):
            theta = angle(convex_f(j, a), convex_f(p, a))
            assert ccs_div(d, a) == pytest.approx(-2.0 * np.log(np.cos(theta)), abs=1e-10)

    @given(interior_tables())
    def test_cauchy_schwarz_certificate(self, cells):
        d = DiscreteBivariate.from_joint(cells.reshape(2, 2))
        j, p = d.joint.ravel(), d.product_cells().ravel()
        assert (j @ p) ** 2 <= (j @ j) * (p @ p) + 1e-18

    @given(interior_tables())
    def test_kl_direct_formula(self, cells):
        d = DiscreteBivariate.from_joint(cells.reshape(2, 2))
        j, p = d.joint.ravel(), d.product_cells().ravel()
        assert kl_div(d) == pytest.approx(float(np.sum(j * np.log(j / p))), abs=1e-12)

    @given(interior_tables())
    def test_e_direct_formula(self, cells):
        d = DiscreteBivariate.from_joint(cells.reshape(2, 2))
        j, p = d.joint.ravel(), d.product_cells().ravel()
        assert e_div(d) == pytest.approx(float(np.sum((j - p) ** 2)), abs=1e-15)

    @given(interior_tables())
    def test_f_div_reduces_to_alpha_div(self, cells):
        # the Csiszar f-sum, sum(joint * f(product / joint)), at f = convex_f
        d = DiscreteBivariate.from_joint(cells.reshape(2, 2))
        j, p = d.joint.ravel(), d.product_cells().ravel()
        for a in (-0.5, 0.0, 0.5):
            assert float(np.sum(j * convex_f(p / j, a))) == pytest.approx(alpha_div(d, a), abs=1e-12)

    @given(interior_tables())
    def test_f_div_log_kernel_is_kl(self, cells):
        d = DiscreteBivariate.from_joint(cells.reshape(2, 2))
        j, p = d.joint.ravel(), d.product_cells().ravel()
        assert float(np.sum(j * -np.log(p / j))) == pytest.approx(kl_div(d), abs=1e-12)

    @given(interior_tables())
    def test_c_div_at_alpha_one_is_js(self, cells):
        d = DiscreteBivariate.from_joint(cells.reshape(2, 2))
        for w in (0.25, 0.5, 0.75):
            assert c_div(d, 1.0, w) == pytest.approx(js_div(d, w), abs=1e-8)

    @given(interior_tables())
    def test_ccs_alpha_continuity(self, cells):
        d = DiscreteBivariate.from_joint(cells.reshape(2, 2))
        for sign in (1.0, -1.0):
            assert abs(ccs_div(d, sign * (1.0 - 1e-6)) - ccs_div(d, sign)) < 1e-4

    def test_alpha_div_rejects_limit_curvatures(self):
        d = DiscreteBivariate.independent([0.6, 0.4], [0.5, 0.5])
        for a in (1.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInput):
                alpha_div(d, a)

    def test_beta_div_rejects_degenerate_exponents(self):
        d = DiscreteBivariate.independent([0.6, 0.4], [0.5, 0.5])
        for b in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInput):
                beta_div(d, b)

    def test_js_weight_validated(self):
        d = DiscreteBivariate.independent([0.6, 0.4], [0.5, 0.5])
        with pytest.raises(InvalidInput):
            js_div(d, 1.5)
        with pytest.raises(InvalidInput):
            c_div(d, 0.5, -0.1)
        for weight in (True, "0.5", np.nan):
            with pytest.raises(InvalidInput, match="weight must be finite"):
                js_div(d, weight)
            with pytest.raises(InvalidInput, match="weight must be finite"):
                c_div(d, 0.5, weight)


class TestRegistry:
    def test_every_id_resolves_and_runs(self):
        d = DiscreteBivariate.from_joint([[0.3, 0.3], [0.2, 0.2]])
        for which in DIVERGENCE_IDS:
            fn = make_divergence(which, alpha=0.5, weight=0.5, beta=2.0)
            assert np.isfinite(fn(d))

    def test_unknown_id_rejected(self):
        for which in ("renyi", "euclidean"):
            with pytest.raises(InvalidInput):
                make_divergence(which)


class TestSurfaces:
    def test_slice_geometry(self):
        rows = divergence_slice([0.7, 0.3], [0.5, 0.5], 16, "kl")
        assert rows.shape == (16, 3)
        assert np.allclose(rows[:, 1], 0.15)
        assert np.all(np.diff(rows[:, 0]) > 0.0)
        assert np.all(rows[:, 0] > 0.0) and np.all(rows[:, 0] < 0.7)

    def test_slice_minimum_at_independence_node(self):
        rows = divergence_slice([0.7, 0.3], [0.5, 0.5], 64, "kl")
        k = int(np.argmin(rows[:, 2]))
        assert abs(rows[k, 0] - 0.35) <= 0.7 / 64

    def test_slice_rejects_degenerate_marginals(self):
        with pytest.raises(InvalidInput):
            divergence_slice([1.0, 0.0], [0.5, 0.5], 16, "kl")

    def test_slice_rejects_coarse_grid(self):
        with pytest.raises(InvalidInput):
            divergence_slice([0.7, 0.3], [0.5, 0.5], 4, "kl")
        # a grid is a whole number, never truncated or parsed from text
        for grid in (8.5, "16"):
            with pytest.raises(InvalidInput):
                divergence_slice([0.7, 0.3], [0.5, 0.5], grid, "kl")
            with pytest.raises(InvalidInput):
                divergence_surface([0.7, 0.3], grid, "kl")

    @pytest.mark.parametrize("which, given", [("kl", dict(alpha=0.5)), ("kl", dict(beta=7.0)),
                                              ("ccs", dict(weight=0.9)), ("js", dict(alpha=0.5))])
    def test_unread_parameter_refused_before_any_node(self, monkeypatch, which, given):
        calls = []
        build = DiscreteBivariate.from_free_cells
        monkeypatch.setattr(DiscreteBivariate, "from_free_cells",
                            lambda *a: calls.append(a) or build(*a))
        with pytest.raises(InvalidInput, match=f"divergence id {which} does not read"):
            divergence_slice([0.7, 0.3], [0.5, 0.5], 16, which, **given)
        with pytest.raises(InvalidInput, match="does not read"):
            divergence_surface([0.7, 0.3], 8, which, **given)
        assert calls == []
        # at its default a parameter is accepted, and make_divergence ignores an unread one
        divergence_slice([0.7, 0.3], [0.5, 0.5], 16, which, alpha=-1.0, weight=0.5, beta=2.0)
        assert len(calls) == 16
        d = DiscreteBivariate.independent([0.7, 0.3], [0.5, 0.5])
        assert np.isfinite(make_divergence(which, **given)(d))

    def test_surface_nodes_interior_and_feasible(self):
        rows = divergence_surface([0.6, 0.4], 8, "e")
        assert rows.shape[1] == 3
        assert len(rows) == 64
        assert np.all(rows[:, 0] > 0.0) and np.all(rows[:, 0] < 0.6)
        assert np.all(rows[:, 1] > 0.0) and np.all(rows[:, 1] < 0.4)
        assert np.all(np.isfinite(rows[:, 2]))

    def test_second_differences_of_quadratic(self):
        vals = np.arange(10.0) ** 2
        assert np.allclose(second_differences(vals), 2.0, atol=1e-12)
        with pytest.raises(InvalidInput):
            second_differences([1.0, 2.0])
