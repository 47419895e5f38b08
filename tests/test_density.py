import tracemalloc

import numpy as np
import pytest

from ccsica import density
from ccsica.density import default_bandwidth, gaussian_density_nd, gaussian_sums_1d
from ccsica.errors import InvalidInput
from ccsica.objective import CcsObjective
from ccsica.optimizers import rotation

SQRT2PI = np.sqrt(2.0 * np.pi)


def _parzen(refs, queries, h):
    """Normalised 1-D Parzen density from the kernel sums."""
    return gaussian_sums_1d(refs, queries, h) / (np.size(refs) * h * SQRT2PI)


def _parzen_grad(refs, queries, h):
    """Derivative of the 1-D Parzen density in the query point."""
    refs = np.asarray(refs, dtype=float)
    _, usum, _ = gaussian_sums_1d(refs, queries, h, np.empty((refs.size, 0)))
    return -usum / (refs.size * h * h * SQRT2PI)


class TestBandwidth:
    def test_reference_values(self):
        assert default_bandwidth(1) == pytest.approx(1.06, rel=1e-14)
        assert default_bandwidth(1000) == pytest.approx(1.06 * 1000.0 ** (-0.2), rel=1e-14)

    def test_monotone_in_sample_count(self):
        hs = [default_bandwidth(t) for t in (10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(hs, hs[1:]))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            default_bandwidth(0)


class TestUnivariate:
    def test_coincident_references_peak(self):
        h = 0.3
        peak = _parzen(np.array([1.5, 1.5]), np.array([1.5]), h)
        assert peak[0] == pytest.approx(1.0 / (h * SQRT2PI), rel=1e-12)

    def test_matches_hand_loop(self):
        refs = np.array([-0.3, 0.4, 1.1])
        h = 0.5
        queries = np.array([0.0, 0.9])
        want = np.array(
            [np.mean(np.exp(-0.5 * ((x - refs) / h) ** 2)) / (h * SQRT2PI) for x in queries]
        )
        assert np.allclose(_parzen(refs, queries, h), want, rtol=1e-12)

    def test_grad_matches_hand_loop(self):
        refs = np.array([-0.3, 0.4, 1.1])
        h = 0.5
        queries = np.array([0.0, 0.9])
        want = np.array(
            [
                np.mean(-((x - refs) / h**2) * np.exp(-0.5 * ((x - refs) / h) ** 2)) / (h * SQRT2PI)
                for x in queries
            ]
        )
        assert np.allclose(_parzen_grad(refs, queries, h), want, rtol=1e-12)

    def test_grad_matches_finite_differences(self, rng):
        refs = rng.normal(size=200)
        h = default_bandwidth(refs.size)
        queries = np.linspace(-2.0, 2.0, 9)
        eps = 1e-6
        fd = (_parzen(refs, queries + eps, h) - _parzen(refs, queries - eps, h)) / (2 * eps)
        assert np.allclose(_parzen_grad(refs, queries, h), fd, rtol=1e-6, atol=1e-9)

    def test_integrates_to_one(self, rng):
        refs = rng.normal(size=4000)
        grid = np.linspace(-6.0, 6.0, 1201)
        mass = np.trapezoid(_parzen(refs, grid, default_bandwidth(refs.size)), grid)
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_standard_normal_at_origin(self, rng):
        refs = rng.normal(size=4000)
        at_origin = _parzen(refs, np.array([0.0]), default_bandwidth(refs.size))[0]
        assert at_origin == pytest.approx(1.0 / SQRT2PI, abs=0.05)

    def test_scaling_covariance(self, rng):
        refs = rng.normal(size=200)
        queries = np.linspace(-1.5, 1.5, 7)
        h, c = 0.4, 2.5
        base = _parzen(refs, queries, h)
        scaled = _parzen(c * refs, c * queries, c * h)
        assert np.allclose(scaled, base / c, rtol=1e-10)

    def test_reference_permutation_invariance(self, rng):
        refs = rng.normal(size=300)
        queries = np.linspace(-2.0, 2.0, 11)
        base = _parzen(refs, queries, 0.3)
        shuffled = _parzen(rng.permutation(refs), queries, 0.3)
        assert np.max(np.abs(shuffled - base) / base) <= 1e-12

    def test_feature_sums_match_hand_loop(self, rng):
        refs = rng.normal(size=7)
        queries = rng.normal(size=4)
        feats = rng.normal(size=(7, 3))
        h = 0.6
        ksum, usum, ufsum = gaussian_sums_1d(refs, queries, h, feats)
        u = (queries[:, None] - refs[None, :]) / h
        k = np.exp(-0.5 * u * u)
        assert np.array_equal(ksum, gaussian_sums_1d(refs, queries, h))
        assert np.allclose(ksum, k.sum(axis=1), rtol=1e-13)
        assert np.allclose(usum, (u * k).sum(axis=1), rtol=1e-13)
        assert np.allclose(ufsum, (u * k) @ feats, rtol=1e-12, atol=1e-15)

    def test_chunking_does_not_change_sums(self, rng, monkeypatch):
        refs = rng.normal(size=50)
        queries = rng.normal(size=23)
        feats = rng.normal(size=(50, 2))
        ksum, usum, ufsum = gaussian_sums_1d(refs, queries, 0.4, feats)
        # 5 elements: one row per block; 150: three rows and a short last block
        for chunk in (5, 150):
            monkeypatch.setattr(density, "_CHUNK", chunk)
            k_chunked, u_chunked, uf_chunked = gaussian_sums_1d(refs, queries, 0.4, feats)
            assert np.array_equal(ksum, k_chunked)
            assert np.array_equal(usum, u_chunked)
            # the matrix product is blocked by BLAS, so it may move by an ulp
            assert np.allclose(ufsum, uf_chunked, rtol=1e-13, atol=1e-15)

    def test_chunking_does_not_change_contrast_value(self, monkeypatch):
        # Jacobi's angle choice breaks ties by exact equality
        z = np.random.default_rng(4).laplace(size=(2, 300))
        w = np.array([[0.9, 0.3], [-0.2, 1.1]])
        whole = CcsObjective(z, alpha=-0.99999, stride=3).value(w)
        monkeypatch.setattr(density, "_CHUNK", 700)
        assert CcsObjective(z, alpha=-0.99999, stride=3).value(w) == whole

    @pytest.mark.parametrize("n_queries, n_refs", [(1000, 1000), (100, 1000), (3, 7), (1, 20000)])
    def test_scratch_blocks_start_on_cache_line(self, n_queries, n_refs):
        # the speed of a sum must not depend on where the heap put its blocks
        for _ in range(8):
            for block in density.kernel_scratch(n_queries, n_refs):
                assert block.ctypes.data % 64 == 0
                assert block.size == density._block_rows(n_queries, n_refs) * n_refs

    def test_marginal_pass_matches_hand_loop(self, rng):
        # the contrast's own call into the shared sums: density of one output
        # row at its evaluation points, and its derivative in that row of W;
        # the objective keeps the evaluation points first, then the rest
        z = rng.normal(size=(2, 60))
        obj = CcsObjective(z, alpha=0.5, stride=4)
        rest = np.ones(60, dtype=bool)
        rest[::4] = False
        assert np.array_equal(obj.data, np.hstack([z[:, ::4], z[:, rest]]))
        w_row = np.array([0.8, -0.3])
        row = w_row @ obj.data
        dens, grad = obj._marginal_pass(row, need_grad=True)
        h, n = obj.h, row.size
        q = row[: obj.n_points]
        u = (q[:, None] - row[None, :]) / h
        k = np.exp(-0.5 * u * u)
        assert np.allclose(dens, k.sum(axis=1) / (n * h * SQRT2PI), rtol=1e-13)
        dz = obj.data[:, : obj.n_points][:, :, None] - obj.data[:, None, :]
        want = -np.einsum("ij,lij->il", u * k, dz) / (n * h * h * SQRT2PI)
        assert np.allclose(grad, want, rtol=1e-10, atol=1e-14)
        value_only, none = obj._marginal_pass(row, need_grad=False)
        assert none is None and np.array_equal(value_only, dens)


class TestSharedQueries:
    """Sums whose queries are the first references: each pair computed once."""

    @staticmethod
    def _hand_loop(refs, n, h, feats):
        u = (refs[:n, None] - refs[None, :]) / h
        k = np.exp(-0.5 * u * u)
        return k.sum(axis=1), (u * k).sum(axis=1), (u * k) @ feats

    # ts 1: 40 of 40 references; ts 4: 10 of 40.  A 150-term budget gives
    # strips of three rows and a short last strip of one
    @pytest.mark.parametrize("n, chunk", [(40, 1 << 16), (40, 150), (10, 150)])
    def test_matches_hand_loop(self, rng, monkeypatch, n, chunk):
        refs = rng.normal(size=40)
        feats = rng.normal(size=(40, 3))
        monkeypatch.setattr(density, "_CHUNK", chunk)
        ksum, usum, ufsum = gaussian_sums_1d(refs, n, 0.5, feats)
        want_k, want_u, want_uf = self._hand_loop(refs, n, 0.5, feats)
        assert ksum.shape == usum.shape == (n,) and ufsum.shape == (n, 3)
        assert np.allclose(ksum, want_k, rtol=1e-13)
        assert np.allclose(usum, want_u, rtol=1e-12, atol=1e-13)
        assert np.allclose(ufsum, want_uf, rtol=1e-12, atol=1e-13)
        assert np.array_equal(ksum, gaussian_sums_1d(refs, n, 0.5))

    def test_matches_same_points_as_queries(self, rng):
        # 300 of 1000 references: five strips of 65 rows, the last one short
        refs = rng.normal(size=1000)
        feats = rng.normal(size=(1000, 2))
        shared = gaussian_sums_1d(refs, 300, 0.3, feats)
        plain = gaussian_sums_1d(refs, refs[:300].copy(), 0.3, feats)
        for a, b in zip(shared, plain):
            assert np.allclose(a, b, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("n", [50, 23])
    def test_budget_does_not_change_sums(self, rng, monkeypatch, n):
        refs = rng.normal(size=50)
        feats = rng.normal(size=(50, 2))
        whole = gaussian_sums_1d(refs, n, 0.4, feats)
        # 5 elements: one-row strips; 150: three-row strips and a ragged last
        # strip of two
        for chunk in (5, 150):
            monkeypatch.setattr(density, "_CHUNK", chunk)
            # a shared pair is added to the later query by column, so the
            # order of its additions, not the terms, follows the strips
            for a, b in zip(whole, gaussian_sums_1d(refs, n, 0.4, feats)):
                assert np.allclose(a, b, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("stride, bound", [(1, 0.55 * 1000**2), (10, 100 * 1000)])
    def test_exponentiates_each_shared_pair_once(self, monkeypatch, stride, bound):
        # ts 1 takes about T^2/2 terms, plus half of each strip's diagonal
        # block; ts 10 no more than the 100 x 1000 of every query-reference pair
        real_exp, terms = np.exp, []

        def counting_exp(x, *args, **kwargs):
            terms.append(np.size(x))
            return real_exp(x, *args, **kwargs)

        z = np.random.default_rng(2).laplace(size=(2, 1000))
        obj = CcsObjective(z, alpha=-0.99999, stride=stride)
        rows = np.array([[0.6, 0.8], [0.8, -0.6], [1.0, 0.0]]) @ obj.data
        monkeypatch.setattr(density.np, "exp", counting_exp)
        gaussian_sums_1d(rows[0], obj.n_points, obj.h, obj.data_t, work=obj._work)
        assert 0 < sum(terms) <= bound
        # a stack of rows does each row's work once
        terms.clear()
        gaussian_sums_1d(rows, obj.n_points, obj.h, obj.data_t, work=obj._work)
        assert 0 < sum(terms) <= 3 * bound

    @pytest.mark.parametrize("chunk", [1 << 16, 5, 150])
    def test_stack_matches_one_row_calls(self, rng, monkeypatch, chunk):
        # each row of a stack runs its strips exactly as it would alone
        stack = rng.normal(size=(4, 50))
        feats = rng.normal(size=(50, 2))
        monkeypatch.setattr(density, "_CHUNK", chunk)
        for n in (50, 23):
            ksum = gaussian_sums_1d(stack, n, 0.4)
            sums = gaussian_sums_1d(stack, n, 0.4, feats)
            assert ksum.shape == sums[1].shape == (4, n) and sums[2].shape == (4, n, 2)
            for b, row in enumerate(stack):
                assert np.array_equal(ksum[b], gaussian_sums_1d(row, n, 0.4))
                for got, alone in zip(sums, gaussian_sums_1d(row, n, 0.4, feats)):
                    assert np.array_equal(got[b], alone)
        with pytest.raises(InvalidInput):
            gaussian_sums_1d(stack, stack[0, :5], 0.4)

    @pytest.mark.parametrize("stride", [1, 10])
    def test_forms_each_difference_in_one_pass(self, monkeypatch, stride):
        # u = (q - r) / h comes from one product per block over references
        # and queries divided by h once; no block is subtracted or divided
        terms = []

        class Counting:
            def __init__(self, ufunc):
                self.ufunc = ufunc

            def __call__(self, a, b, *args, **kwargs):
                terms.append(np.broadcast(a, b).size)
                return self.ufunc(a, b, *args, **kwargs)

            def outer(self, a, b, *args, **kwargs):
                terms.append(np.size(a) * np.size(b))
                return self.ufunc.outer(a, b, *args, **kwargs)

        z = np.random.default_rng(2).laplace(size=(2, 1000))
        obj = CcsObjective(z, alpha=-0.99999, stride=stride)
        row = np.array([0.6, 0.8]) @ obj.data
        for name in ("divide", "subtract"):
            monkeypatch.setattr(density.np, name, Counting(getattr(np, name)))
        gaussian_sums_1d(row, obj.n_points, obj.h, obj.data_t, work=obj._work)
        gaussian_sums_1d(row, row[: obj.n_points].copy(), obj.h, obj.data_t)
        assert max(terms, default=0) <= obj.n_refs


class TestMultivariate:
    def test_matches_hand_loop(self, rng):
        refs = rng.normal(size=(2, 5))
        h = 0.7
        queries = rng.normal(size=(2, 3))
        want = np.empty(3)
        for k in range(3):
            d2 = np.sum((queries[:, k, None] - refs) ** 2, axis=0)
            want[k] = np.mean(np.exp(-0.5 * d2 / h**2)) / ((2 * np.pi) * h**2)
        assert np.allclose(gaussian_density_nd(refs, queries, h), want, rtol=1e-12)

    def test_product_rule_for_independent_channels(self, rng):
        # joint kernel estimate of an independent pair tracks the product of
        # its marginal estimates only up to smoothing error, hence the loose bound
        refs = np.vstack([rng.uniform(-1, 1, 900), rng.normal(size=900)])
        h = default_bandwidth(900)
        ticks = np.linspace(-0.8, 0.8, 9)
        queries = np.vstack([ticks, ticks])
        joint = gaussian_density_nd(refs, queries, h)
        product = _parzen(refs[0], ticks, h) * _parzen(refs[1], ticks, h)
        assert np.max(np.abs(joint - product) / product) <= 0.2

    def test_scaling_covariance(self, rng):
        refs = rng.normal(size=(3, 50))
        queries = rng.normal(size=(3, 4))
        h, c = 0.6, 1.7
        base = gaussian_density_nd(refs, queries, h)
        scaled = gaussian_density_nd(c * refs, c * queries, c * h)
        assert np.allclose(scaled, base / c**3, rtol=1e-10)

    @pytest.mark.parametrize("chunk", [5, 150, 550])
    def test_chunking_does_not_change_density(self, rng, monkeypatch, chunk):
        # blocks of 2, 3 and 11 rows; 23 queries leave a last block of 1, 2
        # and 1 rows
        refs = rng.normal(size=(3, 50))
        queries = rng.normal(size=(3, 23))
        whole = gaussian_density_nd(refs, queries, 0.6)
        monkeypatch.setattr(density, "_CHUNK", chunk)
        assert np.array_equal(gaussian_density_nd(refs, queries, 0.6), whole)

    @pytest.mark.parametrize("chunk", [1 << 16, 5, 150])
    def test_one_channel_is_the_1d_sum(self, rng, monkeypatch, chunk):
        # both sums run the same strip loop; 5 gives one-row strips, 150
        # three-row strips and a ragged last strip of two
        refs = rng.normal(size=50)
        queries = rng.normal(size=23)
        h = 0.4
        monkeypatch.setattr(density, "_CHUNK", chunk)
        joint = gaussian_density_nd(refs[None], queries[None], h)
        norm = (2.0 * np.pi) ** -0.5 / (refs.size * h)
        assert np.array_equal(joint, gaussian_sums_1d(refs, queries, h) * norm)

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(InvalidInput):
            gaussian_density_nd(rng.normal(size=(2, 20)), np.zeros((3, 4)), 0.5)
        with pytest.raises(InvalidInput):
            gaussian_density_nd(rng.normal(size=(2, 20)), np.zeros(2), 0.5)

    def test_grad_worker_sign(self):
        # density falls to the right of a lone mass point, rises to the left
        assert _parzen_grad(np.array([0.0, 0.0]), np.array([0.5]), 0.4)[0] < 0.0
        assert _parzen_grad(np.array([0.0, 0.0]), np.array([-0.5]), 0.4)[0] > 0.0


class TestAccuracy:
    """Against an extended-precision hand loop on spread-out data.

    A product-form exponent rounds each term to within about eps * max|q|^2
    (q = points over h), so each sum is held to that bound relative to the
    sum of its terms' magnitudes."""

    EPS = np.finfo(float).eps
    Q_MAX = 40.0

    def _spread(self, rng, shape, h):
        x = rng.laplace(size=shape)
        return x * (self.Q_MAX * h / np.max(np.abs(x)))

    def test_sums_1d(self, rng):
        h = 0.3
        refs = self._spread(rng, 400, h)
        feats = rng.normal(size=(400, 2))
        bound = self.EPS * self.Q_MAX**2
        r = refs.astype(np.longdouble)
        # queries within the data, where no kernel term is subnormal
        for queries in (400, np.linspace(refs.min(), refs.max(), 51)):
            q = r[:queries] if isinstance(queries, int) else queries.astype(np.longdouble)
            u = (q[:, None] - r[None, :]) / np.longdouble(h)
            k = np.exp(-u * u / 2)
            uk = u * k
            ksum, usum, ufsum = gaussian_sums_1d(refs, queries, h, feats)
            assert np.all(np.abs(ksum - k.sum(axis=1)) <= bound * k.sum(axis=1))
            assert np.all(np.abs(usum - uk.sum(axis=1)) <= bound * np.abs(uk).sum(axis=1))
            want_uf = uk @ feats.astype(np.longdouble)
            assert np.all(np.abs(ufsum - want_uf) <= bound * (np.abs(uk) @ np.abs(feats)))

    def test_density_nd(self, rng):
        h = 0.3
        refs = self._spread(rng, (2, 400), h)
        queries = refs[:, ::3]
        r, q = refs.astype(np.longdouble), queries.astype(np.longdouble)
        d2 = ((q[:, :, None] - r[:, None, :]) ** 2).sum(axis=0) / np.longdouble(h) ** 2
        want = np.exp(-d2 / 2).mean(axis=1) / (2 * np.pi * np.longdouble(h) ** 2)
        q_max = np.max(np.linalg.norm(refs, axis=0)) / h
        got = gaussian_density_nd(refs, queries, h)
        assert np.all(np.abs(got - want) <= self.EPS * q_max**2 * want)


class TestMemory:
    """Peak memory of a kernel sum is set by the block budget, not by T."""

    BOUND = 8 * 2**20
    T = 20000

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sums_1d(self, rng):
        refs = rng.normal(size=self.T)
        feats = rng.normal(size=(self.T, 2))
        h = default_bandwidth(self.T)
        assert self._peak(lambda: gaussian_sums_1d(refs, refs[::10], h, feats)) < self.BOUND

    def test_density_nd(self, rng):
        refs = rng.normal(size=(2, self.T))
        h = default_bandwidth(self.T)
        assert self._peak(lambda: gaussian_density_nd(refs, refs[:, ::10], h)) < self.BOUND

    def test_objective_value_and_gradient(self, rng):
        z = rng.laplace(size=(2, self.T))
        w = np.array([[0.9, 0.3], [-0.2, 1.1]])
        peak = self._peak(lambda: CcsObjective(z, alpha=-0.99999, stride=100).value_and_gradient(w))
        assert peak < self.BOUND

    def test_objective_every_point(self, rng):
        # at ts 1 every reference is also a query, so the strips change shape
        z = rng.laplace(size=(2, self.T))
        w = np.array([[0.9, 0.3], [-0.2, 1.1]])
        peak = self._peak(lambda: CcsObjective(z, alpha=-0.99999, stride=1).value_and_gradient(w))
        assert peak < self.BOUND

    def test_objective_stacked_value(self, rng):
        # one Jacobi pair visit: the 33 grid rotations in one call
        z = rng.laplace(size=(2, self.T))
        ws = np.array([rotation(th) for th in np.arange(-16, 17) * (np.pi / 64.0)])
        peak = self._peak(lambda: CcsObjective(z, alpha=-0.99999, stride=100).value(ws))
        assert peak < self.BOUND
