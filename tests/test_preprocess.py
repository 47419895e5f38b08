import numpy as np
import pytest
from hypothesis import given, strategies as st

from ccsica import preprocess
from ccsica.errors import InvalidInput, RankDeficient
from ccsica.preprocess import center_and_whiten, validate_signal


def _cov(z):
    return (z @ z.T) / z.shape[1]


class TestValidateSignal:
    def test_rejects_single_channel(self):
        with pytest.raises(InvalidInput):
            validate_signal(np.ones((1, 10)))

    def test_rejects_fewer_samples_than_channels(self):
        with pytest.raises(InvalidInput):
            validate_signal(np.ones((3, 2)))

    def test_rejects_non_finite(self):
        x = np.ones((2, 10))
        x[0, 3] = np.nan
        with pytest.raises(InvalidInput):
            validate_signal(x)

    def test_rejects_one_dimensional(self):
        with pytest.raises(InvalidInput):
            validate_signal(np.ones(10))


class TestRemoveMean:
    """The centring step of center_and_whiten."""

    def test_zero_mean_input_unchanged(self, rng):
        x = rng.normal(size=(2, 64))
        x -= x.mean(axis=1, keepdims=True)
        z, tr = center_and_whiten(x)
        assert np.allclose(tr.mean, 0.0, atol=1e-14)
        assert np.allclose(z, tr.matrix @ x, atol=1e-13)

    def test_row_means_vanish(self, rng):
        x = rng.normal(loc=2.0, size=(2, 1000))
        z, tr = center_and_whiten(x)
        assert np.allclose(tr.mean, x.mean(axis=1), rtol=0.0, atol=1e-14)
        assert np.max(np.abs(z.mean(axis=1))) < 1e-12

    @given(st.integers(0, 2**31), st.integers(2, 5))
    def test_row_sums_bounded(self, seed, m):
        x = np.random.default_rng(seed).normal(size=(m, 50 * m), scale=7.0)
        z, _ = center_and_whiten(x)
        assert np.max(np.abs(z.sum(axis=1))) <= 1e-10 * x.shape[1]


class TestWhiten:
    """The decorrelation step of center_and_whiten."""

    def test_covariance_becomes_identity(self, rng):
        x = rng.normal(size=(4, 4000))
        x = (rng.normal(size=(4, 4)) @ x)
        z, _ = center_and_whiten(x)
        assert np.max(np.abs(_cov(z) - np.eye(4))) < 1e-6

    def test_transform_invariant(self, rng):
        x = rng.normal(size=(3, 2000))
        _, tr = center_and_whiten(x)
        centered = x - tr.mean[:, None]
        assert np.max(np.abs(tr.matrix @ _cov(centered) @ tr.matrix.T - np.eye(3))) < 1e-8

    def test_diagonal_covariance_closed_form(self, rng):
        base, _ = center_and_whiten(rng.normal(size=(2, 6000)))
        _, tr = center_and_whiten(np.diag([2.0, 1.0]) @ base)
        assert np.allclose(tr.matrix, np.diag([0.5, 1.0]), atol=1e-3)

    def test_row_norms_ascend(self, rng):
        # row k is eigenvector k over sqrt(lambda_k), in descending lambda order
        x = rng.normal(size=(4, 3000)) * np.array([[3.0], [1.0], [0.5], [2.0]])
        _, tr = center_and_whiten(x)
        norms = np.linalg.norm(tr.matrix, axis=1)
        assert np.all(np.diff(norms) >= 0.0)
        assert np.allclose(norms, [1 / 3.0, 1 / 2.0, 1.0, 2.0], rtol=0.05)

    def test_eigenvector_sign_convention(self, rng):
        _, tr = center_and_whiten(rng.normal(size=(3, 1000)))
        for row in tr.matrix:
            assert row[np.argmax(np.abs(row))] > 0.0

    def test_idempotent_up_to_rotation(self, rng):
        z, _ = center_and_whiten(rng.normal(size=(2, 3000)))
        z2, _ = center_and_whiten(z)
        assert np.max(np.abs(_cov(z2) - np.eye(2))) < 1e-6

    def test_rank_deficient_rejected(self, rng):
        row = rng.normal(size=500)
        with pytest.raises(RankDeficient):
            center_and_whiten(np.vstack([row, row]))


class TestCenterAndWhiten:
    def test_matches_two_stage_pipeline(self, rng):
        # a hand-built reference: centre, population covariance, eigh,
        # descending order, sign flip, inverse-square-root scaling
        x = rng.normal(loc=3.0, size=(3, 800))
        mean = x.mean(axis=1)
        centered = x - mean[:, None]
        evals, evecs = np.linalg.eigh(centered @ centered.T / x.shape[1])
        evals, evecs = evals[::-1], evecs[:, ::-1]
        evecs = evecs * np.sign(evecs[np.argmax(np.abs(evecs), axis=0), range(3)])
        v = (evecs / np.sqrt(evals)).T
        z, tr = center_and_whiten(x)
        assert np.allclose(z, v @ centered, atol=1e-14)
        assert np.allclose(tr.mean, mean, atol=1e-14)
        assert np.allclose(tr.matrix, v, atol=1e-14)

    def test_apply_reproduces_whitened_data(self, rng):
        x = rng.normal(loc=-2.0, size=(2, 500))
        z, tr = center_and_whiten(x)
        assert np.allclose(tr.apply(x), z, atol=1e-14)

    def test_validates_once(self, rng, monkeypatch):
        calls = []
        real = preprocess.validate_signal
        monkeypatch.setattr(preprocess, "validate_signal", lambda x: calls.append(1) or real(x))
        center_and_whiten(rng.normal(size=(2, 100)))
        assert calls == [1]
        with pytest.raises(InvalidInput):
            center_and_whiten(np.ones((1, 10)))

    def test_transform_has_two_fields(self, rng):
        _, tr = center_and_whiten(rng.normal(size=(2, 100)))
        assert list(vars(tr)) == ["mean", "matrix"]
