"""Centering and whitening, the fixed two-step preprocessing for ICA."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, RankDeficient

# eigenvalues at or below RANK_EPS times the largest one are treated as zero
RANK_EPS = 1e-12
# ICA needs at least two channels (rows) to separate
MIN_CHANNELS = 2


def validate_signal(x) -> np.ndarray:
    """Coerce to a float channels-by-samples matrix, rejecting malformed input."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidInput(f"expected a channels-by-samples matrix, got shape {x.shape}")
    m, t = x.shape
    if m < MIN_CHANNELS:
        raise InvalidInput(f"need at least {MIN_CHANNELS} channels, got {m}")
    if t < m:
        raise InvalidInput(f"need at least as many samples as channels, got {m}x{t}")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("signal contains non-finite entries")
    return x


@dataclass(frozen=True)
class WhiteningTransform:
    """Affine map z = matrix @ (x - mean[:, None]) with unit output covariance.

    eigenvectors holds the covariance eigenbasis as columns in descending
    eigenvalue order, each column flipped so its largest-magnitude entry is
    positive.  matrix is the inverse-square-root scaling stacked on that basis.
    """

    mean: np.ndarray
    matrix: np.ndarray
    eigenvectors: np.ndarray
    eigenvalues: np.ndarray

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.matrix @ (x - self.mean[:, None])


def remove_mean(x) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the per-channel average. Returns (centered, mean)."""
    x = validate_signal(x)
    mean = x.mean(axis=1)
    return x - mean[:, None], mean


def whiten(centered, mean=None) -> tuple[np.ndarray, WhiteningTransform]:
    """Decorrelate centered data to unit covariance.

    The covariance uses the population divisor (T, not T-1) so results are
    reproducible against fixed references.  Raises RankDeficient when any
    eigenvalue falls at or below RANK_EPS times the largest one.
    """
    x = validate_signal(centered)
    m, t = x.shape
    cov = (x @ x.T) / t
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    if evals[0] <= 0.0 or np.any(evals <= RANK_EPS * evals[0]):
        raise RankDeficient("sample covariance is rank deficient, cannot whiten")
    # deterministic sign convention: largest-magnitude entry of each
    # eigenvector is made positive
    for k in range(m):
        pivot = int(np.argmax(np.abs(evecs[:, k])))
        if evecs[pivot, k] < 0.0:
            evecs[:, k] = -evecs[:, k]
    v = (evecs / np.sqrt(evals)).T
    z = v @ x
    if mean is None:
        mean = np.zeros(m)
    return z, WhiteningTransform(
        mean=np.asarray(mean, dtype=float),
        matrix=v,
        eigenvectors=evecs,
        eigenvalues=evals,
    )


def center_and_whiten(x) -> tuple[np.ndarray, WhiteningTransform]:
    """remove_mean followed by whiten, keeping the mean in the transform."""
    centered, mean = remove_mean(x)
    return whiten(centered, mean=mean)
