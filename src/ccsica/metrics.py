"""Separation quality metrics: kurtosis, the permutation-invariant mixing
residual index, and signal-to-interference ratio after alignment."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .preprocess import validate_signal

SIR_CAP_DB = 150.0
_TIE_TOL = 1e-12


def kurtosis(s) -> float:
    """Fourth-to-second raw moment ratio minus 3.

    Raw (uncentered) moments on purpose: for zero-mean sources this is the
    usual excess kurtosis, e.g. -1.2 for a uniform and +3 for a Laplacian.
    """
    s = np.asarray(s, dtype=float).ravel()
    if s.size < 2:
        raise InvalidInput("kurtosis needs at least 2 samples")
    if not np.all(np.isfinite(s)):
        raise InvalidInput("samples contain non-finite entries")
    m2 = float(np.mean(s * s))
    if m2 <= 0.0:
        raise InvalidInput("second moment is zero")
    return float(np.mean(s**4) / (m2 * m2) - 3.0)


def amari_index(w_total, mixing) -> float:
    """Normalized residual of the separation product P = W @ A, in [0, 1].

    Zero exactly when P is a scaled permutation; one when every entry of P
    has the same magnitude.  Row and column sums of |P| are each normalized
    by their largest entry, so the index is invariant to permutations, sign
    flips, and global rescaling of either factor.
    """
    w = np.asarray(w_total, dtype=float)
    a = np.asarray(mixing, dtype=float)
    if w.ndim != 2 or a.ndim != 2 or w.shape != a.shape or w.shape[0] != w.shape[1]:
        raise InvalidInput(f"need two square matrices of equal shape, got {w.shape} and {a.shape}")
    p = np.abs(w @ a)
    if not np.all(np.isfinite(p)):
        raise InvalidInput("separation product contains non-finite entries")
    m = p.shape[0]
    if m < 2:
        raise InvalidInput("index needs at least 2 channels")
    row_max = p.max(axis=1)
    col_max = p.max(axis=0)
    if np.any(row_max <= 0.0) or np.any(col_max <= 0.0):
        raise InvalidInput("separation product has an all-zero row or column")
    rows = float(np.sum(p / row_max[:, None]) - m)
    cols = float(np.sum(p / col_max[None, :]) - m)
    return (rows + cols) / (2.0 * m * (m - 1.0))


def _abs_correlations(estimates: np.ndarray, sources: np.ndarray) -> np.ndarray:
    ye = estimates - estimates.mean(axis=1, keepdims=True)
    se = sources - sources.mean(axis=1, keepdims=True)
    yn = np.linalg.norm(ye, axis=1)
    sn = np.linalg.norm(se, axis=1)
    yn = np.where(yn > 0.0, yn, 1.0)
    sn = np.where(sn > 0.0, sn, 1.0)
    return np.abs((ye / yn[:, None]) @ (se / sn[:, None]).T)


def align_sources(estimates, sources):
    """Greedy one-to-one matching of estimates to sources by |correlation|.

    Matches are claimed in descending correlation order: a correlation
    within 1e-12 of the largest unclaimed one ties with it, and ties go to
    the lowest estimate index, then the lowest source index.  Each matched
    estimate is rescaled by least squares onto its source.  Returns
    (aligned, perm, gains) where aligned[k] approximates sources[k] and
    perm[k] is the index of the estimate assigned to source k.
    """
    y = validate_signal(estimates)
    s = validate_signal(sources)
    if y.shape != s.shape:
        raise InvalidInput(f"estimates {y.shape} and sources {s.shape} differ in shape")
    m = y.shape[0]
    corr = _abs_correlations(y, s)
    perm = np.empty(m, dtype=int)
    free = np.ones((m, m), dtype=bool)  # estimate i and source k both unclaimed
    for _ in range(m):
        c = np.where(free, corr, -np.inf)
        # the first tie in row-major order: the lowest estimate, then source
        i, k = np.unravel_index(np.argmax(c >= c.max() - _TIE_TOL), c.shape)
        perm[k] = i
        free[i, :] = free[:, k] = False
    gains = np.zeros(m)
    for k, yk in enumerate(y[perm]):
        denom = float(yk @ yk)
        if denom > 0.0:
            gains[k] = float(yk @ s[k]) / denom
    return gains[:, None] * y[perm], perm, gains


def sir_db(estimates, sources) -> np.ndarray:
    """Per-source signal-to-interference ratio in dB, after alignment.

    Ratios are capped at SIR_CAP_DB so an exact recovery reports a finite
    number instead of infinity.
    """
    s = validate_signal(sources)
    aligned, _, _ = align_sources(estimates, s)
    out = np.empty(s.shape[0])
    for k in range(s.shape[0]):
        num = float(s[k] @ s[k])
        err = aligned[k] - s[k]
        den = float(err @ err)
        if num <= 0.0:
            raise InvalidInput("a source row has zero energy")
        if den <= 0.0:
            out[k] = SIR_CAP_DB
        else:
            out[k] = min(10.0 * np.log10(num / den), SIR_CAP_DB)
    return out
