"""Synthetic source generators and the linear mixing model.

Every random draw flows from numpy SeedSequence keys, so any (seed, key)
pair is reproducible across processes and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .preprocess import validate_signal

SOURCE_KINDS = ("uniform", "rayleigh", "laplacian", "lognormal")

_SEED_MASK = (1 << 64) - 1


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for a base seed and an integer key path."""
    entropy = [int(seed) & _SEED_MASK] + [int(k) & _SEED_MASK for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def draw_source(kind: str, n: int, rng: np.random.Generator,
                tau1: float = 3.0, tau2: float = 1.0) -> np.ndarray:
    """n draws of one source kind.

    tau1 is the half-width of the uniform kind, tau2 the scale of the
    laplacian kind; the rayleigh and lognormal kinds are fixed to unit shape.
    """
    if kind not in SOURCE_KINDS:
        raise InvalidInput(f"unknown source kind {kind!r}, expected one of {SOURCE_KINDS}")
    if int(n) < 2:
        raise InvalidInput("need at least 2 samples")
    # the uniform kind draws on a width of 2 tau1, which must stay a float too
    if not (0.0 < 2.0 * tau1 < np.inf and 0.0 < tau2 < np.inf):
        raise InvalidInput(f"scale parameters must be positive and finite, got tau1={tau1!r}, tau2={tau2!r}")
    if kind == "uniform":
        x = rng.uniform(-tau1, tau1, n)
    elif kind == "rayleigh":
        x = rng.rayleigh(1.0, n)
    elif kind == "laplacian":
        x = rng.laplace(0.0, tau2, n)
    else:
        x = rng.lognormal(0.0, 1.0, n)
    if not np.all(np.isfinite(x)):
        raise InvalidInput(f"{kind} draws at tau1={tau1!r}, tau2={tau2!r} leave the float range")
    return x


def source_bank(kinds, t_count: int, seed: int = 0, tau1: float = 3.0, tau2: float = 1.0) -> np.ndarray:
    """Stack one row per kind, each drawn from its own child generator."""
    kinds = list(kinds)
    if not kinds:
        raise InvalidInput("need at least one source kind")
    rows = [draw_source(k, int(t_count), rng_for(seed, i), tau1, tau2) for i, k in enumerate(kinds)]
    return np.vstack(rows)


def random_mixing_matrix(m: int, rng: np.random.Generator, min_abs_det: float = 0.01,
                         max_tries: int = 10_000) -> np.ndarray:
    """Entries i.i.d. uniform on (-1, 1), redrawn until comfortably invertible."""
    if int(m) < 2:
        raise InvalidInput("mixing matrix needs at least 2 channels")
    for _ in range(max_tries):
        a = rng.uniform(-1.0, 1.0, (m, m))
        if abs(np.linalg.det(a)) >= min_abs_det:
            return a
    raise InvalidInput("could not draw an invertible mixing matrix")


@dataclass(frozen=True)
class MixingModel:
    """x = matrix @ sources + noise_sigma * standard normal noise."""

    matrix: np.ndarray
    noise_sigma: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInput(f"mixing matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidInput("mixing matrix contains non-finite entries")
        if abs(np.linalg.det(a)) <= 0.0:
            raise InvalidInput("mixing matrix is rank deficient")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise InvalidInput(f"noise sigma must be nonnegative and finite, got {self.noise_sigma!r}")
        object.__setattr__(self, "matrix", a)


def mix(sources, model: MixingModel, seed: int = 0) -> np.ndarray:
    """Apply the mixing model; the noise stream is keyed off the seed alone."""
    s = validate_signal(sources)
    a = model.matrix
    if a.shape[0] != s.shape[0]:
        raise InvalidInput(f"mixing matrix is {a.shape[0]}x{a.shape[1]} but sources have {s.shape[0]} rows")
    x = a @ s
    if model.noise_sigma > 0.0:
        x = x + model.noise_sigma * rng_for(seed, 0xA).standard_normal(x.shape)
    return x


def noise_sigma_for_snr(clean, snr_db: float) -> float:
    """Per-entry noise scale that hits the requested signal-to-noise ratio."""
    clean = np.asarray(clean, dtype=float)
    power = float(np.mean(clean**2))
    if power <= 0.0:
        raise InvalidInput("clean signal has zero power")
    snr_db = float(snr_db)
    if not np.isfinite(snr_db):
        raise InvalidInput(f"SNR must be finite, got {snr_db!r} dB")
    try:
        return float(np.sqrt(power * 10.0 ** (-snr_db / 10.0)))
    except OverflowError:
        raise InvalidInput(f"SNR {snr_db!r} dB puts the noise scale outside the float range") from None
