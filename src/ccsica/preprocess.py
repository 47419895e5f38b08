"""Input checks and `center_and_whiten`: `whole_number` decides every count, `finite_number` every
real parameter and `resolve` every registry id, before a site's own range check."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, RankDeficient

# an eigenvalue at or below RANK_EPS times the largest one is treated as zero
RANK_EPS = 1e-12
# ICA needs at least two channels (rows) to separate
MIN_CHANNELS = 2
# the number types whole_number and finite_number take, bool (an int) excepted
_NUMBERS = (float, int, np.floating, np.integer)


def whole_number(value, name: str, least: int | None = 1) -> int:
    """`value` as an int; InvalidInput unless it is a whole number >= least
    (of any sign when least is None)."""
    if not (isinstance(value, _NUMBERS) and not isinstance(value, bool)
            and (isinstance(value, (int, np.integer)) or float(value).is_integer())
            and (least is None or value >= least)):
        bound = "" if least is None else f" >= {least}"
        raise InvalidInput(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def finite_number(value, name: str) -> float:
    """`value` as a float; InvalidInput unless it is a finite real number (not a bool or text)."""
    if isinstance(value, bool) or not isinstance(value, _NUMBERS) or not math.isfinite(value):
        raise InvalidInput(f"{name} must be finite and real, got {value!r}")
    return float(value)


def resolve(key, ids, what: str) -> str:
    """The id in `ids` that `key` names after strip().lower(); InvalidInput if none does."""
    name = str(key).strip().lower()
    if name not in ids:
        raise InvalidInput(f"unknown {what} {key!r}, expected one of {tuple(ids)}")
    return name


def choose(registry: dict, key, what: str, **options):
    """(entry, given) for `key` in `registry`, which maps each id to (entry, names of the options
    it reads): the id is matched by `resolve`, `given` holds the options that are not None, and
    InvalidInput refuses a given option that the entry does not read."""
    name = resolve(key, registry, what)
    entry, reads = registry[name]
    given = {k: v for k, v in options.items() if v is not None}
    unread = [k for k in given if k not in reads]
    if unread:
        raise InvalidInput(f"{what} {name} does not read {', '.join(unread)}")
    return entry, given


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

    Row k of matrix is the covariance eigenvector of the k-th largest
    eigenvalue over its square root (so row norms ascend), signed so that
    its largest-magnitude entry is positive.
    """

    mean: np.ndarray
    matrix: np.ndarray

    def apply(self, x) -> np.ndarray:
        return self.matrix @ (np.asarray(x, dtype=float) - self.mean[:, None])


def center_and_whiten(x) -> tuple[np.ndarray, WhiteningTransform]:
    """Validate x, centre it and decorrelate it to unit covariance: (z, transform).

    The covariance uses the population divisor T.  Raises RankDeficient when
    any eigenvalue is at or below RANK_EPS times the largest one.
    """
    x = validate_signal(x)
    mean = x.mean(axis=1)
    x = x - mean[:, None]
    evals, evecs = np.linalg.eigh((x @ x.T) / x.shape[1])
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    if evals[0] <= 0.0 or np.any(evals <= RANK_EPS * evals[0]):
        raise RankDeficient("sample covariance is rank deficient, cannot whiten")
    # deterministic sign: each eigenvector's largest-magnitude entry is positive
    pivots = np.argmax(np.abs(evecs), axis=0)
    evecs = evecs * np.where(evecs[pivots, np.arange(len(evals))] < 0.0, -1.0, 1.0)
    v = (evecs / np.sqrt(evals)).T
    return v @ x, WhiteningTransform(mean=mean, matrix=v)
