"""CSV and WAV input/output.

CSV files carry a single header line and floats rendered with 17 significant
digits, enough for exact float64 round trips.  WAV files are mono 16-bit PCM,
written at 8 kHz unless a rate is given; samples map to [-1, 1) on read and
are clipped (with a warning) on write; non-finite samples are refused.
"""

from __future__ import annotations

import csv
import wave
import warnings
from pathlib import Path

import numpy as np

from .errors import InvalidInput, IoFailure
from .preprocess import whole_number

WAV_RATE = 8000
_WAV_SCALE = 32768.0


def write_csv(path, header, rows) -> None:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(
                    [f"{float(v):.17g}" if isinstance(v, (float, np.floating)) else str(v) for v in row]
                )
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_matrix_csv(path) -> np.ndarray:
    """The numbers under a CSV file's header row, one array row per non-empty line."""
    path = Path(path)
    try:
        with path.open("r", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if len(rows) < 2:
        raise IoFailure(f"{path} has no data rows")
    try:
        cells = [[float(v) for v in row] for row in rows[1:]]
    except ValueError as exc:
        raise IoFailure(f"{path} has non-numeric cells: {exc}") from exc
    if len({len(row) for row in cells}) > 1:
        raise IoFailure(f"{path} has data rows of unequal lengths")
    return np.array(cells)


def write_signal_csv(path, data) -> None:
    """Channels-by-samples matrix written as one column per channel."""
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[None, :]
    if data.ndim != 2:
        raise InvalidInput(f"signal must be 1-D or 2-D, got shape {data.shape}")
    header = [f"ch{i + 1}" for i in range(data.shape[0])]
    write_csv(path, header, data.T)


def read_signal_csv(path) -> np.ndarray:
    """Returns a channels-by-samples matrix (transposing the column layout)."""
    return read_matrix_csv(path).T


def write_matrix_csv(path, matrix) -> None:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise InvalidInput(f"expected a matrix, got shape {matrix.shape}")
    header = [f"c{i + 1}" for i in range(matrix.shape[1])]
    write_csv(path, header, matrix)


def write_wav(path, samples, rate: int = WAV_RATE) -> None:
    rate = whole_number(rate, "WAV sample rate")
    x = np.asarray(samples, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise InvalidInput(f"cannot write {path}: samples must be finite")
    limit = (_WAV_SCALE - 1.0) / _WAV_SCALE
    if x.size and (x.max(initial=-np.inf) > limit or x.min(initial=np.inf) < -1.0):
        warnings.warn(f"samples outside [-1, 1) clipped while writing {path}", stacklevel=2)
    ints = np.round(np.clip(x, -1.0, limit) * _WAV_SCALE).astype("<i2")
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(rate)
            wf.writeframes(ints.tobytes())
    except (OSError, wave.Error) as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_wav(path) -> tuple[int, np.ndarray]:
    """Returns (rate, samples) with samples scaled to [-1, 1)."""
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getnchannels() != 1:
                raise IoFailure(f"{path}: only mono WAV files are supported")
            if wf.getsampwidth() != 2:
                raise IoFailure(f"{path}: only 16-bit PCM WAV files are supported")
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (OSError, wave.Error, EOFError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    data = np.frombuffer(raw, dtype="<i2").astype(float) / _WAV_SCALE
    return rate, data
