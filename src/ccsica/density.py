"""Parzen window density estimation with a Gaussian kernel.

Estimates are direct sums over the full reference set (no tree or FFT
shortcuts, no leave-one-out), evaluated in query chunks so memory stays
bounded at roughly chunk x reference-count floats.  There are two sums: the
1-D one, which also carries the derivative sums the contrast gradient needs,
and the joint M-D density.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

_CHUNK = 1024
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def default_bandwidth(t_count: int) -> float:
    """Rule-of-thumb bandwidth 1.06 * T^(-1/5) for T reference samples."""
    t_count = int(t_count)
    if t_count < 1:
        raise InvalidInput("bandwidth needs a positive sample count")
    return 1.06 * float(t_count) ** -0.2


def gaussian_sums_1d(refs, queries, h: float, feats=None):
    """Unnormalised Gaussian kernel sums of 1-D queries against 1-D references.

    With u = (q - r) / h and k = exp(-u^2 / 2), returns sum_r k per query.
    Given per-reference features (T x d), returns (sum_r k, sum_r u*k,
    sum_r u*k*feats[r]) instead; the last two carry the derivative of the
    sum in the query point (-usum / h) or through features that move it.
    """
    refs = np.asarray(refs, dtype=float)
    queries = np.asarray(queries, dtype=float)
    n = queries.size
    ksum = np.empty(n)
    if feats is not None:
        usum = np.empty(n)
        ufsum = np.empty((n, feats.shape[1]))
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        u = (queries[lo:hi, None] - refs[None, :]) / h
        kern = np.exp(-0.5 * u * u)
        ksum[lo:hi] = kern.sum(axis=1)
        if feats is not None:
            ku = u * kern
            usum[lo:hi] = ku.sum(axis=1)
            ufsum[lo:hi] = ku @ feats
    if feats is None:
        return ksum
    return ksum, usum, ufsum


def gaussian_density_nd(refs, queries, h: float):
    """Joint Gaussian-kernel density; refs is M x N, queries M x K or a length-M vector."""
    refs = np.asarray(refs, dtype=float)
    if refs.ndim != 2:
        raise InvalidInput("reference block must be channels x T")
    m, n = refs.shape
    q = np.asarray(queries, dtype=float)
    scalar = q.ndim == 1
    if scalar:
        q = q[:, None]
    if q.shape[0] != m:
        raise InvalidInput(f"query channel count {q.shape[0]} does not match references ({m})")
    k = q.shape[1]
    norm = (2.0 * np.pi) ** (-m / 2.0) / (n * h**m)
    ref_sq = np.einsum("ij,ij->j", refs, refs)
    q_sq = np.einsum("ij,ij->j", q, q)
    out = np.empty(k)
    inv = -0.5 / (h * h)
    for lo in range(0, k, _CHUNK):
        hi = min(lo + _CHUNK, k)
        d2 = q_sq[lo:hi, None] + ref_sq[None, :] - 2.0 * (q[:, lo:hi].T @ refs)
        np.maximum(d2, 0.0, out=d2)
        out[lo:hi] = np.exp(inv * d2).sum(axis=1)
    out *= norm
    return float(out[0]) if scalar else out
