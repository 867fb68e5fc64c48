"""Maxima, argmaxima, extreme-value normalization and Gumbel diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .sampler import make_plan, reduce_blocks


def _stable_mean(x: np.ndarray) -> float:
    return math.fsum(x) / len(x)


@dataclass(frozen=True)
class NormalizationConstants:
    n: int
    a_n: float
    b_n: float


def norm_constants(n: int) -> NormalizationConstants:
    """Scaling a_n and centering b_n of the Gumbel limit for normal maxima.

    a_n = (2 log n)^{1/2}
    b_n = (2 log n)^{1/2} - (1/2)(2 log n)^{-1/2} (log log n + log 4 pi)

    n = 2 is allowed even though log log 2 < 0; these small-n values are
    formula probes, the limit statement is asymptotic.
    """
    if n < 2:
        raise ValueError("norm_constants requires n >= 2")
    two_log = 2.0 * math.log(n)
    a = math.sqrt(two_log)
    b = a - 0.5 / a * (math.log(math.log(n)) + math.log(4.0 * math.pi))
    return NormalizationConstants(n, a, b)


def gumbel_cdf(x):
    """P(G <= x) = exp(-exp(-x))."""
    return np.exp(-np.exp(-np.asarray(x, dtype=float)))


def gumbel_sf(x):
    """P(G > x), computed as -expm1(-e^{-x}) for accuracy in the far tail."""
    return -np.expm1(-np.exp(-np.asarray(x, dtype=float)))


def ks_to_gumbel(maxima, n: int) -> float:
    """Exact one-sample KS distance of a_n (M - b_n) to the Gumbel law."""
    m = np.sort(np.asarray(maxima, dtype=float))
    if m.size < 100:
        raise ValueError("ks_to_gumbel needs at least 100 maxima")
    nc = norm_constants(n)
    f = np.atleast_1d(gumbel_cdf(nc.a_n * (m - nc.b_n)))
    i = np.arange(1, m.size + 1)
    d_plus = np.max(i / m.size - f)
    d_minus = np.max(f - (i - 1) / m.size)
    return float(max(d_plus, d_minus))


def centering_gap(maxima, n: int) -> float:
    """Empirical mean of |a_n (M - b_n)|; bounded-centering diagnostic."""
    m = np.asarray(maxima, dtype=float)
    nc = norm_constants(n)
    return _stable_mean(np.abs(nc.a_n * (m - nc.b_n)))


def sample_maxima(
    model, n: int | tuple[int, ...], batch: int, seed: int, method: str | None = None,
    spacing: float = 1.0, stream_offset: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path (maxima, argmax) of a batch on a lattice of ``n`` points, or
    of shape ``n`` (argmax then indexes the C-order grid), drawn block by
    block with :func:`sampler.reduce_blocks`.

    The covariance is factored once for all blocks.  Path i draws from
    stream ``stream_offset + i``, so only Cholesky maxima move with the
    blocks, by a few ulp (see :mod:`sampler`).

    The iid maximum of N lattice points has the exact law Phi^N, and its
    argmax is uniform and independent of it, so for the iid model path i
    takes both from the first Philox block of its stream
    (:func:`rng.first_blocks`) instead of drawing N normals; ``method``
    and the blocks do not change the result there.
    """
    shape = tuple(n) if np.iterable(n) else (n,)
    plan = make_plan(model, shape, spacing, method)  # factors nothing for iid
    if model.kind == "iid":
        return _iid_maxima(plan.n, batch, seed, stream_offset)
    parts = reduce_blocks(plan, batch, seed, lambda x: (x.max(axis=1), x.argmax(axis=1)),
                          stream_offset)
    # the leading empty pair keeps a batch of 0 two empty arrays
    maxima, argmax = zip((np.empty(0), np.empty(0, dtype=np.int64)), *parts)
    return np.concatenate(maxima), np.concatenate(argmax)


def _iid_maxima(n: int, batch: int, seed: int, stream_offset: int):
    """Exact-law iid (maxima, argmax) from words w0, w1 of each path's block:
    U = ((w0 >> 12) + 1/2) 2^-52 lies strictly inside (0, 1), M = Phi^-1(U^(1/n))
    and argmax = mulhi(w1, n), whose bias is at most n / 2^64.  U keeps 52
    bits: with 53, the top word's (2^53 - 1) + 1/2 rounds to 2^53 and U to 1."""
    from scipy.special import ndtri_exp  # loaded here only: importing scipy costs set-up

    words = rng.first_blocks(seed, stream_offset, stream_offset + batch)
    u = ((words[:, 0] >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52
    maxima = ndtri_exp(np.log(u) / n)
    argmax = rng.mulhi(words[:, 1], n).astype(np.int64)
    return maxima, argmax
