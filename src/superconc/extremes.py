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
    model, n: int, batch: int, seed: int, method: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path (maxima, argmax) of a batch of sequences of ``n`` points, drawn
    block by block with :func:`sampler.reduce_blocks` from one factoring.
    Path i draws from stream i, so only Cholesky maxima move with the blocks,
    by a few ulp (see :mod:`sampler`).

    The iid maximum of n points has the exact law Phi^n and its argmax is
    uniform and independent of it, so an iid batch takes path i's maximum
    from word i of stream 0 and its argmax from draw i of stream 1 instead
    of drawing n normals; ``method`` and the blocks do not change the result
    there, and a batch is a prefix of any larger one.
    """
    plan = make_plan(model, (n,), method=method)  # factors nothing for iid
    if model.kind == "iid":
        return _iid_maxima(n, batch, seed)
    parts = reduce_blocks(plan, batch, seed, lambda x: (x.max(axis=1), x.argmax(axis=1)))
    # the leading empty pair keeps a batch of 0 two empty arrays
    maxima, argmax = zip((np.empty(0), np.empty(0, dtype=np.int64)), *parts)
    return np.concatenate(maxima), np.concatenate(argmax)


def _iid_maxima(n: int, batch: int, seed: int):
    """Exact-law iid (maxima, argmax): word w of stream 0 gives
    U = ((w >> 12) + 1/2) 2^-52, strictly inside (0, 1), and M = Phi^-1(U^(1/n));
    the argmax is numpy's exactly uniform ``integers(n)`` on stream 1.  U keeps
    52 bits: with 53, the top word's (2^53 - 1) + 1/2 rounds to 2^53 and U to 1."""
    from scipy.special import ndtri_exp  # loaded here only: importing scipy costs set-up

    words = rng.stream_generator(seed, 0).bit_generator.random_raw(batch)
    u = ((words >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52
    maxima = ndtri_exp(np.log(u) / n)
    argmax = rng.stream_generator(seed, 1).integers(n, size=batch)
    return maxima, argmax
