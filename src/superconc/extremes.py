"""Lattice maxima, extreme-value normalization and Gumbel diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import rng
from .sampler import reduce_blocks


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


def corner_maxima(plan, corners, batch: int, seed: int) -> tuple[np.ndarray, ...]:
    """Per-path maxima of each corner [0, c_1) x ... of the plan's lattice, in
    the caller's order, from one draw of ``batch`` paths, path i on stream i.
    A corner of a stationary lattice is the lattice of its shape, so each has
    its exact law.  An iid plan draws no normals: the sorted distinct point
    counts of nested corners (prefixes, dyadic boxes) cut the lattice into
    segments, segment j of k points is Phi^k of the words of stream j + (j > 0)
    (:func:`_iid_maxima`; skipping stream 1 keeps the bytes of multi-size iid
    maxima), and a corner's running maximum has the corners' exact joint law."""
    if plan.method == "iid":
        sizes = sorted({math.prod(c) for c in corners})
        running = accumulate((_iid_maxima(b - a, batch, seed, j + (j > 0)) for j, (a, b)
                              in enumerate(zip([0, *sizes], sizes))), np.maximum)
        by_size = dict(zip(sizes, running))
        return tuple(by_size[math.prod(c)] for c in corners)
    cuts = [(slice(None),) + tuple(slice(0, c) for c in corner) for corner in corners]
    axes = tuple(range(1, len(plan.shape) + 1))
    return reduce_blocks(plan, batch, seed, lambda x: [
        x.reshape(len(x), *plan.shape)[c].max(axis=axes) for c in cuts])


def _iid_maxima(n: int, batch: int, seed: int, stream: int) -> np.ndarray:
    """Exact-law maxima of ``batch`` iid paths of n points: word w of the
    stream gives U = ((w >> 12) + 1/2) 2^-52, strictly inside (0, 1), and
    M = Phi^-1(U^(1/n)).  U keeps 52 bits: with 53, the top word's
    (2^53 - 1) + 1/2 rounds to 2^53 and U to 1."""
    words = rng.stream_generator(seed, stream).bit_generator.random_raw(batch)
    u = ((words >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52
    return _ndtri_exp(np.log(u) / n)


# Wichura's AS241 (PPND16, Appl. Statist. 37, 1988): rational approximations
# of Phi^-1 in the centre, |p - 1/2| <= 0.425, and in the tails in
# r = sqrt(-log(tail probability)), for r <= 5 and past it; highest degree first
_CENTRE = ((2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
            4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
            1.3314166789178437745e2, 3.3871328727963666080e0),
           (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
            2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
            4.2313330701600911252e1, 1.0))
_NEAR = ((7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
          1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
          4.63033784615654529590e0, 1.42343711074968357734e0),
         (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
          1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
          2.05319162663775882187e0, 1.0))
_FAR = ((2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
         2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
         5.46378491116411436990e0, 6.65790464350110377720e0),
        (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
         7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
         5.99832206555887937690e-1, 1.0))


def _ratio(coeffs, x):
    return np.polyval(coeffs[0], x) / np.polyval(coeffs[1], x)


def _ndtri_exp(y: np.ndarray) -> np.ndarray:
    """Phi^-1(e^y) for an array of y < 0, by AS241 on the log scale.  Above
    p = e^y = 1/2, p - 1/2 and the upper tail's probability 1 - p come from
    expm1(y), which keeps the digits that rounding e^y near 1 would lose."""
    q = np.where(y > -math.log(2.0), np.expm1(y) + 0.5, np.exp(y) - 0.5)
    centre = np.abs(q) <= 0.425
    out = np.empty_like(y)
    qc = q[centre]
    out[centre] = qc * _ratio(_CENTRE, 0.180625 - qc * qc)
    upper = q[~centre] > 0
    yt = y[~centre]
    r = np.sqrt(-np.where(upper, np.log(-np.expm1(yt)), yt))
    tail = np.where(r <= 5.0, _ratio(_NEAR, r - 1.6), _ratio(_FAR, r - 5.0))
    out[~centre] = np.where(upper, tail, -tail)
    return out
