"""Scan test over a class of equal-cardinality index sets.

The test statistic is the maximum of the set sums X_S, S in the class.
The null is an iid standard normal vector; under the alternative mu is
added to the coordinates of one set.  The test rejects the null when
2 max_S X_S >= mu K + E_0[max_S X_S].  Two acceptance thresholds for mu
are provided: a Gaussian-concentration threshold and a sharper one based
on the exponential concentration of the maximum, which needs the tail
constant c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .covariance import CovarianceModel
from .extremes import _stable_mean
from .sampler import _check_capacity, make_plan, reduce_blocks
from .verify import estimate_tail, fit_tail_rate

MAX_ALTERNATIVES = 64
# streams owned by each estimate of estimate_risk: E0max, calibration, the
# null (which each alternative reads too) and picker start at consecutive
# multiples of this
STREAM_BLOCK = 10**6


@dataclass(frozen=True)
class ScanClass:
    n: int
    sets: np.ndarray  # (N, K) integer index array

    def __post_init__(self):
        s = np.asarray(self.sets)
        if s.ndim != 2 or s.shape[1] < 1:
            raise ValueError("sets must be an (N, K) index array with K >= 1")
        if s.shape[0] < 2:
            raise ValueError("need at least 2 sets (thresholds involve log N)")
        # numpy reads a bool among the ints of a list as 0 or 1
        bools = not isinstance(self.sets, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(self.sets, dtype=object).flat)
        if bools or s.dtype.kind not in "iuf" or not np.array_equal(s, np.trunc(s)):
            raise ValueError("set indices must be whole numbers, not bools")
        if s.min() < 0 or s.max() >= self.n:
            raise ValueError("set indices must lie in [0, n)")
        s = s.astype(np.int64)
        if (np.diff(np.sort(s, axis=1), axis=1) == 0).any():
            raise ValueError("each set must consist of distinct indices")
        object.__setattr__(self, "sets", np.ascontiguousarray(s))

    @property
    def N(self) -> int:
        return self.sets.shape[0]

    @property
    def K(self) -> int:
        return self.sets.shape[1]


def class_shape(name: str, a: int, b: int, n: int | None = None) -> tuple[int, int, int]:
    """(n, N, K) of the class of the spec ``disjoint:N,K`` (N = a disjoint
    blocks of K = b indices among n, by default N K) or ``sliding:n,K`` (the
    windows of K = b among n = a), from the numbers alone; a ValueError for a
    class they rule out."""
    if name == "sliding":
        if b < 1 or b > a - 1:
            raise ValueError("need 1 <= K <= n - 1")
        return a, a - b + 1, b
    n = a * b if n is None else n
    if n < a * b:
        raise ValueError("n too small for N disjoint sets of size K")
    if b < 1:
        raise ValueError("sets must be an (N, K) index array with K >= 1")
    if a < 2:
        raise ValueError("need at least 2 sets (thresholds involve log N)")
    return n, a, b


def _sized_shape(name: str, a: int, b: int, n: int | None = None) -> tuple[int, int, int]:
    """:func:`class_shape`, with the bytes of the class's sets checked against the cap."""
    n, N, K = class_shape(name, a, b, n)
    # the N x K sets, the three copies ScanClass checks them in, and a sliding class's ramps
    _check_capacity(32 * N * K + 8 * (N + K), f"the sets of the {name}:{a},{b} class")
    return n, N, K


def disjoint_class(N: int, K: int, n: int | None = None) -> ScanClass:
    """N disjoint blocks of K consecutive indices."""
    n, N, K = _sized_shape("disjoint", N, K, n)
    return ScanClass(n, np.arange(N * K).reshape(N, K))


def sliding_class(n: int, K: int) -> ScanClass:
    """All n - K + 1 sliding windows of length K."""
    n, N, K = _sized_shape("sliding", n, K)
    return ScanClass(n, np.arange(N)[:, None] + np.arange(K)[None, :])


def set_sums(x: np.ndarray, cls: ScanClass) -> np.ndarray:
    """X_S for every S; x is a vector or a (trials, n) block.  The K columns
    are added in order, so a row's sums are the same bits in any block."""
    x = np.asarray(x, dtype=float)
    sums = x[..., cls.sets[:, 0]]
    for col in cls.sets.T[1:]:
        sums += x[..., col]
    return sums


def threshold_prop51(K: int, delta: float, e0max: float) -> float:
    """Gaussian-concentration acceptance level for mu."""
    if not 0 < delta <= 2:
        raise ValueError("delta must lie in (0, 2]")
    return e0max / K + 2.0 * math.sqrt(2.0 / K * math.log(2.0 / delta))


def threshold_prop52(K: int, N: int, delta: float, c: float, e0max: float) -> float:
    """Superconcentration acceptance level for mu; needs the tail constant c."""
    if not 0 < delta <= 6:
        raise ValueError("delta must lie in (0, 6]")
    if c <= 0:
        raise ValueError("c must be positive")
    if N < 2:
        raise ValueError("N must be at least 2")
    return e0max / K + math.log(6.0 / delta) * 2.0 / (c * math.sqrt(K * math.log(N)))


def threshold_table(K: int, N: int, e0max: float, deltas, c: float = 1.0):
    """Rows (delta, prop51 threshold, prop52 threshold) for a delta grid."""
    rows = []
    for d in deltas:
        t51 = threshold_prop51(K, d, e0max) if d <= 2 else math.nan
        t52 = threshold_prop52(K, N, d, c, e0max)
        rows.append((float(d), t51, t52))
    return rows


def _scan_blocks(cls: ScanClass, trials: int, seed: int, offset: int, reduce) -> tuple:
    """The arrays of ``reduce(set sums)`` over all null trials; trial i is stream offset + i."""
    # a row holds n normals and N set sums
    return reduce_blocks(make_plan(CovarianceModel("iid"), (cls.n,)), trials, seed,
                         lambda x: reduce(set_sums(x, cls)), offset, row_elems=max(cls.n, cls.N))


def _null_scan_maxima(cls: ScanClass, trials: int, seed: int, offset: int = 0) -> np.ndarray:
    return _scan_blocks(cls, trials, seed, offset, lambda s: (s.max(axis=1),))[0]


def _risk_outcomes(cls: ScanClass, trials: int, seed: int, offset: int, tau: float,
                   mu: float, chosen) -> tuple[np.ndarray, np.ndarray]:
    """Per null trial, 1[max_S X_S >= tau] and the share of chosen j with
    max_S (X_S + mu |S & S_j|) < tau: the alternative on S_j adds mu to the
    coordinates of S_j, so each set sum moves by mu times its overlap."""
    shifts = [mu * np.isin(cls.sets, cls.sets[j]).sum(axis=1) for j in chosen]

    def outcomes(sums):
        missed = np.zeros(len(sums), dtype=np.int64)
        for shift in shifts:
            missed += (sums + shift).max(axis=1) < tau
        return sums.max(axis=1) >= tau, missed

    reject, missed = _scan_blocks(cls, trials, seed, offset, outcomes)
    return reject, missed / len(shifts)


def estimate_E0max(cls: ScanClass, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of E_0[max_S X_S] with its standard error."""
    maxima = _null_scan_maxima(cls, trials, seed)
    se = float(np.std(maxima, ddof=1)) / math.sqrt(trials)
    return _stable_mean(maxima), se


def calibrate_c(cls: ScanClass, seed: int = 0) -> float:
    """Fit the exponential tail constant on 10^4 null scan maxima.

    The maximum of N set sums of K standard normals concentrates at scale
    sqrt(K / log N), so the deviations are fitted against the bound
    6 exp(-c t / sqrt(K / log N)), recovering the constant of the
    acceptance threshold.
    """
    maxima = _null_scan_maxima(cls, 10**4, seed, offset=STREAM_BLOCK)
    dev = np.abs(maxima - _stable_mean(maxima))
    grid = np.linspace(0.0, float(np.quantile(dev, 0.9995)), 48)[1:]
    tail = estimate_tail(maxima, cls.n, "mean", grid)
    k_fit = cls.K / math.log(cls.N)
    fit = fit_tail_rate(tail, k_fit)
    if fit.rate <= 0:
        raise ValueError("tail calibration produced a nonpositive rate")
    return fit.rate


@dataclass
class RiskReport:
    mu: float
    delta_target: float | None
    threshold_kind: str
    c_used: float | None
    e0max: float
    e0max_se: float
    tau: float
    type1: float
    type1_se: float
    type2_mean: float
    type2_se: float
    risk: float
    risk_se: float
    trials: int
    n_alternatives: int
    subsampled: bool
    low_resolution: bool

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def estimate_risk(
    cls: ScanClass,
    mu: float | None = None,
    threshold_kind: str = "prop51",
    c: float | None = None,
    trials: int = 2000,
    seed: int = 0,
    delta_target: float | None = None,
) -> RiskReport:
    """Monte Carlo risk (type I plus averaged type II) of the scan test.

    When mu is None it is set to the acceptance threshold of the requested
    kind at delta_target; prop52 calibrates c on the null scan maximum
    unless one is supplied.  The type II average runs over every set, or
    over a seeded uniform subsample of 64 sets when N > 64.

    One null draw of ``trials`` vectors serves the null and every
    alternative (common random numbers), so the SEs of the type II mean and
    of the risk are sd/sqrt(trials) of their per-trial values.  Each
    variance, like type I's binomial one, is floored at 1/trials so that
    zero-count cells still report a resolution limit instead of SE = 0.
    """
    if threshold_kind not in ("prop51", "prop52"):
        raise ValueError("threshold kind must be 'prop51' or 'prop52'")
    if trials > STREAM_BLOCK:
        raise ValueError(f"{trials} trials overrun the {STREAM_BLOCK}-stream block")
    e0max, e0se = estimate_E0max(cls, max(trials, 10**4), seed)

    c_used = c
    if mu is None:
        if delta_target is None:
            raise ValueError("either mu or delta_target must be given")
        if threshold_kind == "prop51":
            mu = threshold_prop51(cls.K, delta_target, e0max)
        else:
            if c_used is None:
                c_used = calibrate_c(cls, seed=seed)
            mu = threshold_prop52(cls.K, cls.N, delta_target, c_used, e0max)

    tau = (mu * cls.K + e0max) / 2.0
    subsampled = cls.N > MAX_ALTERNATIVES
    if subsampled:
        picker = rng.stream_generator(seed, 3 * STREAM_BLOCK)
        chosen = picker.choice(cls.N, size=MAX_ALTERNATIVES, replace=False)
    else:
        chosen = np.arange(cls.N)
    reject, missed = _risk_outcomes(cls, trials, seed, 2 * STREAM_BLOCK, tau, mu, chosen)
    type1, type2 = float(np.mean(reject)), float(np.mean(missed))
    type1_se, type2_se, risk_se = (
        math.sqrt(max(var, 1.0 / trials) / trials)
        for var in (type1 * (1 - type1), np.var(missed), np.var(reject + missed)))
    risk = type1 + type2
    low_res = delta_target is not None and risk_se > delta_target / 3.0
    return RiskReport(
        mu=float(mu), delta_target=delta_target, threshold_kind=threshold_kind,
        c_used=c_used, e0max=e0max, e0max_se=e0se, tau=tau,
        type1=type1, type1_se=type1_se, type2_mean=type2, type2_se=type2_se,
        risk=risk, risk_se=risk_se, trials=trials,
        n_alternatives=len(chosen), subsampled=subsampled, low_resolution=low_res,
    )
