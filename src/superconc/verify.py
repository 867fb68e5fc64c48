"""Statistics of a batch of maxima: variance and tail estimates,
exponential-rate fitting, and the Laplace-transform variance check.
Drawing the maxima is the caller's job (``extremes.corner_maxima``)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extremes import _stable_mean, norm_constants

FIT_SURVIVAL_MIN = 1e-3
FIT_SURVIVAL_MAX = 0.3
FIT_MIN_POINTS = 5
FIT_R2_OK = 0.9
LAPLACE_SE_GROUPS = 20  # laplace_check's margin_se comes from this many group means


def variance_with_se(x: np.ndarray) -> tuple[float, float]:
    """Unbiased sample variance with its jackknife SE."""
    b = len(x)
    if b < 3:
        raise ValueError("need at least 3 samples for a jackknife SE")
    mean = _stable_mean(x)
    d2 = (x - mean) ** 2
    ss = math.fsum(d2)
    var = ss / (b - 1)
    # leave-one-out variances are affine in d2; jackknife variance in closed form
    loo = (ss - d2 * b / (b - 1)) / (b - 2)
    se = math.sqrt((b - 1) / b * float(np.sum((loo - loo.mean()) ** 2)))
    return var, se


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95 % Wilson score interval for a binomial proportion; its ends are
    exactly 0 at k = 0 and exactly 1 at k = n, where rounding would leave
    them an ulp inside."""
    if n == 0:
        return 0.0, 1.0
    p, z = k / n, 1.96
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


@dataclass
class FitResult:
    rate: float
    intercept: float
    r2: float
    ok: bool


@dataclass
class TailEstimate:
    t: np.ndarray
    survival: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    center: str
    center_value: float


def estimate_tail(maxima: np.ndarray, n: int, center: str, t_grid) -> TailEstimate:
    """Empirical survival of |M - center| on a t grid with Wilson bands, for
    maxima over ``n`` points; ``center`` is 'mean' or 'b_n'."""
    if center not in ("mean", "b_n"):
        raise ValueError("center must be 'mean' or 'b_n'")
    cval = _stable_mean(maxima) if center == "mean" else norm_constants(n).b_n
    dev = np.abs(maxima - cval)
    t = np.asarray(t_grid, dtype=float)
    b = len(dev)
    counts = np.array([(dev >= ti).sum() for ti in t])
    bands = np.array([wilson_interval(int(k), b) for k in counts])
    return TailEstimate(
        t=t, survival=counts / b, lo=bands[:, 0], hi=bands[:, 1], center=center,
        center_value=cval,
    )


class FitError(ValueError):
    """Too few points of a tail estimate lie in the range a fit takes."""


def _select_fit_points(tail: TailEstimate):
    s = tail.survival
    loose = (s >= 1e-4) & (s <= 0.5) & (tail.t > 0)
    if loose.sum() < FIT_MIN_POINTS:
        raise FitError(
            f"tail fit needs >= {FIT_MIN_POINTS} grid points with survival "
            "in [1e-4, 0.5]"
        )
    return (s >= FIT_SURVIVAL_MIN) & (s <= FIT_SURVIVAL_MAX) & (tail.t > 0)


# An exponential tail 6 exp(-c x) has -log(s/6) affine in x with a
# nonnegative intercept; a strongly negative fitted intercept means the
# implied survival at 0 exceeds the constant 6, the signature of a
# super-exponential (Gaussian-like) curve.
FIT_INTERCEPT_MIN = -0.5


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - slope * x - intercept
    tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - float(np.sum(resid**2) / tot) if tot > 0 else 1.0
    return float(slope), float(intercept), r2


def fit_tail_rate(tail: TailEstimate, K: float) -> FitResult:
    """Least-squares rate of survival ~ 6 exp(-c t / sqrt(K)).

    Fits -log(survival/6) against t/sqrt(K) where the survival lies in
    [FIT_SURVIVAL_MIN, FIT_SURVIVAL_MAX].  ok is False when the fit detects
    curvature (R^2 < 0.9 or a clearly negative intercept) or the rate is
    nonpositive.
    """
    mask = _select_fit_points(tail)
    t = tail.t[mask]
    y = -np.log(tail.survival[mask] / 6.0)
    x = t / math.sqrt(K)
    rate, intercept, r2 = _linear_fit(x, y)
    return FitResult(
        rate=rate, intercept=intercept, r2=r2,
        ok=(rate > 0 and r2 >= FIT_R2_OK and intercept >= FIT_INTERCEPT_MIN),
    )


def fit_gaussian_rate(tail: TailEstimate) -> FitResult:
    """Comparison fit of survival ~ 2 exp(-a t^2 / 2) on the same range."""
    mask = _select_fit_points(tail)
    t = tail.t[mask]
    y = -np.log(tail.survival[mask] / 2.0)
    x = t**2 / 2.0
    rate, intercept, r2 = _linear_fit(x, y)
    return FitResult(
        rate=rate, intercept=intercept, r2=r2,
        ok=(rate > 0 and r2 >= FIT_R2_OK),
    )


@dataclass
class LaplaceCheck:
    theta: np.ndarray
    margin: np.ndarray
    margin_se: np.ndarray
    overflow: np.ndarray
    C_hat: float
    K: float


def _margin_one(z: np.ndarray, theta: float, K: float) -> float:
    if theta == 0.0:
        return float(np.var(z, ddof=1)) / K
    a = np.exp(theta * z / 2.0)
    var = float(np.var(a, ddof=1))
    e_full = float(np.mean(a * a))
    return var / (theta**2 / 4.0 * K * e_full)


def laplace_check(maxima, K: float, theta_points: int = 21) -> LaplaceCheck:
    """Check Var(e^{theta Z/2}) <= (theta^2/4) K E[e^{theta Z}] on the window.

    Z is the mean-centered maximum; the margin is the ratio of the two
    sides, so values <= C (the covering multiplicity) verify the
    inequality.  The window is |theta| <= 2/sqrt(K); theta = 0 uses the
    second-order limit Var(Z)/K.  Standard errors come from
    ``LAPLACE_SE_GROUPS`` contiguous group means.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    m = np.asarray(maxima, dtype=float)
    z = m - _stable_mean(m)
    lim = 2.0 / math.sqrt(K)
    thetas = np.linspace(-lim, lim, theta_points)
    margin = np.empty(theta_points)
    se = np.empty(theta_points)
    overflow = np.zeros(theta_points, dtype=bool)
    bounds = np.linspace(0, len(z), LAPLACE_SE_GROUPS + 1).astype(int)
    for i, th in enumerate(thetas):
        with np.errstate(over="raise"):
            try:
                margin[i] = _margin_one(z, float(th), K)
                gm = [
                    _margin_one(z[a:b], float(th), K)
                    for a, b in zip(bounds[:-1], bounds[1:])
                    if b - a >= 2
                ]
                se[i] = float(np.std(gm, ddof=1)) / math.sqrt(len(gm))
            except FloatingPointError:
                margin[i] = math.nan
                se[i] = math.nan
                overflow[i] = True
    c_hat = float(np.nanmax(margin))
    return LaplaceCheck(thetas, margin, se, overflow, c_hat, K)

