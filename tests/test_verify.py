import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superconc.extremes import corner_maxima
from superconc.sampler import make_plan
from superconc.verify import (
    FIT_R2_OK,
    FIT_SURVIVAL_MAX,
    FIT_SURVIVAL_MIN,
    TailEstimate,
    estimate_tail,
    fit_gaussian_rate,
    fit_tail_rate,
    laplace_check,
    variance_with_se,
    wilson_interval,
)


def _synthetic_tail(t, survival):
    t = np.asarray(t, dtype=float)
    s = np.asarray(survival, dtype=float)
    return TailEstimate(
        t=t, survival=s, lo=s, hi=s, center="mean", center_value=0.0,
    )


def test_variance_with_se_matches_naive_jackknife(rng_np):
    x = rng_np.standard_normal(40)
    var, se = variance_with_se(x)
    assert var == pytest.approx(np.var(x, ddof=1))
    loo = np.array([np.var(np.delete(x, i), ddof=1) for i in range(40)])
    se_naive = math.sqrt(39 / 40 * np.sum((loo - loo.mean()) ** 2))
    assert se == pytest.approx(se_naive, rel=1e-10)


def test_variance_with_se_needs_three():
    with pytest.raises(ValueError):
        variance_with_se(np.array([1.0, 2.0]))


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.404, abs=0.005)
    assert hi == pytest.approx(0.596, abs=0.005)
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo0, _ = wilson_interval(0, 50)
    assert lo0 == 0.0


def test_tail_from_deviations_counts():
    # mean 2 and deviations 1.5, 0.25, 0.75, 0.5, all exact in binary
    maxima = np.array([3.5, 1.75, 1.25, 1.5])
    tail = estimate_tail(maxima, 4, "mean", [0.0, 0.5, 1.0, 3.0])
    assert tail.center_value == 2.0
    assert list(tail.survival) == [1.0, 0.75, 0.25, 0.0]
    assert np.all(tail.lo <= tail.survival)
    assert np.all(tail.survival <= tail.hi)


@pytest.mark.parametrize("b", [6, 21, 31, 38])
def test_estimate_tail_band_holds_a_survival_of_one(b):
    # every deviation is >= 0, none is >= 10: the Wilson band ends at exactly 1 and 0
    tail = estimate_tail(np.linspace(-1.0, 1.0, b), b, "mean", [0.0, 10.0])
    assert list(tail.survival) == [1.0, 0.0]
    assert tail.hi[0] == 1.0 and tail.lo[1] == 0.0
    assert np.all(tail.lo <= tail.survival) and np.all(tail.survival <= tail.hi)


def test_estimate_tail_center_validation(iid):
    [m] = corner_maxima(make_plan(iid, (8,)), [(8,)], 10, seed=0)
    with pytest.raises(ValueError):
        estimate_tail(m, 8, "median", [0.0, 1.0])


def test_estimate_tail_centers_differ_by_shift(iid):
    t = np.linspace(0, 2, 9)
    [m] = corner_maxima(make_plan(iid, (64,)), [(64,)], 2000, seed=1)
    a = estimate_tail(m, 64, "mean", t)
    b = estimate_tail(m, 64, "b_n", t)
    assert a.center_value != b.center_value
    assert abs(a.center_value - b.center_value) < 0.5


def test_fit_exact_exponential_recovers_rate():
    # survival 6 exp(-4 t) from 0.30 down to 0.0067, inside the fit's window
    K = 0.25
    t = np.linspace(0.75, 1.7, 30)
    tail = _synthetic_tail(t, 6 * np.exp(-2 * t / math.sqrt(K)))
    assert np.all((tail.survival >= FIT_SURVIVAL_MIN) & (tail.survival <= FIT_SURVIVAL_MAX))
    fit = fit_tail_rate(tail, K)
    assert fit.rate == pytest.approx(2.0, abs=1e-6)
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0)
    assert fit.ok


def test_fit_flags_gaussian_shape_as_non_exponential():
    # curvature detection: a Gaussian synthetic survival must not pass as
    # exponential on the fit's window
    t = np.linspace(0.05, 6.0, 120)
    tail = _synthetic_tail(t, 2 * np.exp(-(t**2) / 2))
    assert not fit_tail_rate(tail, 1.0).ok


def test_fit_gaussian_rate_exact():
    # survival 2 exp(-0.35 t^2) from 0.299 down to 0.0012, inside the window
    t = np.linspace(2.33, 4.6, 40)
    tail = _synthetic_tail(t, 2 * np.exp(-0.7 * t**2 / 2))
    assert np.all((tail.survival >= FIT_SURVIVAL_MIN) & (tail.survival <= FIT_SURVIVAL_MAX))
    fit = fit_gaussian_rate(tail)
    assert fit.rate == pytest.approx(0.7, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0)


def test_fit_needs_enough_points():
    t = np.array([0.5, 1.0, 2.0])
    tail = _synthetic_tail(t, 6 * np.exp(-t))
    with pytest.raises(ValueError, match="grid points"):
        fit_tail_rate(tail, 1.0)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.05, max_value=5.0))
def test_fit_scale_consistency(K):
    # quadrupling K halves the abscissa, doubling the fitted rate exactly;
    # the survival runs from 0.29 down to 0.0011, inside the fit's window
    t = np.linspace(2.2, 6.5, 50)
    tail = _synthetic_tail(t, np.exp(-1.3 * t) * 5.0)
    f1 = fit_tail_rate(tail, K)
    tail2 = _synthetic_tail(t, np.exp(-1.3 * t) * 5.0)
    f2 = fit_tail_rate(tail2, 4 * K)
    assert f2.rate == pytest.approx(2 * f1.rate, rel=1e-9)


def test_laplace_theta_zero_is_variance_over_K(rng_np):
    z = rng_np.standard_normal(5000)
    chk = laplace_check(z, K=0.5, theta_points=5)
    mid = 2  # theta grid is symmetric, middle point is 0
    assert chk.theta[mid] == 0.0
    assert chk.margin[mid] == pytest.approx(np.var(z, ddof=1) / 0.5)


def test_laplace_margin_shift_invariant(rng_np):
    x = rng_np.standard_normal(4000)
    a = laplace_check(x, K=1.0, theta_points=9)
    b = laplace_check(x + 17.0, K=1.0, theta_points=9)
    assert np.allclose(a.margin, b.margin, equal_nan=True)


def test_laplace_lognormal_oracle():
    # For Z standard normal and K = 1 the margin is 4(1 - e^{-theta^2/4})/theta^2;
    # a quantile-stratified sample reproduces it to high accuracy
    n = 2 * 10**5
    from scipy.stats import norm

    z = norm.ppf((np.arange(n) + 0.5) / n)
    chk = laplace_check(z, K=1.0, theta_points=9)
    for th, mg in zip(chk.theta, chk.margin):
        if th == 0.0:
            oracle = 1.0
        else:
            oracle = 4 * (1 - math.exp(-th * th / 4)) / (th * th)
        assert mg == pytest.approx(oracle, rel=5e-3)


def test_laplace_window_and_overflow():
    chk = laplace_check(np.linspace(-1, 1, 200), K=4.0, theta_points=7)
    assert chk.theta[0] == pytest.approx(-1.0)  # 2 / sqrt(4)
    assert chk.theta[-1] == pytest.approx(1.0)
    # enormous values overflow the exponential and are flagged, not raised
    big = np.concatenate([np.zeros(100), [5000.0]])
    chk2 = laplace_check(big, K=1e-6, theta_points=5)
    assert chk2.overflow.any()
    assert np.isnan(chk2.margin[chk2.overflow]).all()


def test_laplace_rejects_bad_K(rng_np):
    with pytest.raises(ValueError):
        laplace_check(rng_np.standard_normal(100), K=0.0)

