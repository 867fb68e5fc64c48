"""Acceptance suite: one test per release criterion, at stated tolerances.

Two tests are expected to fail and are left failing on purpose; the
analysis lives in the decisions ledger:

* ``test_criterion_05`` at n = 1024 — the empirical Laplace margin of the
  iid maximum exceeds 1 (exact quadrature puts it at ~1.158), so the
  unit-multiplicity inequality it checks is not attainable there.
* ``test_criterion_10_prop52`` — with the exponential rate fitted on the
  null scan maximum, the exactly computable risk at the sharper threshold
  is 0.2262 (type I 0.0628 + type II 0.1634) > delta = 0.2, beyond the
  Monte Carlo tolerance.
"""

import math

import numpy as np
import pytest
from scipy.stats import binom, norm

from superconc.covariance import CovarianceModel, evaluate, gram_matrix
from superconc.covering import (
    TrivialCoveringError,
    build_sequence_covering,
    field_bound,
    find_sign_vectors,
    greedy_net,
    rho_analytic_sequence,
    sequence_bound,
    verify_covering,
)
from superconc.experiments import ExperimentConfig, run
from superconc.extremes import (
    centering_gap,
    corner_maxima,
    ks_to_gumbel,
    norm_constants,
    _stable_mean,
)
from superconc.sampler import grid_points, make_plan, sample_sequence
from superconc.scantest import disjoint_class, estimate_risk, threshold_prop51, threshold_prop52
from superconc.verify import (
    estimate_tail,
    fit_gaussian_rate,
    fit_tail_rate,
    laplace_check,
    variance_with_se,
)

from checkers import verify_net, verify_sign_vectors

IID = CovarianceModel("iid")
OU = CovarianceModel("ornstein_uhlenbeck", rate=1.0)
GS = CovarianceModel("gaussian_smooth", lam2=1.0)
PD = CovarianceModel("power_decay", amp=1.5, alpha_cov=2.0)


def _iid_maxima(n, batch, seed):
    """The maxima of ``batch`` iid paths of n points, drawn by their exact law."""
    [m] = corner_maxima(make_plan(IID, (n,)), [(n,)], batch, seed)
    return m


# --------------------------------------------------------------------------
# 1. sampler correctness: empirical covariance and method equivalence

@pytest.mark.parametrize("model", [IID, OU, GS], ids=["iid", "ou", "gaussian"])
@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_criterion_01_empirical_covariance(model, method):
    n, batch = 8, 10**5
    b = sample_sequence(model, n, batch, seed=5, method=method)
    emp = b.paths.T @ b.paths / batch
    g = gram_matrix(model, np.arange(n))
    se = np.sqrt((1 + g**2) / batch)
    assert np.all(np.abs(emp - g) <= 4 * se)


@pytest.mark.parametrize("model", [IID, OU, GS], ids=["iid", "ou", "gaussian"])
def test_criterion_01_methods_agree_on_maxima(model):
    n, batch = 512, 2 * 10**4
    stats = {}
    for method in ("cholesky", "circulant"):
        [m] = corner_maxima(make_plan(model, (n,), method=method), [(n,)], batch, 7)
        var, var_se = variance_with_se(m)
        stats[method] = (
            _stable_mean(m), np.std(m, ddof=1) / math.sqrt(batch), var, var_se
        )
    (m1, s1, v1, sv1), (m2, s2, v2, sv2) = stats["cholesky"], stats["circulant"]
    assert abs(m1 - m2) <= 4 * math.hypot(s1, s2)
    assert abs(v1 - v2) <= 4 * math.hypot(sv1, sv2)


# --------------------------------------------------------------------------
# 2. closed-form oracle for the iid pair maximum

def test_criterion_02_pair_maximum_closed_form():
    batch = 10**5
    m = _iid_maxima(2, batch, seed=2)
    mean = _stable_mean(m)
    mean_se = np.std(m, ddof=1) / math.sqrt(batch)
    var, var_se = variance_with_se(m)
    assert abs(mean - 1 / math.sqrt(math.pi)) <= 4 * mean_se
    assert abs(var - (1 - 1 / math.pi)) <= 4 * var_se


# --------------------------------------------------------------------------
# 3. variance scaling: Var(M_n) * log n stays in a band, at its exact value

# exact Var(M_n) * log n of the iid maximum, whose law is Phi^n, by
# quadrature (bench/oracles.py, iid_mean_var); it is not monotone in n:
# 0.852017 at n = 256 lies below 0.852447 at n = 4096
IID_VAR_LOGN = {16: 0.817941, 256: 0.852017, 4096: 0.852447, 65536: 0.851127}


def test_criterion_03_variance_scaling():
    sizes = (16, 256, 4096, 65536)
    batch = 2 * 10**4
    for i, n in enumerate(sizes):
        m = _iid_maxima(n, batch, seed=100 + i)
        var, se = variance_with_se(m)
        scaled, scaled_se = var * math.log(n), se * math.log(n)
        assert 0.4 <= scaled <= 2.5
        # within 3 jackknife SE of the exact value
        assert abs(scaled - IID_VAR_LOGN[n]) <= 3 * scaled_se


# --------------------------------------------------------------------------
# 4. Gumbel convergence of the normalized maximum

def test_criterion_04_gumbel_convergence():
    sizes = (100, 1000, 10000)
    batch = 5000
    ks = []
    gaps = []
    for n in sizes:
        m = _iid_maxima(n, batch, seed=31)
        ks.append(ks_to_gumbel(m, n))
        gaps.append(centering_gap(m, n))
    assert ks[0] > ks[1] > ks[2]
    assert ks[2] < 0.12
    # the centering gap is bounded with no growth trend
    assert max(gaps) < 2.0
    assert max(gaps) <= 1.2 * min(gaps)


# --------------------------------------------------------------------------
# 5. Laplace-transform inequality with the singleton covering (C = 1)
#
# The n = 1024 leg fails: the true margin there is ~1.158 (exact
# quadrature), so the inequality with unit multiplicity does not hold.
# Left failing deliberately; see the decisions ledger.

@pytest.mark.parametrize("n", [64, 1024])
def test_criterion_05_laplace_inequality(n):
    batch = 10**5
    K = 1.0 / math.log(n)
    m = _iid_maxima(n, batch, seed=13)
    chk = laplace_check(m, K, theta_points=21)
    assert not chk.overflow.any()
    assert np.all(chk.margin <= 1.0 + 5.0 * chk.margin_se)


def test_criterion_05_lognormal_synthetic_oracle():
    # Z standard normal, K = 1: margin(theta) = 4 (1 - e^{-theta^2/4}) / theta^2
    size = 4 * 10**6
    z = norm.ppf((np.arange(size) + 0.5) / size)  # quantile-stratified
    chk = laplace_check(z, K=1.0, theta_points=21)
    for th, mg in zip(chk.theta, chk.margin):
        oracle = 1.0 if th == 0 else 4 * (1 - math.exp(-th * th / 4)) / (th * th)
        assert mg == pytest.approx(oracle, rel=5e-4)  # 3 significant figures


# --------------------------------------------------------------------------
# 6. tail shape: exponential-like, not Gaussian-like, with a dominating bound

def test_criterion_06_tail_shape():
    n, batch = 4096, 10**5
    K = 1.0 / math.log(n)
    m = _iid_maxima(n, batch, seed=21)
    t_grid = np.linspace(0.0, 2.0, 41)
    tail = estimate_tail(m, n, "mean", t_grid)
    exp_fit = fit_tail_rate(tail, K)
    gauss_fit = fit_gaussian_rate(tail)
    assert exp_fit.rate > 0
    assert exp_fit.r2 >= 0.9
    assert gauss_fit.r2 <= exp_fit.r2 + 0.05
    bound = 6.0 * np.exp(-exp_fit.rate * t_grid * math.sqrt(math.log(n)))
    assert np.all(tail.survival <= bound)


# --------------------------------------------------------------------------
# 7. covering correctness over a (model, n, alpha) grid

def test_criterion_07_coverings_verify_exhaustively():
    for model in (OU, GS, PD):
        for n in (16, 64, 256, 1024, 4096):
            for alpha in (0.3, 0.5, 0.7):
                m = int(math.floor(n**alpha))
                if 2 * m >= n:
                    with pytest.raises(TrivialCoveringError):
                        build_sequence_covering(n, alpha)
                    continue
                cov = build_sequence_covering(n, alpha)
                assert cov.multiplicity == 3
                r0 = float(evaluate(model, float(m)))
                ok, witness = verify_covering(
                    cov, gram_matrix(model, np.arange(n)), r0
                )
                assert ok, (model.kind, n, alpha, witness)


def test_criterion_07_mc_rho_within_analytic_bound():
    # the analytic route is valid where alpha < (c_sud * delta)^2 / 2:
    # iid (delta = 2) and a fast-mixing process (delta close to 2) at alpha = 0.3
    fast = CovarianceModel("ornstein_uhlenbeck", rate=3.0)
    for model in (IID, fast):
        for n in (256, 1024, 4096):
            rep = sequence_bound(model, n, 0.3, rho_source="monte_carlo",
                                 batch=10**4, seed=3)
            ana = rho_analytic_sequence(n, 0.3, rep.delta)
            assert rep.rho <= ana.rho + 4 * rep.rho_se


# --------------------------------------------------------------------------
# 8. field pipeline: covering number, verified net, growth constants

def test_criterion_08_field_pipeline():
    smooth = CovarianceModel("gaussian_smooth", lam2=2.0)
    rep = field_bound(smooth, 1, 100.0, seed=0)
    assert rep.N_A == 50  # N([0, 100]) exactly
    assert rep.c1 <= rep.c2
    assert rep.fit_slope > 0
    # K matches the displayed max-formula to machine precision
    expected_K = max(
        float(evaluate(smooth, 50.0**rep.exponent_ratio)), 1.0 / math.log(50)
    )
    assert rep.K == expected_K


def test_criterion_08_greedy_net_verified():
    pts = grid_points(2, [19.0, 19.0], 1.0)  # 20 x 20 grid
    idx = greedy_net(pts, 3.0)
    ok, witness = verify_net(pts, idx, 3.0)
    assert ok, witness


# --------------------------------------------------------------------------
# 9. sign vectors: construction, exhaustive verification, acceptance rate

def test_criterion_09_sign_vectors():
    n, N = 100, 50
    res = find_sign_vectors(n, N, seed=0)
    assert res.tries < 10**4
    assert res.accepted == N
    ok, witness = verify_sign_vectors(res.vectors, res.threshold)
    assert ok, witness
    # acceptance rate of a pairwise test vs the binomial-tail oracle:
    # |sigma . sigma'| = |2 B - n| with B ~ Binomial(n, 1/2)
    tau = n ** (2.0 / 3.0)
    hi = math.floor((n + tau) / 2)
    lo = math.ceil((n - tau) / 2)
    p_pass = binom.cdf(hi, n, 0.5) - binom.cdf(lo - 1, n, 0.5)
    rate = res.pair_pass / res.pair_tests
    se = math.sqrt(p_pass * (1 - p_pass) / res.pair_tests)
    assert abs(rate - p_pass) <= 4 * se


# --------------------------------------------------------------------------
# 10. scan test risk at both thresholds, plus the threshold-ordering table
#
# The prop52 leg fails: with the rate fitted on the null scan maximum the
# exact risk at (n, K, N) = (100, 10, 10), delta = 0.2 is 0.2262 > delta
# (type I 0.0628 + type II 0.1634, each below delta; closed form at the
# test's mu = 1.08375, tau = 7.85988).
# Left failing deliberately; see the decisions ledger.

CLS = disjoint_class(10, 10, n=100)


def test_criterion_10_prop51_risk():
    rep = estimate_risk(CLS, threshold_kind="prop51", trials=2000, seed=0,
                        delta_target=0.2)
    assert rep.risk <= 0.2 + 3 * rep.risk_se


def test_criterion_10_prop52_risk():
    rep = estimate_risk(CLS, threshold_kind="prop52", trials=2000, seed=0,
                        delta_target=0.2)
    assert rep.c_used > 0
    assert rep.risk <= 0.2 + 3 * rep.risk_se


def test_criterion_10_threshold_ordering():
    K, N, e0max = 10, 10, 4.866
    c = 1.0
    d_mid = 1.0 / math.log(N)
    assert threshold_prop52(K, N, d_mid, c, e0max) < threshold_prop51(K, d_mid, e0max)
    d_tiny = math.exp(-N)
    assert threshold_prop51(K, d_tiny, e0max) < threshold_prop52(K, N, d_tiny, c, e0max)


# --------------------------------------------------------------------------
# 11. reproducibility: byte-identical reruns, bounded seed sensitivity

def test_criterion_11_byte_identical_rerun(tmp_path):
    def go(out):
        cfg = ExperimentConfig(
            kind="variance_scaling", model=IID, sizes=(16, 64), batch=4000,
            seed=11, out=str(tmp_path / out), params={},
        )
        return run(cfg)
    a = go("a")
    b = go("b")
    assert a["csv"].read_bytes() == b["csv"].read_bytes()
    assert a["summary"].read_bytes() == b["summary"].read_bytes()


def test_criterion_11_seed_sensitivity():
    for n in (16, 64):
        v1, s1 = variance_with_se(_iid_maxima(n, 4000, seed=11))
        v2, s2 = variance_with_se(_iid_maxima(n, 4000, seed=12))
        assert abs(v1 - v2) <= 5 * math.hypot(s1, s2)
