import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superconc import sampler, scantest
from superconc.scantest import (
    STREAM_BLOCK,
    ScanClass,
    calibrate_c,
    disjoint_class,
    estimate_E0max,
    estimate_risk,
    set_sums,
    sliding_class,
    threshold_prop51,
    threshold_prop52,
    threshold_table,
)


def test_scan_class_validation():
    with pytest.raises(ValueError):
        ScanClass(4, np.array([[0, 1]]))  # fewer than 2 sets
    with pytest.raises(ValueError):
        ScanClass(4, np.array([[0, 1], [2, 4]]))  # index out of range
    with pytest.raises(ValueError):
        ScanClass(4, np.array([[0, 0], [1, 2]]))  # duplicate inside a set
    with pytest.raises(ValueError):
        ScanClass(4, np.array([0, 1]))  # not 2-d


@pytest.mark.parametrize("sets", [
    [[0.2, 0.7], [2, 3]],
    [[0, 1.5], [2, 3]],
    [[0, float("nan")], [2, 3]],
    [[True, 2], [0, 3]],
    np.array([[True, False], [False, True]]),
    [["0", "1"], [2, 3]],
], ids=["fractions", "fraction", "nan", "bool-in-list", "bool-array", "strings"])
def test_scan_class_rejects_indices_that_are_not_whole_numbers(sets):
    # a cast to int64 would have read [[0.2, 0.7], ...] as the set {0, 0}
    with pytest.raises(ValueError, match="whole numbers"):
        ScanClass(4, sets)


def test_scan_class_takes_whole_floats_and_checks_distinctness_per_row():
    cls = ScanClass(5, [[0.0, 4.0], [4, 0], [1, 3]])
    assert cls.sets.dtype == np.int64 and cls.sets.tolist() == [[0, 4], [4, 0], [1, 3]]
    with pytest.raises(ValueError, match="distinct"):
        ScanClass(5, [[0, 1, 2], [3, 4, 3]])  # the repeat is not adjacent


def test_generators():
    cls = disjoint_class(3, 4)
    assert cls.N == 3 and cls.K == 4 and cls.n == 12
    assert list(cls.sets[1]) == [4, 5, 6, 7]
    slid = sliding_class(6, 3)
    assert slid.N == 4
    assert list(slid.sets[2]) == [2, 3, 4]
    with pytest.raises(ValueError):
        disjoint_class(3, 4, n=10)
    with pytest.raises(ValueError):
        sliding_class(5, 5)


def _pairs_class(n):
    """All n (n - 1) / 2 pairs of n points: a class with N > n."""
    return ScanClass(n, [[i, j] for i in range(n) for j in range(i + 1, n)])


CLASSES = [disjoint_class(3, 10, n=33), sliding_class(30, 12), _pairs_class(12),
           ScanClass(9, [[8, 0, 3], [2, 7, 5], [3, 4, 8]])]


@pytest.mark.parametrize("cls", CLASSES, ids=["disjoint", "sliding", "pairs", "unsorted"])
def test_set_sums_of_a_row_do_not_depend_on_its_block(cls):
    xs = np.random.default_rng(5).standard_normal((9, cls.n)) * 10.0 ** np.arange(-4, 5)[:, None]
    block = set_sums(xs, cls)
    assert block.shape == (9, cls.N)
    for i, x in enumerate(xs):
        assert np.array_equal(set_sums(x, cls), block[i])
        assert np.array_equal(set_sums(xs[i:i + 1], cls)[0], block[i])


@pytest.mark.parametrize("cls", CLASSES, ids=["disjoint", "sliding", "pairs", "unsorted"])
def test_set_sums_are_within_k_epsilon_of_the_exact_sums(cls):
    x = np.random.default_rng(6).standard_normal(cls.n) * np.geomspace(1e-6, 1e6, cls.n)
    got = set_sums(x, cls)
    eps = np.finfo(float).eps
    for s, g in zip(cls.sets, got):
        assert abs(g - math.fsum(x[s])) <= cls.K * eps * math.fsum(abs(x[s]))


def test_set_sums_vector_and_matrix():
    cls = disjoint_class(2, 2)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert list(set_sums(x, cls)) == [3.0, 7.0]
    xs = np.vstack([x, -x])
    out = set_sums(xs, cls)
    assert out.shape == (2, 2)
    assert list(out[1]) == [-3.0, -7.0]


def test_threshold_prop51_worked_example():
    mu = threshold_prop51(10, 0.1, 11.756)
    assert mu == pytest.approx(1.1756 + 2 * math.sqrt(0.2 * math.log(20)), abs=1e-6)
    assert mu == pytest.approx(2.724, abs=2e-3)
    assert threshold_prop51(10, 2.0, 11.756) == pytest.approx(1.1756)
    with pytest.raises(ValueError):
        threshold_prop51(10, 0.0, 1.0)
    with pytest.raises(ValueError):
        threshold_prop51(10, 2.5, 1.0)


def test_threshold_prop52_worked_example():
    mu = threshold_prop52(10, 1000, 0.1, 1.0, 11.756)
    assert mu == pytest.approx(1.1756 + math.log(60) * 2 / math.sqrt(10 * math.log(1000)), abs=1e-6)
    assert mu == pytest.approx(2.161, abs=2e-3)
    assert threshold_prop52(10, 1000, 6.0, 1.0, 11.756) == pytest.approx(1.1756)
    with pytest.raises(ValueError):
        threshold_prop52(10, 1000, 0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        threshold_prop52(10, 1000, 6.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        threshold_prop52(10, 1, 0.1, 1.0, 1.0)


def test_prop52_beats_prop51_at_moderate_delta():
    # same inputs, delta ~ 1/log N: the sharper threshold is lower
    d = 1 / math.log(1000)
    assert threshold_prop52(10, 1000, d, 1.0, 11.756) < threshold_prop51(10, d, 11.756)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.2, max_value=5.0),
    st.integers(min_value=2, max_value=10**6),
    st.integers(min_value=2, max_value=10**6),
)
def test_threshold_prop52_monotonicities(c1, c2, n1, n2):
    lo, hi = sorted([c1, c2])
    assert threshold_prop52(10, 100, 0.1, hi, 5.0) <= threshold_prop52(10, 100, 0.1, lo, 5.0)
    lo_n, hi_n = sorted([n1, n2])
    assert threshold_prop52(10, hi_n, 0.1, 1.0, 5.0) <= threshold_prop52(10, lo_n, 0.1, 1.0, 5.0)
    # decreasing in K for fixed e0max / K ratio
    ratio = 0.5
    assert (
        threshold_prop52(40, 100, 0.1, 1.0, ratio * 40)
        <= threshold_prop52(10, 100, 0.1, 1.0, ratio * 10)
    )


def test_threshold_table_structure():
    rows = threshold_table(10, 100, 5.0, [0.1, 3.0])
    assert len(rows) == 2
    assert rows[0][1] == pytest.approx(threshold_prop51(10, 0.1, 5.0))
    assert math.isnan(rows[1][1])  # prop51 undefined for delta > 2
    assert rows[1][2] == pytest.approx(threshold_prop52(10, 100, 3.0, 1.0, 5.0))


def test_disjoint_null_scan_matches_scaled_extremes(iid):
    # under the null the disjoint scan max is sqrt(K) x (max of N iid normals)
    from superconc.extremes import corner_maxima
    from superconc.sampler import make_plan
    from superconc.scantest import _null_scan_maxima

    cls = disjoint_class(8, 16)
    trials = 4000
    scan = _null_scan_maxima(cls, trials, seed=1) / math.sqrt(16)
    [ref] = corner_maxima(make_plan(iid, (8,)), [(8,)], trials, seed=101)
    se = math.sqrt(np.var(scan) / trials + np.var(ref) / trials)
    assert abs(scan.mean() - ref.mean()) <= 4 * se
    v_se = math.sqrt(2 / trials) * max(np.var(scan), np.var(ref))
    assert abs(np.var(scan) - np.var(ref)) <= 4 * v_se


def _reference_null_scan_maxima(cls, trials, seed, offset=0, mu=0.0, shifted=None):
    from superconc import rng

    out = np.empty(trials)
    for t in range(trials):
        x = rng.stream_generator(seed, offset + t).standard_normal(cls.n)
        if shifted is not None:
            x[shifted] += mu
        out[t] = set_sums(x, cls).max()
    return out


def _check_risk_outcomes(cls, trials, seed, offset, mu, chosen):
    """The risk reducer's rejections and missed shares equal those of a
    per-trial loop that adds mu to x on each chosen set S_j."""
    null = _reference_null_scan_maxima(cls, trials, seed, offset)
    tau = float(np.median(null)) + mu / 2  # so that each indicator takes both values
    reject, missed = scantest._risk_outcomes(cls, trials, seed, offset, tau, mu, chosen)
    alt = np.array([_reference_null_scan_maxima(cls, trials, seed, offset, mu, cls.sets[j])
                    for j in chosen]) < tau
    assert np.array_equal(reject, null >= tau) and 0 < reject.sum() < trials
    assert np.array_equal(missed * len(chosen), alt.sum(axis=0)) and 0 < alt.mean() < 1


@pytest.mark.parametrize("block_rows, trials", [(7, 23), (7, 7), (None, 5)])
@pytest.mark.parametrize("shift", [False, True])
def test_null_scan_maxima_blocks_match_per_trial_streams(monkeypatch, block_rows, trials,
                                                         shift):
    cls = sliding_class(60, 5)
    if block_rows is None:
        trials += sampler.BLOCK_ELEMS // cls.n  # one full default block and a tail
    else:
        monkeypatch.setattr(sampler, "BLOCK_ELEMS", block_rows * cls.n)
    if shift:
        _check_risk_outcomes(cls, trials, 9, 4 * 10**6, 0.8, [17, 3, 55])
        return
    got = scantest._null_scan_maxima(cls, trials, seed=9, offset=4 * 10**6)
    ref = _reference_null_scan_maxima(cls, trials, seed=9, offset=4 * 10**6)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("shift", [False, True])
def test_null_scan_maxima_of_more_sets_than_points_match_per_trial_streams(monkeypatch,
                                                                           shift):
    from superconc import rng

    cls = _pairs_class(12)  # N = 66 > n = 12
    monkeypatch.setattr(sampler, "BLOCK_ELEMS", 7 * cls.N)
    rows = []
    normal_rows = rng.normal_rows
    monkeypatch.setattr(rng, "normal_rows",
                        lambda seed, b, *a, **k: rows.append(b) or normal_rows(seed, b, *a, **k))
    calls = []
    sums = scantest.set_sums
    monkeypatch.setattr(scantest, "set_sums", lambda *a: calls.append(a) or sums(*a))
    if shift:
        _check_risk_outcomes(cls, 30, 4, 7, 1.3, [40, 0, 65])
    else:
        got = scantest._null_scan_maxima(cls, 30, seed=4, offset=7)
    # blocks of 7 rows: the block counts the 66 set sums of a row, not its 12 points
    assert rows == [7, 7, 7, 7, 2] and len(calls) == len(rows)
    if not shift:
        monkeypatch.undo()
        assert np.array_equal(got, _reference_null_scan_maxima(cls, 30, seed=4, offset=7))


def test_null_scan_maxima_under_a_cap_below_4_mib_draw_smaller_blocks(monkeypatch):
    from superconc import rng

    cls = sliding_class(60, 5)
    rows = []
    normal_rows = rng.normal_rows
    monkeypatch.setattr(rng, "normal_rows",
                        lambda seed, b, *a, **k: rows.append(b) or normal_rows(seed, b, *a, **k))
    got = scantest._null_scan_maxima(cls, 3000, seed=2)
    assert rows == [2184, 816]  # 2**17 elements hold 2184 rows of 60
    rows.clear()
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(2**20))  # 2**15 elements of draw work
    assert np.array_equal(scantest._null_scan_maxima(cls, 3000, seed=2), got)
    assert rows == [546] * 5 + [270]


def test_null_scan_maxima_open_no_pool_under_4_cpus(monkeypatch):
    # the null's plan is iid, which gets one draw thread on any CPU count
    cls = sliding_class(60, 5)
    got = scantest._null_scan_maxima(cls, 3000, seed=2)
    pools = []

    class Pool(sampler.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(sampler, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(sampler.os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    assert np.array_equal(scantest._null_scan_maxima(cls, 3000, seed=2), got)
    assert pools == []


def test_estimate_E0max_is_deterministic():
    cls = disjoint_class(4, 4)
    a = estimate_E0max(cls, 10**4, seed=0)
    b = estimate_E0max(cls, 10**4, seed=0)
    assert a == b
    assert a[1] > 0


def test_calibrate_c_positive_and_deterministic():
    cls = disjoint_class(6, 6)
    c1 = calibrate_c(cls, seed=0)
    c2 = calibrate_c(cls, seed=0)
    assert c1 == c2
    assert c1 > 0


def test_estimate_risk_degenerate_alternative():
    cls = disjoint_class(5, 4)
    rep = estimate_risk(cls, mu=0.0, trials=500, seed=0)
    assert rep.risk == pytest.approx(1.0, abs=0.1)


def test_estimate_risk_strong_signal():
    cls = disjoint_class(5, 4)
    rep = estimate_risk(cls, mu=50.0, trials=500, seed=0)
    assert rep.type2_mean == 0.0
    assert rep.risk == pytest.approx(rep.type1, abs=1e-12)


def test_estimate_risk_needs_mu_or_delta():
    cls = disjoint_class(5, 4)
    with pytest.raises(ValueError):
        estimate_risk(cls, trials=100, seed=0)
    with pytest.raises(ValueError):
        estimate_risk(cls, mu=1.0, threshold_kind="prop53", trials=100, seed=0)


def test_estimate_risk_low_resolution_flag():
    cls = disjoint_class(4, 4)
    rep = estimate_risk(cls, threshold_kind="prop51", delta_target=0.0005,
                        trials=50, seed=0)
    assert rep.low_resolution


def test_estimate_risk_subsamples_large_classes():
    cls = sliding_class(200, 3)  # N = 198 > 64
    rep = estimate_risk(cls, mu=50.0, trials=20, seed=0)
    assert rep.subsampled
    assert rep.n_alternatives == 64


def test_estimate_risk_draws_the_null_once_for_every_alternative(monkeypatch):
    offsets = []
    reduce_blocks = scantest.reduce_blocks
    monkeypatch.setattr(scantest, "reduce_blocks",
                        lambda *a, **k: offsets.append(a[4]) or reduce_blocks(*a, **k))
    cls = sliding_class(200, 3)  # 64 alternatives out of 198
    rep = estimate_risk(cls, mu=1.5, trials=300, seed=5)
    # E0max, then one draw for the null and all 64 alternatives
    assert offsets == [0, 2 * STREAM_BLOCK] and rep.n_alternatives == 64
    # type I reads the null scan maxima of the streams it has always read
    null = scantest._null_scan_maxima(cls, 300, seed=5, offset=2 * STREAM_BLOCK)
    assert rep.type1 == float(np.mean(null >= rep.tau))
    assert rep.type1_se == math.sqrt(max(rep.type1 * (1 - rep.type1), 1 / 300) / 300)
    assert rep.risk == rep.type1 + rep.type2_mean


def test_estimate_risk_matches_the_disjoint_closed_form():
    # disjoint sets: X_S are iid N(0, K) under the null, and the alternative
    # moves only X_{S_j}, to N(mu K, K)
    from scipy.stats import norm

    N, K = 10, 10
    rep = estimate_risk(disjoint_class(N, K), mu=1.0929970623858187, trials=2000, seed=0)
    assert rep.tau == pytest.approx(7.90610003099703, rel=1e-12)
    null_cdf = norm.cdf(rep.tau / math.sqrt(K))
    type1 = 1 - null_cdf**N
    type2 = norm.cdf((rep.tau - rep.mu * K) / math.sqrt(K)) * null_cdf ** (N - 1)
    assert (type1, type2) == pytest.approx((0.06037, 0.16024), abs=5e-5)
    assert abs(rep.type1 - type1) <= 3 * rep.type1_se
    assert abs(rep.type2_mean - type2) <= 3 * rep.type2_se
    assert abs(rep.risk - (type1 + type2)) <= 3 * rep.risk_se


def test_estimate_risk_rejects_trials_above_the_stream_block(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew trials before checking the stream block")

    monkeypatch.setattr(scantest, "_null_scan_maxima", no_draws)
    cls = disjoint_class(4, 4)
    with pytest.raises(ValueError, match=str(STREAM_BLOCK)):
        estimate_risk(cls, mu=1.0, trials=STREAM_BLOCK + 1, seed=0)
    # at the block size the check passes and the first draw is reached
    with pytest.raises(AssertionError, match="drew trials"):
        estimate_risk(cls, mu=1.0, trials=STREAM_BLOCK, seed=0)
