import math
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superconc.extremes import (
    centering_gap,
    gumbel_cdf,
    ks_to_gumbel,
    norm_constants,
)
from superconc import covering, experiments, extremes, sampler
from superconc.covariance import CovarianceModel
from superconc.experiments import ExperimentConfig, run
from superconc.sampler import draw_rows, grid_geometry, make_plan, sample_sequence


def test_norm_constants_formula():
    n = 1000
    nc = norm_constants(n)
    a = math.sqrt(2 * math.log(n))
    assert nc.a_n == pytest.approx(a)
    assert nc.b_n == pytest.approx(
        a - 0.5 / a * (math.log(math.log(n)) + math.log(4 * math.pi))
    )


def test_norm_constants_small_n():
    assert norm_constants(2).n == 2
    with pytest.raises(ValueError):
        norm_constants(1)


def test_gumbel_cdf_sf_complement():
    x = np.linspace(-4, 8, 25)
    sf = -np.expm1(-np.exp(-x))  # P(G > x) without cancellation
    assert np.allclose(gumbel_cdf(x) + sf, 1.0, atol=1e-12)


@given(st.floats(min_value=-10, max_value=10), st.floats(min_value=0, max_value=5))
def test_gumbel_cdf_monotone(x, dx):
    assert gumbel_cdf(x + dx) >= gumbel_cdf(x)


def test_ks_needs_enough_samples():
    with pytest.raises(ValueError):
        ks_to_gumbel(np.zeros(99), 100)


def test_ks_permutation_invariant(rng_np):
    m = rng_np.standard_normal(500) + 2.0
    k1 = ks_to_gumbel(m, 64)
    k2 = ks_to_gumbel(rng_np.permutation(m), 64)
    assert k1 == k2


def test_ks_small_for_exact_gumbel_samples(rng_np):
    # inverse-transform Gumbel draws mapped back through the normalization
    n = 1024
    nc = norm_constants(n)
    u = rng_np.uniform(size=8000)
    g = -np.log(-np.log(u))
    maxima = nc.b_n + g / nc.a_n
    assert ks_to_gumbel(maxima, n) < 0.02


def test_ks_exact_statistic_oracle():
    # hand-computed KS for a tiny ladder against any monotone transform:
    # compare against the textbook sup |F_n - F| evaluated at the jumps
    m = np.linspace(-1.0, 3.0, 200)
    n = 256
    nc = norm_constants(n)
    f = gumbel_cdf(nc.a_n * (np.sort(m) - nc.b_n))
    i = np.arange(1, 201)
    expected = max(np.max(i / 200 - f), np.max(f - (i - 1) / 200))
    assert ks_to_gumbel(m, n) == pytest.approx(expected)


def test_centering_gap_positive(rng_np):
    m = rng_np.standard_normal(300) + 3.0
    assert centering_gap(m, 1000) > 0


def _block_rows(monkeypatch, model, shape, rows, method):
    """Make a block of the plan's draws ``rows`` rows long."""
    row_elems = make_plan(model, shape, method=method).row_elems
    monkeypatch.setattr(sampler, "BLOCK_ELEMS", rows * row_elems)


def _maxima(model, n, batch, seed, method=None):
    """The per-path (maxima, argmax) of ``batch`` paths of n correlated
    points, from a plan by ``method``."""
    return sampler.reduce_blocks(make_plan(model, (n,), method=method), batch, seed,
                                 lambda x: (x.max(axis=1), x.argmax(axis=1)))


def _corner(model, n, batch, seed, method=None):
    """The per-path maxima of ``batch`` paths of n points, read as the one
    corner of the lattice (:func:`extremes.corner_maxima`)."""
    [m] = extremes.corner_maxima(make_plan(model, (n,), method=method), [(n,)], batch, seed)
    return m


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_sample_maxima_chunk_invariance(ou, method, monkeypatch):
    m1, a1 = _maxima(ou, 20, 30, 6, method)
    _block_rows(monkeypatch, ou, (20,), 7, method)
    m2, a2 = _maxima(ou, 20, 30, 6, method)
    assert np.array_equal(m1, m2)
    assert np.array_equal(a1, a2)
    m0, a0 = _maxima(ou, 20, 0, 6, method)  # no blocks at all
    assert m0.shape == a0.shape == (0,) and a0.dtype == np.int64


@pytest.mark.parametrize("n", [200, 500])
@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_sample_maxima_small_chunks(ou, method, n, monkeypatch):
    # the noise is per path either way; only BLAS rounds a row of the
    # Cholesky product by the number of rows in it
    m, a = _maxima(ou, n, 40, 3, method)
    for chunk in (1, 2, 3):
        _block_rows(monkeypatch, ou, (n,), chunk, method)
        mc, ac = _maxima(ou, n, 40, 3, method)
        if method == "circulant":
            assert np.array_equal(mc, m) and np.array_equal(ac, a)
        else:
            np.testing.assert_array_max_ulp(mc, m, maxulp=4)


@pytest.mark.parametrize("method, n", [("cholesky", 500), ("circulant", 1024)])
def test_sample_maxima_ignore_a_cap_of_4_mib_or_more(ou, method, n, monkeypatch):
    # 2000 Cholesky paths of 500 points span 8 blocks of 262 rows at any cap
    # of 4 MiB or more, so the product rounds each row the same way
    m, a = _maxima(ou, n, 2000, 3)
    assert make_plan(ou, (n,)).method == method
    for cap in (4 * 2**20, 2**34):
        monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(cap))
        mc, ac = _maxima(ou, n, 2000, 3)
        assert np.array_equal(mc, m) and np.array_equal(ac, a)


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_sample_maxima_factors_once(ou, method, monkeypatch):
    _block_rows(monkeypatch, ou, (20,), 7, method)
    calls = []
    for name in ("_cholesky_factor", "circulant_embedding"):
        fn = getattr(sampler, name)
        monkeypatch.setattr(sampler, name,
                            lambda *a, fn=fn, **k: calls.append(fn) or fn(*a, **k))
    _maxima(ou, 20, 30, 6, method)
    assert len(calls) == 1


def test_sample_maxima_chunks_fit_a_low_cap(ou, monkeypatch):
    # one default chunk of 2000 paths would need ~32 MB; the cap is 1 MiB
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(2**20))
    m, a = _maxima(ou, 256, 2000, 1, "circulant")
    direct = sample_sequence(ou, 256, 5, seed=1, method="circulant", stream_offset=1995)
    assert np.array_equal(m[-5:], direct.paths.max(axis=1))
    assert np.array_equal(a[-5:], direct.paths.argmax(axis=1))


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_sample_maxima_on_a_field_matches_direct(gs, method):
    # the field growth stage draws its full box once: [0, 100] of 101 points
    # by Cholesky, [0, 40]^2 of 41 x 41 points by circulant embedding, and
    # reads each dyadic sub-box [0, A/2^k] as the corner of that draw
    d, extent = (1, 100.0) if method == "cholesky" else (2, 40.0)
    full = grid_geometry(d, extent, 1.0)
    plan = make_plan(gs, full)
    # BLAS rounds a Cholesky row by the rows in the product: those 60 paths
    # take one block, the circulant ones two
    assert plan.method == method
    assert (sampler.block_rows(plan.row_elems) >= 60) == (method == "cholesky")
    paths = draw_rows(plan, 60, seed=2).reshape(60, *full)
    scales = covering._dyadic_maxima(gs, d, extent, 1.0, 60, 2)
    assert len(scales) == (6 if d == 1 else 5)
    for k, (n_a, m) in enumerate(scales):
        assert n_a == covering.covering_number_box(extent / 2**k, d)
        corner = paths[(slice(None),) + tuple(slice(0, s) for s in
                                              grid_geometry(d, extent / 2**k, 1.0))]
        assert m.tobytes() == corner.reshape(60, -1).max(axis=1).tobytes()


def test_sample_maxima_matches_direct(ou):
    m, a = _maxima(ou, 20, 10, 6)
    direct = sample_sequence(ou, 20, 10, seed=6)
    assert np.array_equal(m, direct.paths.max(axis=1))
    assert np.array_equal(a, direct.paths.argmax(axis=1))


def test_iid_maxima_ignore_the_blocks_and_method(iid, monkeypatch):
    m = _corner(iid, 64, 300, 9)
    for chunk in (1, 7, 300):
        _block_rows(monkeypatch, iid, (64,), chunk, "circulant")
        mc, mp = _corner(iid, 64, 300, 9), _corner(iid, 64, 300, 9, "circulant")
        assert np.array_equal(mc, m) and np.array_equal(mp, m)


@pytest.mark.parametrize("n", [1, 1024, 150_000])
def test_iid_maxima_finite_at_extreme_words(iid, n, monkeypatch):
    words = np.array([0, 2**64 - 1], dtype=np.uint64)

    def stub(seed, stream):
        assert stream == 0  # the maxima's words
        return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda k: words[:k]))

    monkeypatch.setattr(extremes.rng, "stream_generator", stub)
    m = _corner(iid, n, 2, 0)
    assert np.all(np.isfinite(m)) and m[0] < m[1]


@pytest.mark.parametrize("n", [1, 15, 1024])
def test_iid_batch_is_a_prefix_of_a_larger_batch(iid, n):
    m, m3 = _corner(iid, n, 50, 8), _corner(iid, n, 150, 8)
    assert m.tobytes() == m3[:50].tobytes()


def test_iid_maxima_follow_phi_to_the_n(iid):
    from scipy.special import log_ndtr
    from scipy.stats import kstest

    n = 1024
    m = _corner(iid, n, 20000, 3)
    assert kstest(m, lambda x: np.exp(n * log_ndtr(x))).pvalue > 0.01


def test_iid_maxima_match_raw_row_maxima(iid):
    from scipy.stats import ks_2samp

    n = 256
    m = _corner(iid, n, 5000, 4)
    raw = draw_rows(make_plan(iid, (n,)), 5000, seed=4, offset=5000).max(axis=1)
    assert ks_2samp(m, raw).pvalue > 0.01


@pytest.mark.parametrize("method", ["cholesky", "circulant", "iid"])
def test_an_empty_batch_reads_one_empty_array_per_corner(ou, iid, method):
    model, by = (iid, None) if method == "iid" else (ou, method)
    plan = make_plan(model, (12, 10), method=by)
    corners = [(12, 10), (3, 4), (6, 5)]
    maxima = extremes.corner_maxima(plan, corners, 0, 4)
    assert plan.method == method and len(maxima) == len(corners)
    assert all(m.shape == (0,) and m.dtype == np.float64 for m in maxima)


def test_an_empty_batch_draws_empty_arrays(ou):
    from superconc.scantest import _null_scan_maxima, disjoint_class

    m, a = _maxima(ou, 20, 0, 6)
    assert m.shape == a.shape == (0,) and m.dtype == np.float64 and a.dtype == np.int64
    scan = _null_scan_maxima(disjoint_class(3, 4), 0, seed=1)
    assert scan.shape == (0,) and scan.dtype == np.float64


def test_iid_growth_stage_has_the_exact_law_of_each_scale(iid):
    from scipy.special import log_ndtr
    from scipy.stats import kstest

    # each dyadic scale of [0, 96]^2 against Phi^k, k its point count, at the
    # 99.9 % one-sample KS critical value c(alpha) / sqrt(batch); the boxes
    # are nested, so a path's maxima never rise from the full box down
    batch = 2 * 10**4
    scales = covering._dyadic_maxima(iid, 2, 96.0, 1.0, batch, 5)
    shapes = [grid_geometry(2, 96.0 / 2**j, 1.0) for j in range(len(scales))]
    assert len(scales) == 6
    for (_, m), shape in zip(scales, shapes):
        k = math.prod(shape)
        d = kstest(m, lambda x: np.exp(k * log_ndtr(x))).statistic
        assert d <= math.sqrt(-math.log(0.001 / 2) / 2 / batch)
    maxima = [m for _, m in scales]
    assert all(np.all(small <= big) for big, small in zip(maxima, maxima[1:]))
    # corners passed largest first, as the growth stage passes them, or
    # smallest first come back in the caller's order
    rev = extremes.corner_maxima(make_plan(iid, shapes[0]), shapes[::-1], batch, 5)
    assert [m.tobytes() for m in rev[::-1]] == [m.tobytes() for m in maxima]


def _cpus(monkeypatch, count):
    """Make ``count`` CPUs available to the process."""
    monkeypatch.setattr(sampler.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


@pytest.mark.parametrize("model, shape, batch, pooled", [
    ("ou", (2000,), 300, True),
    ("gs", (72, 72), 100, True),
    ("ou", (500,), 1100, False),
])
def test_sample_maxima_ignore_the_cpu_count(model, shape, batch, pooled, request,
                                            monkeypatch):
    model = request.getfixturevalue(model)
    if len(shape) == 1:
        def draw():
            return _maxima(model, shape[0], batch, 7)
    else:  # the field growth stage: every dyadic scale of one draw of the box
        extent = shape[0] - 1.0

        def draw():
            return [m for _, m in covering._dyadic_maxima(model, 2, extent, 1.0, batch, 7)]
    pools = []

    class Pool(sampler.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(sampler, "ThreadPoolExecutor", Pool)
    plan = make_plan(model, shape)
    block = sampler.block_rows(plan.row_elems)
    assert plan.method == ("circulant" if pooled else "cholesky") and batch > 4 * block
    _cpus(monkeypatch, 1)
    one = draw()
    assert pools == []
    _cpus(monkeypatch, 4)  # four draw threads, switching as often as they can
    assert sampler.draw_workers(plan, block) == (4 if pooled else 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        four = draw()
    finally:
        sys.setswitchinterval(interval)
    assert pools == ([4] if pooled else [])
    assert len(one) == (2 if len(shape) == 1 else 6)
    assert [x.tobytes() for x in four] == [x.tobytes() for x in one]


def test_draw_workers_keep_blocks_in_flight_within_the_cap(ou, monkeypatch):
    # a block of 64 rows of the 2048-point embedding of 2000 points is 4 MiB;
    # a cap of 6 MiB holds one such block but not two, and leaves it 64 rows
    plan = make_plan(ou, (2000,))
    block = sampler.block_rows(plan.row_elems)
    assert block * plan.row_bytes == 4 * 2**20
    _cpus(monkeypatch, 4)
    m, a = _maxima(ou, 2000, 300, 5)
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(6 * 2**20))
    assert sampler.block_rows(plan.row_elems) == block
    assert sampler.draw_workers(plan, block) == 1
    mc, ac = _maxima(ou, 2000, 300, 5)
    assert mc.tobytes() == m.tobytes() and ac.tobytes() == a.tobytes()


def test_sample_maxima_raise_the_first_failing_block(ou, monkeypatch):
    _cpus(monkeypatch, 4)
    draw_rows = sampler.draw_rows

    def failing(plan, rows, seed, offset):
        block = sampler.block_rows(plan.row_elems)
        if offset == 2 * block:
            time.sleep(0.05)  # fails after the block behind it
            raise ValueError("block 2")
        if offset == 3 * block:
            raise ValueError("block 3")
        return draw_rows(plan, rows, seed, offset)

    monkeypatch.setattr(sampler, "draw_rows", failing)
    with pytest.raises(ValueError, match="block 2"):
        _maxima(ou, 1024, 400, 1)


@pytest.mark.parametrize("kind, model, fields", [
    # one 41 x 41 circulant draw gives all five scales, 41 x 41 down to 3 x 3
    ("field_bound", ("gaussian_smooth", {"lam2": 2.0}),
     {"params": {"d": 2, "extent": 40.0, "growth_batch": 200}}),
    # sizes on both sides of the Cholesky limit, read as prefixes of one
    # circulant draw of 1024 points, its blocks on the draw threads
    ("variance_scaling", ("ornstein_uhlenbeck", {"rate": 1.0}),
     {"sizes": (512, 1024), "batch": 300}),
])
def test_run_ignores_the_cpu_count(kind, model, fields, tmp_path, monkeypatch):
    """A run writes the same bytes on 1 and 2 CPUs that the process may use.
    The CPU count is patched where ``sampler.draw_workers`` reads it, so this
    covers the draw threads; BLAS reads its own thread count, by which it
    rounds a Cholesky lattice's ``noise @ factor.T``.  A field run draws by
    Cholesky only where its full box has 768 points or fewer, or falls back,
    so only there do its bytes match across machines only with BLAS pinned
    to one thread, as the benchmark pins it."""
    outputs = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        cfg = ExperimentConfig(kind=kind, model=CovarianceModel(model[0], **model[1]),
                               seed=3, out=str(tmp_path / str(cpus)), **fields)
        paths = run(cfg)
        outputs.append([paths[k].read_bytes() for k in ("csv", "summary")])
    assert outputs[0] == outputs[1]


def test_short_embedding_maxima_have_the_cholesky_law(ou):
    from scipy.stats import ks_2samp

    # 1000 OU points embed at 1080, not 2000: 1e4 maxima of the default
    # circulant and 1e4 of the Cholesky factor, on disjoint streams, are two
    # samples of one law at the 99.9 % two-sample KS critical value
    n, batch = 1000, 10**4
    assert make_plan(ou, (n,)).embed_shape == (1080,)
    m = _corner(ou, n, batch, 11)
    cholesky = make_plan(ou, (n,), method="cholesky")
    [ref] = sampler.reduce_blocks(cholesky, batch, 11, lambda x: (x.max(axis=1),), offset=batch)
    # c(alpha) sqrt(2 / batch), with c(alpha) = sqrt(-log(alpha / 2) / 2)
    assert ks_2samp(m, ref).statistic <= math.sqrt(-math.log(0.001 / 2) / batch)


def _size_maxima(model, sizes, batch, seed):
    """The per-size maxima a run of ``sizes`` reads, in the order of ``sizes``."""
    cfg = ExperimentConfig(kind="variance_scaling", model=model, sizes=sizes, batch=batch,
                           seed=seed)
    return experiments._per_size(cfg, sizes, lambda n, m: m)


def test_per_size_iid_maxima_follow_phi_to_the_n(iid):
    from scipy.special import log_ndtr
    from scipy.stats import kstest

    # every size of one run, out of order and repeated, against its exact law
    # Phi^n at the 99.9 % one-sample KS critical value c(alpha) / sqrt(batch)
    sizes, batch = (1024, 64, 4096, 64), 20000
    maxima = _size_maxima(iid, sizes, batch, seed=3)
    for n, m in zip(sizes, maxima):
        d = kstest(m, lambda x: np.exp(n * log_ndtr(x))).statistic
        assert d <= math.sqrt(-math.log(0.001 / 2) / 2 / batch)
    # a repeated size repeats its maxima; the segments share their paths, so
    # each size's maxima rise with the size and correlate with the next's,
    # where independent draws would stay within 0.03 of 0 at this batch
    assert maxima[1].tobytes() == maxima[3].tobytes()
    m64, m1024, m4096 = maxima[1], maxima[0], maxima[2]
    assert np.all(m64 <= m1024) and np.all(m1024 <= m4096)
    assert np.corrcoef(m64, m1024)[0, 1] > 0.1 and np.corrcoef(m1024, m4096)[0, 1] > 0.1


def test_per_size_first_iid_size_is_sample_maxima(iid, ou):
    # the smallest size is the first segment, on stream 0 like a one-size
    # run; a one-size correlated run reads the whole draw of its plan
    first, _ = _size_maxima(iid, (64, 1024), 500, seed=5)
    assert first.tobytes() == _corner(iid, 64, 500, 5).tobytes()
    for n in (700, 1024):  # Cholesky and circulant
        [m] = _size_maxima(ou, (n,), 300, seed=5)
        assert m.tobytes() == _maxima(ou, n, 300, 5)[0].tobytes()


def test_per_size_prefix_has_the_cholesky_law(ou):
    from scipy.stats import ks_2samp

    # the 512-point prefix of a 2048-point circulant draw against 1e4
    # Cholesky maxima at 512 on disjoint streams, at the 99.9 % two-sample KS
    # critical value; the two sizes share their paths, so they correlate
    n, batch = 512, 10**4
    assert make_plan(ou, (2048,)).method == "circulant"
    m, m2048 = _size_maxima(ou, (n, 2048), batch, seed=11)
    cholesky = make_plan(ou, (n,), method="cholesky")
    [ref] = sampler.reduce_blocks(cholesky, batch, 11, lambda x: (x.max(axis=1),), offset=batch)
    assert ks_2samp(m, ref).statistic <= math.sqrt(-math.log(0.001 / 2) / batch)
    assert np.all(m <= m2048) and np.corrcoef(m, m2048)[0, 1] > 0.1


@pytest.mark.parametrize("n", [1, 2, 64, 1024, 10**6, 10**8])
def test_log_scale_quantile_matches_scipy(n):
    from scipy.special import ndtri_exp

    # the iid draw's own map of 2e5 words, and of the extreme words 0 and 2^64 - 1
    words = np.random.default_rng(n).integers(0, 2**64, size=2 * 10**5, dtype=np.uint64)
    words[:2] = [0, 2**64 - 1]
    y = np.log(((words >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52) / n
    got, want = extremes._ndtri_exp(y), ndtri_exp(y)
    far = np.abs(want) > 0.5
    assert np.all(np.abs(got - want)[far] <= 8 * np.spacing(np.abs(want[far])))
    assert np.all(np.abs(got - want)[~far] <= 1e-14)
