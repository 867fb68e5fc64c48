import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superconc.extremes import (
    centering_gap,
    gumbel_cdf,
    gumbel_sf,
    ks_to_gumbel,
    norm_constants,
    sample_maxima,
)
from superconc import extremes, sampler
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
    assert np.allclose(gumbel_cdf(x) + gumbel_sf(x), 1.0, atol=1e-12)


def test_gumbel_sf_far_tail_accuracy():
    # naive 1 - cdf loses all precision out here; -expm1 keeps it
    assert gumbel_sf(40.0) == pytest.approx(math.exp(-40.0), rel=1e-10)


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


def _block_rows(monkeypatch, model, shape, rows, method, spacing=1.0):
    """Make a block of the plan's draws ``rows`` rows long."""
    row_elems = make_plan(model, shape, spacing, method).row_elems
    monkeypatch.setattr(sampler, "BLOCK_ELEMS", rows * row_elems)


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_sample_maxima_chunk_invariance(ou, method, monkeypatch):
    m1, a1 = sample_maxima(ou, 20, 30, seed=6, method=method)
    _block_rows(monkeypatch, ou, (20,), 7, method)
    m2, a2 = sample_maxima(ou, 20, 30, seed=6, method=method)
    assert np.array_equal(m1, m2)
    assert np.array_equal(a1, a2)
    m0, a0 = sample_maxima(ou, 20, 0, seed=6, method=method)  # no blocks at all
    assert m0.shape == a0.shape == (0,) and a0.dtype == np.int64


@pytest.mark.parametrize("n", [200, 500])
@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_sample_maxima_small_chunks(ou, method, n, monkeypatch):
    # the noise is per path either way; only BLAS rounds a row of the
    # Cholesky product by the number of rows in it
    m, a = sample_maxima(ou, n, 40, seed=3, method=method)
    for chunk in (1, 2, 3):
        _block_rows(monkeypatch, ou, (n,), chunk, method)
        mc, ac = sample_maxima(ou, n, 40, seed=3, method=method)
        if method == "circulant":
            assert np.array_equal(mc, m) and np.array_equal(ac, a)
        else:
            np.testing.assert_array_max_ulp(mc, m, maxulp=4)


@pytest.mark.parametrize("method, n", [("cholesky", 500), ("circulant", 1024)])
def test_sample_maxima_ignore_a_cap_of_4_mib_or_more(ou, method, n, monkeypatch):
    # 2000 Cholesky paths of 500 points span 8 blocks of 262 rows at any cap
    # of 4 MiB or more, so the product rounds each row the same way
    m, a = sample_maxima(ou, n, 2000, seed=3)
    assert make_plan(ou, (n,)).method == method
    for cap in (4 * 2**20, 2**34):
        monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(cap))
        mc, ac = sample_maxima(ou, n, 2000, seed=3)
        assert np.array_equal(mc, m) and np.array_equal(ac, a)


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_sample_maxima_factors_once(ou, method, monkeypatch):
    _block_rows(monkeypatch, ou, (20,), 7, method)
    calls = []
    for name in ("_cholesky_factor", "circulant_embedding"):
        fn = getattr(sampler, name)
        monkeypatch.setattr(sampler, name,
                            lambda *a, fn=fn, **k: calls.append(fn) or fn(*a, **k))
    sample_maxima(ou, 20, 30, seed=6, method=method)
    assert len(calls) == 1


def test_sample_maxima_chunks_fit_a_low_cap(ou, monkeypatch):
    # one default chunk of 2000 paths would need ~32 MB; the cap is 1 MiB
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(2**20))
    m, a = sample_maxima(ou, 256, 2000, seed=1, method="circulant")
    direct = sample_sequence(ou, 256, 5, seed=1, method="circulant", stream_offset=1995)
    assert np.array_equal(m[-5:], direct.paths.max(axis=1))
    assert np.array_equal(a[-5:], direct.paths.argmax(axis=1))


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_sample_maxima_on_a_field_matches_direct(gs, method, monkeypatch):
    shape = grid_geometry(2, [5.0, 3.0], 0.5)
    direct = draw_rows(make_plan(gs, shape, 0.5, method), 12, seed=2, offset=30)
    _block_rows(monkeypatch, gs, shape, 5, method, spacing=0.5)
    m, a = sample_maxima(gs, shape, 12, seed=2, method=method,
                         spacing=0.5, stream_offset=30)
    assert np.array_equal(m, direct.max(axis=1))
    assert np.array_equal(a, direct.argmax(axis=1))


def test_sample_maxima_matches_direct(ou):
    m, a = sample_maxima(ou, 20, 10, seed=6)
    direct = sample_sequence(ou, 20, 10, seed=6)
    assert np.array_equal(m, direct.paths.max(axis=1))
    assert np.array_equal(a, direct.paths.argmax(axis=1))


def test_iid_maxima_ignore_chunk_and_split_stream_offset(iid, monkeypatch):
    m, a = sample_maxima(iid, 64, 300, seed=9)
    for chunk in (1, 7, 300):
        _block_rows(monkeypatch, iid, (64,), chunk, "circulant")
        mc, ac = sample_maxima(iid, 64, 300, seed=9, method="circulant")
        assert np.array_equal(mc, m) and np.array_equal(ac, a)
    head = sample_maxima(iid, 64, 120, seed=9)
    tail = sample_maxima(iid, 64, 180, seed=9, stream_offset=120)
    assert np.array_equal(np.concatenate([head[0], tail[0]]), m)
    assert np.array_equal(np.concatenate([head[1], tail[1]]), a)


@pytest.mark.parametrize("n", [1, 1024, (300, 500)])
def test_iid_maxima_finite_at_extreme_words(iid, n, monkeypatch):
    words = np.array([[0] * 4, [2**64 - 1] * 4], dtype=np.uint64)
    monkeypatch.setattr(extremes.rng, "first_blocks", lambda seed, lo, hi: words[: hi - lo])
    m, a = sample_maxima(iid, n, 2, seed=0)
    assert np.all(np.isfinite(m)) and m[0] < m[1]
    assert a.tolist() == [0, math.prod(np.atleast_1d(n)) - 1]


def test_iid_maxima_follow_phi_to_the_n(iid):
    from scipy.special import log_ndtr
    from scipy.stats import kstest

    n = 1024
    m, _ = sample_maxima(iid, n, 20000, seed=3)
    assert kstest(m, lambda x: np.exp(n * log_ndtr(x))).pvalue > 0.01


def test_iid_maxima_match_raw_row_maxima(iid):
    from scipy.stats import ks_2samp

    n = 256
    m, _ = sample_maxima(iid, n, 5000, seed=4)
    raw = draw_rows(make_plan(iid, (n,)), 5000, seed=4, offset=5000).max(axis=1)
    assert ks_2samp(m, raw).pvalue > 0.01


@pytest.mark.parametrize("shape", [(16,), (3, 5)])
def test_iid_argmax_uniform(iid, shape):
    from scipy.stats import chisquare

    n = math.prod(shape)
    _, a = sample_maxima(iid, shape, 200 * n, seed=5)
    assert a.min() >= 0 and a.max() < n
    assert chisquare(np.bincount(a, minlength=n)).pvalue > 0.01


def _cpus(monkeypatch, count):
    """Make ``count`` CPUs available to the process."""
    monkeypatch.setattr(sampler.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


@pytest.mark.parametrize("model, shape, batch, pooled", [
    ("ou", (1024,), 300, True),
    ("gs", (40, 40), 100, True),
    ("ou", (500,), 1100, False),
])
def test_sample_maxima_ignore_the_cpu_count(model, shape, batch, pooled, request,
                                            monkeypatch):
    model = request.getfixturevalue(model)
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
    m, a = sample_maxima(model, shape, batch, seed=7)
    assert pools == []
    _cpus(monkeypatch, 4)  # four draw threads, switching as often as they can
    assert sampler.draw_workers(plan, block) == (4 if pooled else 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        mc, ac = sample_maxima(model, shape, batch, seed=7)
    finally:
        sys.setswitchinterval(interval)
    assert pools == ([4] if pooled else [])
    assert mc.tobytes() == m.tobytes() and ac.tobytes() == a.tobytes()


def test_draw_workers_keep_blocks_in_flight_within_the_cap(ou, monkeypatch):
    # a block of 64 rows of the 2048-point embedding of 1024 points is 4 MiB;
    # a cap of 6 MiB holds one such block but not two, and leaves it 64 rows
    plan = make_plan(ou, (1024,))
    block = sampler.block_rows(plan.row_elems)
    assert block * plan.row_bytes == 4 * 2**20
    _cpus(monkeypatch, 4)
    m, a = sample_maxima(ou, 1024, 300, seed=5)
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(6 * 2**20))
    assert sampler.block_rows(plan.row_elems) == block
    assert sampler.draw_workers(plan, block) == 1
    mc, ac = sample_maxima(ou, 1024, 300, seed=5)
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
        sample_maxima(ou, 1024, 400, seed=1)


@pytest.mark.parametrize("kind, model, fields", [
    # 41 x 41 and 21 x 21 grids: the first is circulant, the second Cholesky
    ("field_bound", ("gaussian_smooth", {"lam2": 2.0}),
     {"params": {"d": 2, "extent": 40.0, "growth_batch": 200}}),
    # two circulant cells, one after the other, each with its own pool
    ("variance_scaling", ("ornstein_uhlenbeck", {"rate": 1.0}),
     {"sizes": (1024, 2048), "batch": 300}),
])
def test_run_ignores_the_cpu_count(kind, model, fields, tmp_path, monkeypatch):
    """A run writes the same bytes on 1 and 2 CPUs that the process may use.
    The CPU count is patched where ``sampler.draw_workers`` reads it, so this
    covers the draw threads; BLAS reads its own thread count, by which it
    rounds a Cholesky lattice's ``noise @ factor.T`` (768 points or fewer,
    or a fallback), so those bytes match across machines only with BLAS
    pinned to one thread, as the benchmark pins it."""
    outputs = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        cfg = ExperimentConfig(kind=kind, model=CovarianceModel(model[0], **model[1]),
                               seed=3, out=str(tmp_path / str(cpus)), **fields)
        paths = run(cfg)
        outputs.append([paths[k].read_bytes() for k in ("csv", "summary")])
    assert outputs[0] == outputs[1]
