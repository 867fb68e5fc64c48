import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superconc.covariance import CovarianceModel, TableRangeError, evaluate, gram_matrix
from superconc.covering import Covering, _first_coordinate_windows, build_sequence_covering
from superconc.sampler import (
    CALL_BYTES,
    DEFAULT_CAP_BYTES,
    DRAW_BYTES_PER_ELEM,
    EMBED_MAX_DOUBLINGS,
    EMBED_REL_TOL,
    SEARCH_BYTES_PER_ELEM,
    CapacityError,
    DecompositionError,
    EmbeddingError,
    base_embedding,
    circulant_embedding,
    draw_rows,
    fast_size,
    grid_geometry,
    grid_points,
    make_plan,
    sample_sequence,
)

NOT_PSD = CovarianceModel("table", table=((0.0, 1.0), (1.0, 0.9), (2.0, 0.0)))
# 1 / (1 + t^2) stays above 2^-53 for 9.5e7 lags, past every lattice axis
# here, so each axis of s points embeds at the 5-smooth m >= 2(s - 1)
LONG_RANGE = CovarianceModel("power_decay", amp=1.0, alpha_cov=2.0)


def test_same_seed_same_paths(ou):
    a = sample_sequence(ou, 16, 8, seed=3)
    b = sample_sequence(ou, 16, 8, seed=3)
    assert np.array_equal(a.paths, b.paths)


def test_different_seeds_differ(ou):
    a = sample_sequence(ou, 16, 8, seed=3)
    b = sample_sequence(ou, 16, 8, seed=4)
    assert not np.array_equal(a.paths, b.paths)


def test_stream_offset_is_path_indexed(ou):
    whole = sample_sequence(ou, 16, 8, seed=3)
    tail = sample_sequence(ou, 16, 3, seed=3, stream_offset=5)
    assert np.array_equal(whole.paths[5:], tail.paths)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=9))
def test_chunking_invariance(split):
    model = CovarianceModel("ornstein_uhlenbeck", rate=0.5)
    whole = sample_sequence(model, 12, 10, seed=7).paths
    head = sample_sequence(model, 12, split, seed=7).paths
    rest = sample_sequence(model, 12, 10 - split, seed=7, stream_offset=split).paths
    # the noise streams are identical per path; the matmul against the
    # Cholesky factor may differ by an ulp between BLAS kernel shapes
    assert np.allclose(np.vstack([head, rest]), whole, rtol=0, atol=1e-12)


def test_methods_agree_for_iid(iid):
    a = sample_sequence(iid, 10, 5, seed=1, method="cholesky")
    b = sample_sequence(iid, 10, 5, seed=1, method="circulant")
    assert np.array_equal(a.paths, b.paths)


def test_default_method_switch(ou):
    small = sample_sequence(ou, 64, 2, seed=0)
    assert small.method == "cholesky"
    big = sample_sequence(ou, 4096, 2, seed=0)
    assert big.method == "circulant"
    # one switch at CHOLESKY_MAX_N = 768 points, whatever the dimension
    for shape in [(768,), grid_geometry(2, [23.0, 31.0], 1.0), (8, 8, 12)]:
        assert math.prod(shape) == 768 and make_plan(ou, shape).method == "cholesky"
    for shape in [(769,), (1, 769), grid_geometry(2, 27.0, 1.0)]:
        assert make_plan(ou, shape).method == "circulant"


def test_default_draws_above_the_switch_are_the_circulant_draws(ou):
    default = sample_sequence(ou, 1024, 8, seed=5)
    assert default.method == "circulant"
    assert np.array_equal(default.paths, sample_sequence(ou, 1024, 8, seed=5,
                                                         method="circulant").paths)


@pytest.mark.parametrize("model", [CovarianceModel("ornstein_uhlenbeck", rate=1.0),
                                   CovarianceModel("gaussian_smooth", lam2=2.0)],
                         ids=["ou", "smooth"])
def test_default_draws_above_the_switch_have_the_lag_covariances(model):
    n, batch = 1024, 400
    x = sample_sequence(model, n, batch, seed=21).paths
    for h in range(9):
        per_path = (x[:, : n - h] * x[:, h:]).mean(axis=1)
        se = per_path.std(ddof=1) / np.sqrt(batch)
        assert abs(per_path.mean() - evaluate(model, h)) <= 5 * se


# phi(0..3) = 1, 0.5, 0.2, 0 is positive definite on the integers (its symbol
# 1 + cos w + 0.4 cos 2w stays above 0.28), so Cholesky factors the 1000-point
# gram; a table that goes on above 2^-53 to its last lag embeds from the
# 2000-point size.  One turns to -1 from lag 1000 on, which leaves a negative
# eigenvalue at every doubling up to the table's last lag; the other ends at
# lag 999 with 0.001 there, short of the 2000-point embedding's lag 1000
PD_HEAD = ((0.0, 1.0), (1.0, 0.5), (2.0, 0.2), (3.0, 0.0), (999.0, 0.0))
NEGATIVE_TAIL = CovarianceModel("table", table=PD_HEAD + ((1000.0, -1.0), (64000.0, -1.0)))
SHORT_TABLE = CovarianceModel("table", table=PD_HEAD[:4] + ((998.0, 0.0), (999.0, 1e-3)))


@pytest.mark.parametrize("model, error", [(NEGATIVE_TAIL, EmbeddingError),
                                          (SHORT_TABLE, TableRangeError)],
                         ids=["embedding", "table-range"])
def test_default_falls_back_to_cholesky_without_an_embedding(model, error):
    with pytest.raises(error):
        make_plan(model, (1000,), method="circulant")
    plan = make_plan(model, (1000,))
    assert plan.method == "cholesky" and plan.embed_shape is None
    explicit = make_plan(model, (1000,), method="cholesky")
    assert np.array_equal(draw_rows(plan, 3, seed=1), draw_rows(explicit, 3, seed=1))


def test_fallback_over_the_cap_raises_before_the_gram(monkeypatch):
    # the gram and its factor at n = 1000 need 16 MB, one embedded path 64 KB
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(4 * 10**6))
    monkeypatch.setattr("superconc.sampler.gram_matrix", None)  # must not be reached
    with pytest.raises(CapacityError):
        make_plan(SHORT_TABLE, (1000,))


# The 7 x 8 x 14 lattice of a model whose phi is 0 past lag 1 embeds at
# 8 x 9 x 15 points, and each doubling takes 8 times the memory: one path at
# 32 x 36 x 60 needs 2.21 MB, at 64 x 72 x 120 17.7 MB, over the 9.83 MB of
# the 784-point gram and its Cholesky factor.
BOX = (7, 8, 14)
BOX_EMBEDDINGS = [(8, 9, 15), (16, 18, 30), (32, 36, 60), (64, 72, 120)]
# A model whose phi stays above 2^-53 past every lag of the box embeds it at
# 12 x 15 x 27 points, then 24 x 30 x 54 (1.24 MB a path) and 48 x 60 x 108
# (9.95 MB, just over the Cholesky factor)
LONG_BOX_EMBEDDINGS = [(12, 15, 27), (24, 30, 54), (48, 60, 108)]
# phi = 1, 0.172 at lag 1 and 0 past it: the gram is I + 0.172 times the grid
# graph's adjacency, positive definite since that adjacency's top eigenvalue
# is 5.68 < 1 / 0.172.  On the torus of every embedding the adjacency reaches
# -5.83 or below, so no embedding is nonnegative
NO_EMBEDDING = CovarianceModel(
    "table", table=((0.0, 1.0), (1.0, 0.172), (1.2, 0.0), (1e4, 0.0)))


def test_3d_default_falls_back_before_the_embedding_outgrows_the_cap(monkeypatch):
    # under a 9.9 MB cap an explicit circulant stops before 64 x 72 x 120,
    # while the fallback's gram and factor fit.  Three doublings at most, so
    # that a broken cap check costs 18 MB here, not 512 x 576 x 960 points
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(9_900_000))
    monkeypatch.setattr("superconc.sampler.EMBED_MAX_DOUBLINGS", 3)
    with pytest.raises(EmbeddingError) as exc:
        make_plan(NO_EMBEDDING, BOX, method="circulant")
    assert exc.value.sizes == BOX_EMBEDDINGS[:3]
    assert make_plan(NO_EMBEDDING, BOX).method == "cholesky"


def test_a_doubling_whose_search_is_over_the_cap_ends_the_search(monkeypatch):
    # under 20 MB one path of 64 x 72 x 120 fits, 17.7 MB, but its search,
    # 26.5 MB, does not; no size holds more than its own search's count
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(20 * 10**6))
    with pytest.raises(EmbeddingError):  # fills numpy's FFT plan cache, which outlives it
        make_plan(NO_EMBEDDING, BOX, method="circulant")
    tracemalloc.start()
    try:
        with pytest.raises(EmbeddingError) as exc:
            make_plan(NO_EMBEDDING, BOX, method="circulant")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.sizes == BOX_EMBEDDINGS[:3]
    assert peak <= SEARCH_BYTES_PER_ELEM * math.prod(BOX_EMBEDDINGS[2]) + CALL_BYTES


SEARCHES = {
    "ou-2000": (CovarianceModel("ornstein_uhlenbeck", rate=1.0), (2000,)),
    "ou-4096": (CovarianceModel("ornstein_uhlenbeck", rate=1.0), (4096,)),
    "power-3000": (LONG_RANGE, (3000,)),
    "smooth-97x97": (CovarianceModel("gaussian_smooth", lam2=2.0), (97, 97)),
    "smooth-41x41x41": (CovarianceModel("gaussian_smooth", lam2=2.0), (41, 41, 41)),
}


@pytest.mark.parametrize("model, shape", SEARCHES.values(), ids=SEARCHES)
def test_an_embedding_search_holds_no_more_than_it_counts(model, shape):
    # the first search fills numpy's FFT plan cache, which outlives it
    circulant_embedding(model, shape, max_bytes=DEFAULT_CAP_BYTES)
    tracemalloc.start()
    try:
        _, m = circulant_embedding(model, shape, max_bytes=DEFAULT_CAP_BYTES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SEARCH_BYTES_PER_ELEM * m + CALL_BYTES


def test_default_route_tries_no_embedding_heavier_than_its_fallback(monkeypatch):
    # under a 30 MB cap an explicit circulant tries up to 64 x 72 x 120, whose
    # search holds 26.5 MB; the default route stops at 32 x 36 x 60, under
    # the 9.83 MB of the Cholesky factor it falls back to
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(30 * 10**6))
    with pytest.raises(EmbeddingError) as exc:
        make_plan(NO_EMBEDDING, BOX, method="circulant")
    assert exc.value.sizes == BOX_EMBEDDINGS
    tried = []

    def recording(*a, **k):
        try:
            return circulant_embedding(*a, **k)
        except EmbeddingError as err:
            tried.append(err.sizes)
            raise

    monkeypatch.setattr("superconc.sampler.circulant_embedding", recording)
    plan = make_plan(NO_EMBEDDING, BOX)
    assert tried == [BOX_EMBEDDINGS[:3]]
    assert plan.method == "cholesky"
    gram = gram_matrix(NO_EMBEDDING, grid_points(3, [6.0, 7.0, 13.0], 1.0))
    assert np.allclose(plan.factor @ plan.factor.T, gram, rtol=0, atol=1e-12)


def test_default_route_embeds_past_its_fallback_when_cholesky_fails():
    # the Gaussian-smooth gram of the box fails Cholesky at minor 546, so the
    # default route goes on past 24 x 30 x 54 to the 48 x 60 x 108 embedding
    # an explicit circulant finds (phi stays above 2^-53 to lag 22)
    gs = CovarianceModel("gaussian_smooth", lam2=0.15)
    with pytest.raises(DecompositionError):
        make_plan(gs, BOX, method="cholesky")
    plan = make_plan(gs, BOX)
    assert plan.method == "circulant" and plan.embed_shape == LONG_BOX_EMBEDDINGS[2]
    explicit = make_plan(gs, BOX, method="circulant")
    assert np.array_equal(draw_rows(plan, 2, seed=1), draw_rows(explicit, 2, seed=1))


def test_default_route_embeds_at_or_below_the_switch_when_cholesky_fails():
    # the 400 points of the 20 x 20 grid take Cholesky by default, but the
    # Gaussian-smooth gram at lam2 = 0.2 fails it at minor 338, so the
    # default route goes on to the 40 x 40 embedding an explicit circulant finds
    gs = CovarianceModel("gaussian_smooth", lam2=0.2)
    with pytest.raises(DecompositionError) as exc:
        make_plan(gs, (20, 20), method="cholesky")
    assert exc.value.order == 338
    plan = make_plan(gs, (20, 20))
    assert plan.method == "circulant" and plan.embed_shape == (40, 40)
    explicit = make_plan(gs, (20, 20), method="circulant")
    assert np.array_equal(draw_rows(plan, 2, seed=1), draw_rows(explicit, 2, seed=1))


@pytest.mark.parametrize("rate, default", [(0.3, LONG_BOX_EMBEDDINGS[1]), (0.2, None)])
def test_default_route_prefers_cholesky_to_an_embedding_heavier_than_it(rate, default):
    # at spacing 1.5 and rate 0.3 the OU box embeds at 24 x 30 x 54, 1.24 MB
    # a path; at rate 0.2 only at 48 x 60 x 108, 9.95 MB a path against the
    # 9.83 MB Cholesky factor (phi stays above 2^-53 to lag 81 or further)
    ou = CovarianceModel("ornstein_uhlenbeck", rate=rate)
    explicit = make_plan(ou, BOX, 1.5, method="circulant")
    assert explicit.embed_shape == (default or LONG_BOX_EMBEDDINGS[2])
    plan = make_plan(ou, BOX, 1.5)
    assert plan.embed_shape == default
    assert plan.method == ("circulant" if default else "cholesky")


def test_fallback_reports_the_cholesky_failure():
    # the stubborn table's gram is indefinite from 3 points on, so neither
    # method draws 500 points of it (Cholesky first) or 1000 (embedding first)
    stubborn = CovarianceModel(
        "table", table=((0.0, 1.0), (1.0, 0.9), (2.0, 0.0), (1000.0, 0.0))
    )
    for n in (500, 1000):
        with pytest.raises(DecompositionError) as exc:
            make_plan(stubborn, (n,))
        assert exc.value.order == 3


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_empirical_covariance(ou, method):
    batch = 40000
    b = sample_sequence(ou, 4, batch, seed=9, method=method)
    emp = b.paths.T @ b.paths / batch
    g = gram_matrix(ou, np.arange(4))
    se = np.sqrt((1 + g**2) / batch)
    assert np.all(np.abs(emp - g) <= 5 * se)


def test_unknown_method_rejected(ou):
    with pytest.raises(ValueError):
        sample_sequence(ou, 8, 2, seed=0, method="magic")


def test_circulant_embedding_base_size(ou):
    # 4 points need lags 0..3, which a circulant of 2 (4 - 1) = 6 points holds
    eig, m = circulant_embedding(ou, 4, max_bytes=DEFAULT_CAP_BYTES)
    assert m == 6
    assert np.all(eig >= 0)
    # eigenvalues are the DFT of the symmetrized first row phi(0..3) + mirror
    wrapped = np.minimum(np.arange(6), 6 - np.arange(6))
    row = np.exp(-wrapped.astype(float))
    assert np.allclose(eig, np.fft.fft(row).real)


def test_circulant_embedding_smooth_model_pads(gs):
    # phi = exp(-t^2 / 2) stays above 2^-53 to lag 8, so 16 points embed at
    # the 5-smooth 24 >= 16 + 8 or a doubling of it
    eig, m = circulant_embedding(gs, 16, max_bytes=DEFAULT_CAP_BYTES)
    assert m in [24 << k for k in range(EMBED_MAX_DOUBLINGS + 1)]
    assert np.all(eig >= 0)


def _five_smooth_at_least(k):
    m = max(k, 1)
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def test_fast_size_is_the_smallest_five_smooth_size():
    assert [fast_size(k) for k in range(1, 10_001)] == [
        _five_smooth_at_least(k) for k in range(1, 10_001)]
    # the 97-point axis of a field grid embeds at 192, not at 2 x 97 = 194
    assert base_embedding((97, 97), LONG_RANGE) == (192, 192)
    assert base_embedding((1, 2, 3, 769), LONG_RANGE) == (2, 2, 4, 1536)


def _shape_id(shape):
    return "x".join(map(str, shape))


def _eigenvalues(plan):
    """lambda on the half-spectrum, from the plan's f = sqrt(M lambda / 2),
    or sqrt(M lambda) on the last axis's index-0 and Nyquist planes."""
    m, last = math.prod(plan.embed_shape), plan.embed_shape[-1]
    scale = np.full(last // 2 + 1, m / 2)
    scale[0] = m
    if last % 2 == 0:
        scale[-1] = m
    return plan.factor**2 / scale


@pytest.mark.parametrize("shape", [(2,), (3,), (5,), (97,), (769,), (7, 9)], ids=_shape_id)
@pytest.mark.parametrize("model", [CovarianceModel("ornstein_uhlenbeck", rate=0.5),
                                   CovarianceModel("gaussian_smooth", lam2=2.0)],
                         ids=["ou", "smooth"])
def test_cropped_circulant_is_the_gram(model, shape):
    # the circulant the plan draws from has first row irfftn(lambda); at the
    # base size, read at every pair of lattice points, it is their gram entry
    plan = make_plan(model, shape, method="circulant")
    assert plan.embed_shape == base_embedding(shape, model)
    row = np.fft.irfftn(_eigenvalues(plan), s=plan.embed_shape, axes=range(len(shape)))
    index = np.indices(shape).reshape(len(shape), -1)
    lags = (index[:, None, :] - index[:, :, None]) % np.array(plan.embed_shape)[:, None, None]
    points = grid_points(len(shape), [s - 1.0 for s in shape], 1.0)
    assert np.allclose(row[tuple(lags)], gram_matrix(model, points), rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(769,), (1000,), (2048,), (29, 29), (97, 97), (10, 10, 10)],
                         ids=_shape_id)
@pytest.mark.parametrize("model", [CovarianceModel("ornstein_uhlenbeck", rate=1.0),
                                   CovarianceModel("gaussian_smooth", lam2=2.0)],
                         ids=["ou", "smooth"])
def test_plan_bytes_counts_the_first_embedding(model, shape):
    # the bytes a draw of the default plan checks against the cap, a path at a time
    plan = make_plan(model, shape)
    assert plan.embed_shape == base_embedding(shape, model)
    assert plan.row_bytes == DRAW_BYTES_PER_ELEM * math.prod(plan.embed_shape)


@pytest.mark.parametrize("shape, spacing", [((1000,), 1.0), ((40, 40), 0.5), ((10, 10, 10), 2.0)],
                         ids=["1d", "2d", "3d"])
def test_plan_bytes_counts_the_embedding_at_the_spacing(shape, spacing):
    # a finer spacing puts more lattice lags inside the range of phi
    smooth = CovarianceModel("gaussian_smooth", lam2=1.0)
    plan = make_plan(smooth, shape, spacing, method="circulant")
    assert plan.embed_shape == base_embedding(shape, smooth, spacing)
    assert plan.row_bytes == DRAW_BYTES_PER_ELEM * math.prod(plan.embed_shape)


def test_the_bench_lattices_embed_at_about_n_plus_their_range(ou):
    # OU at rate 1 is above 2^-53 to lag 36 and Gaussian-smooth at lam2 = 2 to
    # lag 6, so each axis embeds at the 5-smooth size >= s + L, not 2(s - 1)
    assert make_plan(ou, (2048,)).embed_shape == (2160,)
    assert make_plan(ou, (4096,)).embed_shape == (4320,)
    smooth = CovarianceModel("gaussian_smooth", lam2=2.0)
    assert make_plan(smooth, (97, 97)).embed_shape == (108, 108)


# Gaussian-smooth at lam2 = 0.3 is above 2^-53 to lag 15, longer than the
# 12-point axis, and the table dips below 0 and back before it ends
SHORT_RANGE = [CovarianceModel("ornstein_uhlenbeck", rate=2.0),
               CovarianceModel("gaussian_smooth", lam2=2.0),
               CovarianceModel("gaussian_smooth", lam2=0.3),
               CovarianceModel("table", table=((0.0, 1.0), (1.0, -0.2), (2.5, 0.1), (3.5, 0.0),
                                               (400.0, 0.0)))]


@pytest.mark.parametrize("shape, spacing", [((300,), 1.0), ((40, 50), 0.75), ((30, 12, 25), 1.0)],
                         ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("model", SHORT_RANGE, ids=["ou", "smooth", "smooth-long", "table"])
def test_wrapped_lags_of_the_first_embedding_are_the_lags_to_rounding(model, shape, spacing):
    # the circulant's first row holds phi at the wrapped lags min(k, m - k);
    # at each lattice offset k it is phi at the true lag within 2^-53
    ms = base_embedding(shape, model, spacing)
    assert math.prod(ms) < math.prod(base_embedding(shape, LONG_RANGE))
    k = np.indices(shape).reshape(len(shape), -1)
    wrapped = np.minimum(k, np.array(ms)[:, None] - k)
    assert not np.array_equal(wrapped, k)
    gap = (evaluate(model, spacing * np.sqrt((wrapped**2).sum(axis=0)))
           - evaluate(model, spacing * np.sqrt((k**2).sum(axis=0))))
    assert np.abs(gap).max() <= 2.0**-53


def test_a_negative_short_embedding_doubles():
    # Gaussian-smooth at lam2 = 0.05 is above 2^-53 to lag 38, past the 12^3
    # grid's lags, and its first embedding, 24^3, is negative; the doublings
    # still reach a nonnegative one, at 96^3
    smooth = CovarianceModel("gaussian_smooth", lam2=0.05)
    assert base_embedding((12, 12, 12), smooth) == (24, 24, 24)
    with pytest.raises(EmbeddingError) as exc:
        circulant_embedding(smooth, (12, 12, 12), max_bytes=DRAW_BYTES_PER_ELEM * 24**3)
    assert exc.value.sizes == [(24, 24, 24)]
    eig, m = circulant_embedding(smooth, (12, 12, 12), max_bytes=DEFAULT_CAP_BYTES)
    assert eig.shape == (96, 96, 96) and m == 96**3 and eig.min() >= 0


def test_a_table_zero_to_its_end_embeds_at_the_short_size():
    # PD_HEAD is 0 from lag 3 to its last lag, 999, so 1000 points embed at
    # 1024 >= 1000 + 2, whose lags end at 512, and the crop is the gram
    model = CovarianceModel("table", table=PD_HEAD)
    plan = make_plan(model, (1000,), method="circulant")
    assert plan.embed_shape == (1024,)
    row = np.fft.irfft(_eigenvalues(plan), n=1024)
    assert np.allclose(row[:1000], evaluate(model, np.arange(1000.0)), rtol=0, atol=1e-12)


# embeddings whose last axis is even and odd (135, 15), one that doubles
# (OU in 3-d), and a table that is 0 from lag 3 to its end
EXACT_LAW_CASES = [
    (CovarianceModel("ornstein_uhlenbeck", rate=1.0), (5,), (8,)),
    (CovarianceModel("ornstein_uhlenbeck", rate=1.0), (97,), (135,)),
    (CovarianceModel("ornstein_uhlenbeck", rate=1.0), (7, 9), (12, 16)),
    (CovarianceModel("ornstein_uhlenbeck", rate=1.0), (4, 5, 3), (12, 16, 8)),
    (CovarianceModel("gaussian_smooth", lam2=2.0), (2,), (2,)),
    (CovarianceModel("gaussian_smooth", lam2=2.0), (97,), (108,)),
    (CovarianceModel("gaussian_smooth", lam2=2.0), (7, 9), (12, 15)),
    (CovarianceModel("gaussian_smooth", lam2=2.0), (6, 5), (10, 8)),
    (CovarianceModel("gaussian_smooth", lam2=2.0), (5, 6, 9), (8, 10, 15)),
    (CovarianceModel("table", table=PD_HEAD), (1000,), (1024,)),
]


@pytest.mark.parametrize("model, shape, embed", EXACT_LAW_CASES,
                         ids=[f"{m.kind}-{_shape_id(s)}" for m, s, _ in EXACT_LAW_CASES])
def test_the_circulant_draw_has_the_gram_as_its_exact_law(monkeypatch, model, shape, embed):
    # with the identity's rows for noise, draw_rows returns its linear map A
    # of the normals, and the draw's covariance is A^T A
    monkeypatch.setattr("superconc.rng.normal_rows",
                        lambda seed, rows, cols, offset=0: np.eye(cols)[offset:offset + rows])
    plan = make_plan(model, shape, method="circulant")
    assert plan.embed_shape == embed
    a = draw_rows(plan, 2 * plan.factor.size, seed=0)
    points = grid_points(len(shape), [s - 1.0 for s in shape], 1.0)
    assert np.allclose(a.T @ a, gram_matrix(model, points), rtol=0, atol=1e-12)


def test_the_cholesky_factor_of_the_gram_view_is_that_of_its_copy(ou):
    # the sequence gram is a strided view; LAPACK factors a copy of it
    gram = gram_matrix(ou, np.arange(768))
    plan = make_plan(ou, (768,), method="cholesky")
    assert np.array_equal(plan.factor, np.linalg.cholesky(np.ascontiguousarray(gram)))


def _factors(gram):
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=7))
def test_decomposition_error_names_the_smallest_failing_minor(values):
    # phi(k) = values[k - 1] at lags 1, ..., n - 1 of n points
    model = CovarianceModel("table", table=((0.0, 1.0),) + tuple(
        (k + 1.0, v) for k, v in enumerate(values)))
    n = len(values) + 1
    gram = gram_matrix(model, np.arange(n))
    failing = [k for k in range(1, n + 1) if not _factors(gram[:k, :k])]
    if not failing:
        make_plan(model, (n,), method="cholesky")
        return
    with pytest.raises(DecompositionError) as exc:
        make_plan(model, (n,), method="cholesky")
    assert exc.value.order == failing[0]


@settings(max_examples=40, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.integers(3, 8),
       st.integers(0, EMBED_MAX_DOUBLINGS))
def test_embedding_error_reports_the_doublings_it_tried(phi1, phi2, n, most):
    # phi = (1, phi1, phi2, 0, ...); the cap lets the search double `most`
    # times, and each size's eigenvalues are summed over its wrapped lags
    model = CovarianceModel("table", table=((0.0, 1.0), (1.0, phi1), (2.0, phi2), (1000.0, 0.0)))
    (base,) = base_embedding((n,), model)
    tried, worst = [], math.inf
    for k in range(most + 1):
        m = base << k
        lag = np.minimum(np.arange(m), m - np.arange(m))
        eig = np.cos(2 * np.pi * np.outer(np.arange(m), np.arange(m)) / m) @ evaluate(model, lag)
        tried.append((m,))
        worst = min(worst, eig.min())
        if eig.min() >= -EMBED_REL_TOL * eig.max():
            assert circulant_embedding(model, n, max_bytes=DRAW_BYTES_PER_ELEM * m)[1] == m
            return
    with pytest.raises(EmbeddingError) as exc:
        circulant_embedding(model, n, max_bytes=DRAW_BYTES_PER_ELEM * (base << most))
    assert exc.value.sizes == tried
    assert exc.value.worst == pytest.approx(worst, rel=0, abs=1e-12)


# each covering site and the bytes it counts before it allocates: for
# overlapping blocks of n + 1 points, m = floor((n + 1)^0.3), the ramp and
# its offsets, 2m + 1 entries a block each, and six arrays of one entry a
# block; 24 bytes an index and an indptr for joined blocks; for the windows
# of n points in the plane around every other one, 4 arrays of n points and
# 4 of the queries, and a sort's few KB
COVERINGS = {
    "sequence": (lambda n: build_sequence_covering(n + 1, 0.3),
                 lambda n: 8 * (2 * (2 * (m := math.floor((n + 1)**0.3)) + 1) + 6)
                 * (math.ceil((n + 1) / m) - 1)),
    "blocks": (lambda n: Covering.from_blocks([np.arange(k, min(n, k + 8)) for k in range(n)],
                                              n=n),
               lambda n: 24 * sum(min(n, k + 8) - k for k in range(n)) + 8 * (n + 1)),
    "windows": (lambda n: _first_coordinate_windows(
                    np.column_stack([np.arange(n) % 7, np.arange(n)]).astype(float),
                    np.arange(0, n, 2), 3.0),
                lambda n: 8 * (4 * n + 4 * len(range(0, n, 2))) + CALL_BYTES),
}


def _held(site):
    """The arrays a site keeps: a covering's two, or the tuple it returns."""
    return (site.indptr, site.indices) if isinstance(site, Covering) else site


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2**22), st.integers(2, 3000),
       st.sampled_from(["cholesky", "circulant", *COVERINGS]))
def test_a_capacity_error_carries_the_bytes_it_needed_over_its_limit(cap, n, method):
    # the plan's own bytes (a circulant's eigenvalue search), or else a draw
    # of one row more than the cap holds; a covering's count, which is at
    # least the arrays it keeps
    model = CovarianceModel("ornstein_uhlenbeck", rate=1.0)
    if method in COVERINGS:
        build, count = COVERINGS[method]
        assert count(n) >= sum(a.nbytes for a in _held(build(n)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SUPERCONC_CAP_BYTES", str(cap))
        if method in COVERINGS:
            if (need := count(n)) <= cap:
                build(n)
                return
            with pytest.raises(CapacityError) as exc:
                build(n)
        elif (need := 2 * n * n * 8 if method == "cholesky"
              else SEARCH_BYTES_PER_ELEM * base_embedding((n,), model)[0] + CALL_BYTES) > cap:
            with pytest.raises(CapacityError) as exc:
                make_plan(model, (n,), method=method)
        else:
            plan = make_plan(model, (n,), method=method)
            batch = cap // plan.row_bytes + 1
            need = batch * plan.row_bytes
            with pytest.raises(CapacityError) as exc:
                draw_rows(plan, batch, seed=0)
    assert (exc.value.needed, exc.value.limit) == (need, cap)
    assert exc.value.needed > exc.value.limit


def test_a_malformed_cap_carries_no_numbers(monkeypatch, ou):
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", "-1")
    with pytest.raises(CapacityError, match="is not a positive whole number") as exc:
        make_plan(ou, (1000,))
    assert (exc.value.needed, exc.value.limit) == (None, None)


def test_cholesky_failure_names_minor_order():
    with pytest.raises(DecompositionError) as exc:
        sample_sequence(NOT_PSD, 3, 2, seed=0, method="cholesky")
    assert 1 <= exc.value.order <= 3


def test_embedding_failure_reports_sizes():
    # phi = (1, 0.9, 0, 0, ...) keeps a -0.8 circulant eigenvalue at every
    # even size, and 3 points embed at 4, so the doubling loop exhausts
    # itself (at 2 points the 2-point circulant is the gram itself)
    stubborn = CovarianceModel(
        "table", table=((0.0, 1.0), (1.0, 0.9), (2.0, 0.0), (1000.0, 0.0))
    )
    with pytest.raises(EmbeddingError) as exc:
        circulant_embedding(stubborn, 3, max_bytes=DEFAULT_CAP_BYTES)
    assert exc.value.worst == pytest.approx(-0.8)
    assert exc.value.sizes == [(4 << k,) for k in range(EMBED_MAX_DOUBLINGS + 1)]


def test_capacity_cap(monkeypatch, ou):
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", "1000")
    with pytest.raises(CapacityError):
        sample_sequence(ou, 64, 64, seed=0)


def test_an_embedding_over_the_cap_is_refused_before_it_is_computed(monkeypatch, ou):
    # 10^5 points embed at 101 250, 3.24 MB a path and 4.87 MB to search for:
    # make_plan raises at a 1 MB cap, by either route, without computing the
    # embedding's FFT
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", "1000000")
    tracemalloc.start()
    try:
        for method in (None, "circulant"):
            with pytest.raises(CapacityError, match=r"the eigenvalue search of the \(101250,\) "
                                                    "embedding needs ~4868192 bytes, cap is"):
                make_plan(ou, (100_000,), method=method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_grid_points_1d():
    pts = grid_points(1, 10.0, 1.0)
    assert pts.shape == (11, 1)
    assert grid_geometry(1, 10.0, 1.0) == (11,)
    assert pts[-1, 0] == pytest.approx(10.0)


def test_grid_points_2d():
    pts = grid_points(2, [4.0, 6.0], 2.0)
    assert grid_geometry(2, [4.0, 6.0], 2.0) == (3, 4)
    assert pts.shape == (12, 2)


def test_grid_points_validation():
    with pytest.raises(ValueError):
        grid_points(0, 4.0, 1.0)
    with pytest.raises(ValueError):
        grid_points(1, 4.0, 0.0)
    with pytest.raises(ValueError):
        grid_points(1, 0.5, 1.0)  # fewer than 2 points


@pytest.mark.parametrize(
    "d, method",
    [(2, "cholesky"), (2, "circulant"), (3, "cholesky"), (3, "circulant")],
    ids=["cholesky", "circulant", "3d-cholesky", "3d-circulant"],
)
def test_field_covariance_2d(gs, d, method):
    batch = 30000
    paths = draw_rows(make_plan(gs, grid_geometry(d, [2.0] * d, 1.0), 1.0, method),
                      batch, seed=4)
    pts = grid_points(d, [2.0] * d, 1.0)
    emp = paths.T @ paths / batch
    g = gram_matrix(gs, pts)
    se = np.sqrt((1 + g**2) / batch)
    assert np.all(np.abs(emp - g) <= 5 * se)


def test_field_1d_matches_sequence_for_unit_spacing(ou):
    f = draw_rows(make_plan(ou, grid_geometry(1, 9.0, 1.0), 1.0, "circulant"), 4, seed=2)
    s = sample_sequence(ou, 10, 4, seed=2, method="circulant")
    assert np.array_equal(f, s.paths)

