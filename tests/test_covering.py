import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superconc import covering, rng, sampler
from superconc.covariance import CovarianceModel, evaluate, gram_matrix
from superconc.covering import (
    DEFAULT_C_SUD,
    BoundError,
    Covering,
    MC_RHO_MIN_PATHS,
    HypothesisError,
    TrivialCoveringError,
    bound_scale,
    build_sequence_covering,
    correlated_bound,
    covering_number_box,
    crossover_window,
    estimate_field_growth,
    field_bound,
    find_sign_vectors,
    gaussian_tail_curve,
    greedy_net,
    net_ball_covering,
    rho_analytic_sequence,
    rho_monte_carlo,
    sequence_bound,
    singleton_covering,
    sudakov_exponent,
    tail_curve,
    verify_covering,
)

from checkers import greedy_net_dense, net_ball_covering_dense, verify_net, verify_sign_vectors


def test_block_construction_worked_example():
    # n = 16, alpha = 0.5: m = 4, three blocks 1..8, 4..12, 8..16 (1-based)
    cov = build_sequence_covering(16, 0.5)
    assert len(cov.blocks) == 3
    assert list(cov.blocks[0]) == list(range(0, 8))
    assert list(cov.blocks[1]) == list(range(3, 12))
    assert list(cov.blocks[2]) == list(range(7, 16))
    assert cov.multiplicity == 3


@pytest.mark.parametrize("n", [3, 10, 16, 17, 100, 257, 1000, 4097])
def test_sequence_blocks_equal_the_per_k_loop(n):
    for alpha in (0.1, 0.25, 0.3, 0.45, 0.5, 0.55, 0.6, 0.7, 0.9):
        m = int(math.floor(n**alpha))
        if 2 * m >= n:
            continue
        want = [np.arange(max(1, (k - 1) * m) - 1, min(n, (k + 1) * m))
                for k in range(1, math.ceil(n / m))]
        cov = build_sequence_covering(n, alpha)
        assert cov.indptr.dtype == cov.indices.dtype == np.int64
        assert len(cov.indptr) - 1 == len(cov.blocks) == len(want)
        for got, ref in zip(cov.blocks, want):
            assert np.array_equal(got, ref)


def test_block_construction_covers_all_indices():
    cov = build_sequence_covering(100, 0.4)
    covered = np.zeros(100, dtype=bool)
    for b in cov.blocks:
        covered[b] = True
    assert covered.all()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=10, max_value=300), st.floats(min_value=0.1, max_value=0.6))
def test_block_covering_properties(n, alpha):
    m = int(math.floor(n**alpha))
    if 2 * m >= n:
        return
    cov = build_sequence_covering(n, alpha)
    member = np.zeros((n, len(cov.blocks)), dtype=bool)
    for k, b in enumerate(cov.blocks):
        member[b, k] = True
    # multiplicity at most 3, every index covered
    assert member.sum(axis=1).max() <= 3
    assert member.any(axis=1).all()
    # every pair within distance m shares a block
    shared = member @ member.T
    for i in range(0, n - m, max(1, n // 17)):
        assert shared[i, i + m] > 0


def test_trivial_covering_error():
    with pytest.raises(TrivialCoveringError):
        build_sequence_covering(10, 0.9)
    with pytest.raises(ValueError):
        build_sequence_covering(10, 1.5)


def test_verify_covering_accepts_and_witnesses(ou):
    n = 32
    cov = build_sequence_covering(n, 0.5)
    m = int(n**0.5)
    r0 = float(evaluate(ou, float(m)))
    g = gram_matrix(ou, np.arange(n))
    ok, witness = verify_covering(cov, g, r0)
    assert ok and witness is None
    # drop the middle block: some close pair loses its shared block
    broken = Covering.from_blocks(cov.blocks[:1] + cov.blocks[2:], r0=cov.r0,
                                  multiplicity=3, provenance="broken", n=n)
    ok, witness = verify_covering(broken, g, r0)
    assert not ok
    assert witness[0] == "pair"


def test_verify_covering_multiplicity_witness(iid):
    n = 6
    blocks = [np.arange(6), np.arange(6), np.arange(6), np.arange(6)]
    cov = Covering.from_blocks(blocks, multiplicity=3, n=n)
    ok, witness = verify_covering(cov, gram_matrix(iid, np.arange(n)), 0.5)
    assert not ok
    assert witness[0] == "multiplicity"


def _verify_covering_pairwise(cov, gram, r0):
    """Reference check: one pass over every index, then over every pair."""
    n = gram.shape[0]
    members = [set(int(i) for i in b) for b in cov.blocks]
    counts = [sum(i in m for m in members) for i in range(n)]
    if max(counts, default=0) > cov.multiplicity:
        return False, ("multiplicity", counts.index(max(counts)))
    for i in range(n):
        for j in range(n):
            if i != j and gram[i, j] > r0 and not any(i in m and j in m for m in members):
                return False, ("pair", i, j)
    return True, None


@pytest.mark.parametrize("seed", range(12))
def test_verify_covering_matches_pairwise_reference(seed):
    rs = np.random.default_rng(seed)
    n = int(rs.integers(8, 40))
    a = rs.uniform(-1.0, 1.0, (n, n))
    gram = (a + a.T) / 2  # symmetric; the check never needs it positive definite
    np.fill_diagonal(gram, 1.0)
    blocks = [rs.choice(n, size=int(rs.integers(1, n)), replace=True)  # repeats
              for _ in range(int(rs.integers(1, 12)))]
    if seed % 3 == 0:
        blocks = [b for k, b in enumerate(blocks) if k % 2]  # dropped blocks
    if seed % 4 == 1:
        blocks += [np.array([n - 1])] * 4  # an over-covered index
    for mult in (1, 2, 3, 16):
        cov = Covering.from_blocks(blocks, multiplicity=mult, n=n)
        for r0 in (0.0, 0.6, 0.9, 1.0):
            assert verify_covering(cov, gram, r0) == _verify_covering_pairwise(cov, gram, r0)


def test_verify_covering_matches_pairwise_reference_on_sequence_blocks(ou):
    n = 64
    cov = build_sequence_covering(n, 0.5)
    g = gram_matrix(ou, np.arange(n))
    r0 = float(evaluate(ou, 8.0))
    for drop in range(len(cov.blocks)):
        broken = Covering.from_blocks(cov.blocks[:drop] + cov.blocks[drop + 1:],
                                      multiplicity=3, n=n)
        assert verify_covering(broken, g, r0) == _verify_covering_pairwise(broken, g, r0)
    assert verify_covering(cov, g, r0) == (True, None)


def _greedy_net_per_candidate(points, s0):
    """Reference: test each candidate against every point kept so far."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    kept = []
    for i in range(pts.shape[0]):
        if not kept or np.all(np.sum((pts[kept] - pts[i]) ** 2, axis=1) > s0 * s0):
            kept.append(i)
    return np.array(kept)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_greedy_net_matches_per_candidate_reference(d, seed):
    rs = np.random.default_rng(seed)
    pts = rs.uniform(0.0, 10.0, (300, d))
    if d == 1:
        pts = pts[:, 0]
    for s0 in (0.05, 0.7, 2.0, 15.0):
        assert np.array_equal(greedy_net(pts, s0), _greedy_net_per_candidate(pts, s0))


LATTICE_TIE_GRIDS = [(1, 40.0, 1.0), (1, 4.0, 0.1), (2, 12.0, 1.0), (2, [9.0, 5.0], 1.0),
                     (3, 4.0, 1.0)]


@pytest.mark.parametrize("d, extent, spacing", LATTICE_TIE_GRIDS)
def test_greedy_net_matches_reference_at_lattice_ties(d, extent, spacing):
    from superconc.sampler import grid_points

    pts = grid_points(d, extent, spacing)
    # s0 equal to a lattice distance: pairs at exactly s0 are kept apart or
    # not by the same float comparison; sqrt(k)**2 rounds above k for some
    # k and below it for others
    for k in (0, 1, 2, 3, 4, 5, 6, 9, 13, 18):
        s0 = spacing * math.sqrt(k)
        assert np.array_equal(greedy_net(pts, s0), _greedy_net_per_candidate(pts, s0))


def _assert_same_covering(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.indices.dtype == want.indices.dtype == np.int64
    assert (got.multiplicity, got.r0, got.provenance, got.n) == (
        want.multiplicity, want.r0, want.provenance, want.n)


def _assert_windowed_equals_dense(pts, s0, radii=None):
    net = greedy_net(pts, s0)
    assert np.array_equal(net, greedy_net_dense(pts, s0))
    for radius in radii or (s0, 2.0 * s0):
        _assert_same_covering(net_ball_covering(pts, net, radius, 0.25),
                              net_ball_covering_dense(pts, net, radius, 0.25))


@pytest.mark.parametrize("d, extent, spacing", LATTICE_TIE_GRIDS)
def test_windowed_net_and_balls_match_dense_at_lattice_ties(d, extent, spacing):
    from superconc.sampler import grid_points

    pts = grid_points(d, extent, spacing)
    # s0 and 2 s0 at lattice distances: the window must hold every point the
    # float test accepts at exactly the radius
    for k in range(19):
        _assert_windowed_equals_dense(pts, spacing * math.sqrt(k))


@pytest.mark.parametrize("shift", [-1e6, 1e6])
@pytest.mark.parametrize("d, extent, spacing", LATTICE_TIE_GRIDS)
def test_windowed_net_and_balls_match_dense_far_from_the_origin(d, extent, spacing, shift):
    from superconc.sampler import grid_geometry

    # at 1e6 a coordinate carries ~1e-10 of rounding, so the differences of
    # lattice points land on either side of the lattice distances
    pts = sampler._lattice_points(grid_geometry(d, extent, spacing), 0.1) + shift
    for k in range(19):
        _assert_windowed_equals_dense(pts, 0.1 * math.sqrt(k))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_windowed_net_and_balls_match_dense_on_shuffled_points(d, seed):
    from superconc.sampler import grid_points

    rs = np.random.default_rng(seed)
    uniform = rs.uniform(-5.0, 5.0, (400, d))
    # a shuffled grid: many equal first coordinates, in no index order
    grid = rs.permutation(grid_points(d, 6.0 if d < 3 else 4.0, 0.5))
    for pts in (uniform, grid):
        pts = pts[:, 0] if d == 1 else pts
        for s0 in (0.05, 0.5, 0.5 * math.sqrt(2.0), 1.3, 3.0):
            _assert_windowed_equals_dense(pts, s0)


def test_windowed_net_and_balls_match_dense_at_zero_radius_and_duplicates():
    from superconc.sampler import grid_points

    rs = np.random.default_rng(5)
    grid = grid_points(2, 5.0, 1.0)
    pts = rs.permutation(np.concatenate([grid, grid[rs.integers(len(grid), size=30)]]))
    for s0 in (0.0, 1.0, 1.5):
        _assert_windowed_equals_dense(pts, s0, radii=(0.0, s0, 2.0 * s0))
    # points a subnormal apart: their squared distance rounds to 0
    tiny = np.array([0.0, 1e-300, -1e-300, 5e-324, 0.0, 1.0])
    for s0 in (0.0, 1e-310, 0.5):
        _assert_windowed_equals_dense(tiny, s0, radii=(0.0, s0))


def test_windowed_net_and_balls_match_dense_past_the_box():
    from superconc.sampler import grid_points

    for pts in (grid_points(2, 10.0, 1.0), grid_points(3, 4.0, 0.5)):
        net = greedy_net(pts, 100.0)
        assert list(net) == [0]
        _assert_windowed_equals_dense(pts, 100.0, radii=(100.0, 1e6, math.inf))
        _assert_windowed_equals_dense(pts, math.nan, radii=(math.nan,))
        cov = net_ball_covering(pts, greedy_net(pts, 1.0), 1e3, 0.0)
        assert np.array_equal(np.diff(cov.indptr), np.full(len(cov.indptr) - 1, len(pts)))


@pytest.mark.parametrize("d, extent, ratio", [(2, 24.0, None), (2, 30.0, 0.2),
                                              (3, 12.0, None)])
def test_field_bound_covering_is_the_dense_one(monkeypatch, d, extent, ratio):
    from superconc.sampler import grid_points

    smooth = CovarianceModel("gaussian_smooth", lam2=2.0)
    monkeypatch.setattr(covering, "estimate_field_growth",
                        lambda *a: (1.0, 2.0, 0.5, []))
    rep = field_bound(smooth, d, extent, exponent_ratio=ratio)
    pts = grid_points(d, extent, 1.0)
    net = greedy_net_dense(pts, rep.s0)
    _assert_same_covering(rep.covering,
                          net_ball_covering_dense(pts, net, 2.0 * rep.s0, rep.r0))


def test_field_growth_under_a_low_cap_matches_uncapped(monkeypatch):
    smooth = CovarianceModel("gaussian_smooth", lam2=2.0)
    want = estimate_field_growth(smooth, 2, 60.0, batch=40, seed=3)
    # 40 rows of the 61 x 61 grid's 72 x 72 circulant draw need ~6.6 MB; one
    # row is ~166 KB
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(5 * 10**6))
    assert estimate_field_growth(smooth, 2, 60.0, batch=40, seed=3) == want


@pytest.mark.parametrize("d, extent", [(1, 100.0), (2, 40.0)], ids=["cholesky", "circulant"])
def test_field_growth_factors_once(d, extent, monkeypatch):
    calls = []
    for name in ("_cholesky_factor", "circulant_embedding"):
        fn = getattr(sampler, name)
        monkeypatch.setattr(sampler, name,
                            lambda *a, fn=fn, **k: calls.append(fn) or fn(*a, **k))
    estimate_field_growth(CovarianceModel("gaussian_smooth", lam2=2.0), d, extent,
                          batch=20, seed=0)
    assert len(calls) == 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_field_maxima_grow_with_the_box(seed):
    # every scale is a corner of one draw, so no path's maximum shrinks as
    # the box grows, and neither do the means nor the fitted slope
    smooth = CovarianceModel("gaussian_smooth", lam2=2.0)
    scales = covering._dyadic_maxima(smooth, 2, 12.0, 1.0, 20, seed)
    assert [n_a for n_a, _ in scales] == [36, 9, 4]
    for (_, big), (_, small) in zip(scales, scales[1:]):
        assert np.all(big >= small)
    _, _, slope, data = estimate_field_growth(smooth, 2, 12.0, batch=20, seed=seed)
    means = [m for _, m in data]
    assert means == sorted(means, reverse=True) and slope >= 0


def test_field_run_over_768_points_never_factors_cholesky(monkeypatch):
    # a 41 x 41 box is drawn by circulant embedding alone, so BLAS's thread
    # count, which rounds a Cholesky product, cannot move its bytes
    def refuse(gram):
        raise AssertionError(f"Cholesky factor of {len(gram)} points")

    monkeypatch.setattr(sampler, "_cholesky_factor", refuse)
    rep = field_bound(CovarianceModel("gaussian_smooth", lam2=2.0), 2, 40.0, batch=20)
    assert rep.N_A == 400 and rep.fit_slope >= 0


def test_singleton_covering():
    cov = singleton_covering(5)
    assert len(cov.blocks) == 5
    assert cov.multiplicity == 1


def test_singleton_covering_holds_two_arrays():
    n = 10**6
    cov = singleton_covering(n)
    assert [f.name for f in fields(cov)][:2] == ["indptr", "indices"]
    assert [type(getattr(cov, f.name)) for f in fields(cov)] == [
        np.ndarray, np.ndarray, float, int, str, int]
    assert np.array_equal(cov.indptr, np.arange(n + 1))
    assert np.array_equal(cov.indices, np.arange(n))


def test_iid_sequence_bound_fits_the_bytes_validate_counts(iid):
    # the run checks its singleton covering against the cap, 16 bytes a point;
    # it draws nothing, so the covering is all it holds but a fixed 64 KiB
    n = 10**6
    tracemalloc.start()
    try:
        sequence_bound(iid, n, 0.5, batch=10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n + 64 * 2**10


def test_covering_from_blocks_takes_each_block_as_a_set():
    cov = Covering.from_blocks([[3, 1, 3], [], [0, 2, 1]], n=4)
    assert cov.indptr.tolist() == [0, 2, 2, 5]
    assert cov.indices.tolist() == [1, 3, 0, 1, 2]
    assert [b.tolist() for b in cov.blocks] == [[1, 3], [], [0, 1, 2]]
    empty = Covering.from_blocks([], n=4)
    assert empty.indptr.tolist() == [0] and empty.blocks == []


def test_rho_monte_carlo_histogram():
    cov = build_sequence_covering(16, 0.5)
    argmax = np.tile(np.arange(16), 700)  # uniform argmax, 11200 paths
    est = rho_monte_carlo(cov, argmax)
    # widest block has 9 of 16 indices
    assert est.rho == pytest.approx(9 / 16)
    assert est.source == "monte_carlo"
    with pytest.raises(ValueError):
        rho_monte_carlo(cov, argmax[:100])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(0, 11), max_size=12), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
def test_rho_monte_carlo_equals_the_per_block_sums(blocks, seed):
    # blocks may overlap, repeat an index, run out of order or be empty; a
    # block is a set, so a repeated index counts once, as in verify_covering
    cov = Covering.from_blocks(blocks, n=12)
    argmax = np.random.default_rng(seed).integers(0, 12, 10**4)
    hist = np.bincount(argmax, minlength=12)
    want = max(int(hist[np.unique(np.array(b, dtype=np.int64))].sum()) for b in blocks)
    want /= argmax.size
    assert rho_monte_carlo(cov, argmax).rho == want


def test_sudakov_exponent_and_analytic_rho():
    delta = 2.0  # iid gap
    eps = sudakov_exponent(delta)
    assert eps == pytest.approx((DEFAULT_C_SUD * 2) ** 2 / 2)
    est = rho_analytic_sequence(1000, 0.3, delta)
    assert est.eta == pytest.approx(eps - 0.3)
    assert est.rho == pytest.approx(min(1.0, 4.0 / 1000**est.eta))


def test_analytic_rho_invalid_names_alpha():
    with pytest.raises(ValueError, match="alpha"):
        rho_analytic_sequence(1000, 0.9, 0.5)


def test_bound_scale():
    assert bound_scale(0.3, 0.5) == pytest.approx(max(0.3, 1 / math.log(2)))
    assert bound_scale(0.0, 1.0) == math.inf
    assert bound_scale(2.0, 1e-9) == pytest.approx(2.0)


def test_sequence_bound_iid_analytic(iid, monkeypatch):
    # the iid argmax is uniform, so rho = 1/n exactly on either route, and
    # the bound draws nothing
    def no_draws(*args, **kwargs):
        raise AssertionError("an iid sequence bound draws nothing")

    monkeypatch.setattr(rng, "generators", no_draws)
    n = 1024
    for rho_source in ("monte_carlo", "analytic"):
        rep = sequence_bound(iid, n, 0.5, rho_source=rho_source, batch=MC_RHO_MIN_PATHS)
        assert (rep.rho, rep.rho_se, rep.rho_source) == (1.0 / n, 0.0, "analytic")
        assert rep.K == rep.K_paper == 1.0 / math.log(n)
        assert rep.r0 == 0.0 and not rep.degenerate
        assert rep.covering.provenance == "singletons" and len(rep.covering.blocks) == n


@pytest.mark.parametrize("kind", ["ornstein_uhlenbeck"])
def test_sequence_bound_monte_carlo_rho_is_the_largest_block_share(kind):
    model = CovarianceModel(kind)
    n, batch = 256, MC_RHO_MIN_PATHS
    rep = sequence_bound(model, n, 0.5, rho_source="monte_carlo", batch=batch, seed=4)
    [argmax] = sampler.reduce_blocks(sampler.make_plan(model, (n,)), batch, 4,
                                     lambda x: (x.argmax(axis=1),))
    hist = np.bincount(argmax, minlength=n)
    assert rep.rho_source == "monte_carlo"
    assert rep.rho == max(hist[b].sum() for b in rep.covering.blocks) / batch


@pytest.mark.parametrize("model", ["iid", "ou"])
def test_sequence_bound_unknown_rho_source(model, request):
    with pytest.raises(ValueError, match="unknown rho source 'bogus'"):
        sequence_bound(request.getfixturevalue(model), 256, 0.5, rho_source="bogus")


def test_sequence_bound_rejects_bad_phi1():
    slow = CovarianceModel("power_decay", amp=1.0, alpha_cov=2.0)  # phi(1) = 1/2
    with pytest.raises(HypothesisError, match="phi\\(1\\)"):
        sequence_bound(slow, 64, 0.5)


# phi falls from lag 0 to lag 1 and on past it, but rises from 0.2 at
# lag 0.3 to 0.4 at lag 0.6
GAP_TABLE = CovarianceModel("table", table=((0.0, 1.0), (0.3, 0.2), (0.6, 0.4), (1.0, 0.1),
                                            (40.0, 0.0)))


def test_bounds_reject_a_table_that_rises_between_its_knots():
    with pytest.raises(HypothesisError, match=r"lags \(0\.3, 0\.6\)"):
        sequence_bound(GAP_TABLE, 16, 0.5)
    with pytest.raises(HypothesisError, match=r"lags \(0\.3, 0\.6\)"):
        field_bound(GAP_TABLE, 1, 8.0)


def test_sequence_bound_report_dict():
    # at OU rate 5, delta = 1.987 gives eps = 0.453 with the default Sudakov
    # constant, so alpha = 0.2 leaves eta = 0.253 and the analytic route holds
    fast = CovarianceModel("ornstein_uhlenbeck", rate=5.0)
    rep = sequence_bound(fast, 256, 0.2, rho_source="analytic")
    d = rep.to_dict()
    assert d["pipeline"] == "sequence"
    assert d["rho_source"] == "analytic" and d["eta"] > 0
    assert "covering_blocks" in d
    assert d["covering_multiplicity"] == 3


def test_covering_number_box():
    assert covering_number_box(100.0, 1) == 50
    assert covering_number_box([100.0], 1) == 50
    assert covering_number_box([4.0, 6.0], 2) == 6
    with pytest.raises(ValueError):
        covering_number_box([4.0], 2)


def test_greedy_net_is_verified_net():
    from superconc.sampler import grid_points

    pts = grid_points(2, [19.0, 19.0], 1.0)  # 20 x 20 grid
    idx = greedy_net(pts, 3.0)
    ok, witness = verify_net(pts, idx, 3.0)
    assert ok and witness is None


def test_verify_net_witnesses():
    pts = np.array([[0.0], [1.0], [5.0], [10.0]])
    # too close: 0 and 1 both kept
    ok, w = verify_net(pts, np.array([0, 1, 2, 3]), 2.0)
    assert not ok and w[0] == "separation"
    # not maximal: point 3 is uncovered
    ok, w = verify_net(pts, np.array([0]), 2.0)
    assert not ok and w[0] == "maximality"


def _verify_net_dense(points, net_idx, s0):
    """Reference: all net-net and point-net distances at once."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    net = pts[net_idx]
    dn = np.sqrt(np.sum((net[:, None, :] - net[None, :, :]) ** 2, axis=-1))
    np.fill_diagonal(dn, np.inf)
    if dn.min(initial=np.inf) <= s0:
        i, j = np.unravel_index(int(np.argmin(dn)), dn.shape)
        return False, ("separation", int(net_idx[i]), int(net_idx[j]))
    dall = np.sqrt(np.sum((pts[:, None, :] - net[None, :, :]) ** 2, axis=-1))
    nearest = dall.min(axis=1)
    if np.any(nearest > s0):
        return False, ("maximality", int(np.argmax(nearest)))
    return True, None


def _candidate_nets(net, n, rs):
    """The net itself, with a point dropped, with a duplicate, with an extra point."""
    yield net
    if len(net) > 1:
        yield np.delete(net, rs.integers(len(net)))
    yield np.append(net, net[rs.integers(len(net))])
    yield np.sort(np.append(net, rs.integers(n)))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("spacing", [1.0, 0.5, 0.1])
def test_verify_net_matches_dense_reference(d, spacing):
    rs = np.random.default_rng(d * 10 + int(10 * spacing))
    for _ in range(4):
        pts = rs.uniform(0.0, 10.0 * spacing, (150, d))
        if d == 1:
            pts = pts[:, 0]
        for s0 in (0.3 * spacing, spacing, 2.5 * spacing):
            net = greedy_net(pts, s0)
            for cand in _candidate_nets(net, 150, rs):
                for s in (0.75 * s0, s0, 1.5 * s0):
                    assert verify_net(pts, cand, s) == _verify_net_dense(pts, cand, s)


@pytest.mark.parametrize("d, extent, spacing", LATTICE_TIE_GRIDS)
def test_verify_net_matches_dense_reference_at_lattice_ties(d, extent, spacing):
    from superconc.sampler import grid_points

    pts = grid_points(d, extent, spacing)
    rs = np.random.default_rng(d)
    # net and check radii equal to lattice distances: a pair at exactly s0
    # fails separation and a point at exactly s0 passes maximality
    ks = (1, 2, 3, 4, 5, 9, 13)
    for k in ks:
        net = greedy_net(pts, spacing * math.sqrt(k))
        for cand in _candidate_nets(net, len(pts), rs):
            for k2 in ks:
                s = spacing * math.sqrt(k2)
                assert verify_net(pts, cand, s) == _verify_net_dense(pts, cand, s)


def test_net_ball_covering_covers_everything():
    pts = np.arange(30, dtype=float)[:, None]
    idx = greedy_net(pts, 2.5)
    cov = net_ball_covering(pts, idx, 5.0, r0=0.1)
    member = np.zeros(30, dtype=int)
    for b in cov.blocks:
        member[b] += 1
    assert member.min() >= 1
    assert cov.multiplicity == member.max()


def test_field_bound_constants_given_growth(monkeypatch):
    smooth = CovarianceModel("gaussian_smooth", lam2=2.0)  # phi(1) = 1/e < 1/2
    monkeypatch.setattr(covering, "estimate_field_growth",
                        lambda *a: (1.0, 2.0, 0.5, []))
    rep = field_bound(smooth, 1, 100.0)
    assert (rep.c1, rep.c2, rep.fit_slope) == (1.0, 2.0, 0.5)
    assert rep.N_A == 50
    ratio = (1.0 / 2.0) ** 2 / 8.0
    assert rep.exponent_ratio == pytest.approx(ratio)
    assert rep.s0 == pytest.approx(50.0**ratio)
    assert rep.K == pytest.approx(
        max(float(evaluate(smooth, 50.0**ratio)), 1.0 / math.log(50))
    )


def test_correlated_bound():
    rep = correlated_bound(0.1, 1024)
    assert rep.K == pytest.approx(max(0.1, 1 / math.log(1024)))
    with pytest.raises(ValueError):
        correlated_bound(1.5, 10)


def test_impossible_bounds_raise_one_error_class():
    assert issubclass(HypothesisError, BoundError)
    assert issubclass(TrivialCoveringError, BoundError)
    with pytest.raises(BoundError, match="got 1.5"):
        correlated_bound(1.5, 10)
    with pytest.raises(BoundError, match="eta = "):
        rho_analytic_sequence(1024, 0.45, 2 * (1 - math.exp(-1.0)))
    with pytest.raises(BoundError, match="N\\(A\\) > 1, got 1"):
        field_bound(CovarianceModel("iid"), 1, 2.0)
    # a ratio of 0 puts rho at 1, a negative one s0 below the grid spacing
    smooth = CovarianceModel("gaussian_smooth", lam2=2.0)
    for ratio in (0.0, -0.5):
        with pytest.raises(BoundError, match=f"exponent_ratio must be positive, got {ratio}"):
            field_bound(smooth, 1, 100.0, exponent_ratio=ratio)


def test_find_sign_vectors_deterministic():
    a = find_sign_vectors(64, 8, seed=5)
    b = find_sign_vectors(64, 8, seed=5)
    assert np.array_equal(a.vectors, b.vectors)
    assert a.tries == b.tries


def _reference_sign_vectors(n, N_target, threshold, seed, max_tries):
    from superconc import rng

    kept, tries, pair_tests, pair_pass = [], 0, 0, 0
    while len(kept) < N_target and tries < max_tries:
        g = rng.stream_generator(seed, tries)
        cand = (g.integers(0, 2, size=n) * 2 - 1).astype(np.int8)
        tries += 1
        dots = np.array([int(v.astype(np.int64) @ cand.astype(np.int64)) for v in kept])
        pair_tests += len(kept)
        pair_pass += int(np.sum(np.abs(dots) <= threshold))
        if np.all(np.abs(dots) <= threshold):
            kept.append(cand)
    return np.array(kept, dtype=np.int8).reshape(-1, n), tries, pair_tests, pair_pass


@pytest.mark.parametrize("n, N_target, threshold, seed, max_tries", [
    (64, 8, 64 ** (2 / 3), 5, 10**5),
    (33, 40, 12.0, 2, 10**5),
    (100, 50, 1.0, 0, 4200),  # saturates after more than 4096 streams
])
def test_find_sign_vectors_matches_stream_generator_loop(n, N_target, threshold, seed,
                                                         max_tries):
    res = find_sign_vectors(n, N_target, threshold=threshold, seed=seed,
                            max_tries=max_tries)
    vectors, tries, pair_tests, pair_pass = _reference_sign_vectors(
        n, N_target, threshold, seed, max_tries)
    assert np.array_equal(res.vectors, vectors) and res.vectors.dtype == np.int8
    assert (res.tries, res.accepted, res.saturated, res.pair_tests, res.pair_pass) == (
        tries, len(vectors), len(vectors) < N_target, pair_tests, pair_pass)
    assert res.threshold == threshold


def test_find_sign_vectors_verified():
    res = find_sign_vectors(64, 8, seed=5)
    assert res.threshold == pytest.approx(64 ** (2 / 3))
    assert not res.saturated
    ok, witness = verify_sign_vectors(res.vectors, res.threshold)
    assert ok and witness is None


def test_find_sign_vectors_saturation():
    res = find_sign_vectors(100, 50, threshold=1.0, seed=0, max_tries=50)
    assert res.saturated
    assert res.accepted < 50


def test_verify_sign_vectors_witness():
    v = np.ones((2, 10), dtype=np.int8)
    ok, witness = verify_sign_vectors(v, 5.0)
    assert not ok
    assert witness == (0, 1)


@given(st.integers(min_value=2, max_value=200))
def test_sign_vector_dot_parity(n):
    # dot products of +-1 vectors have the parity of n; the binomial-tail
    # oracle in the acceptance suite relies on |2B - n| having that parity
    rng = np.random.default_rng(n)
    a = rng.integers(0, 2, n) * 2 - 1
    b = rng.integers(0, 2, n) * 2 - 1
    assert (int(a @ b) - n) % 2 == 0


def test_tail_curves():
    t = np.linspace(0, 3, 7)
    curve = tail_curve(1.0, 2.0, t)
    assert curve[0] == 6.0
    assert np.all(np.diff(curve) < 0)
    assert np.all(curve <= 6.0)
    g = gaussian_tail_curve(t)
    assert g[0] == 2.0
    with pytest.raises(ValueError):
        tail_curve(0.0, 1.0, t)


def test_crossover_window_quadratic_oracle():
    K, c = 0.25, 2.0
    a = c / math.sqrt(K)
    disc = a * a - 2 * math.log(3.0)
    lo = a - math.sqrt(disc)
    hi = a + math.sqrt(disc)
    win = crossover_window(K, c)
    assert win is not None
    assert win[0] == pytest.approx(lo, rel=1e-6)
    assert win[1] == pytest.approx(hi, rel=1e-6)
    # the curves actually cross there
    t = np.array(win)
    assert np.allclose(tail_curve(K, c, t), gaussian_tail_curve(t), rtol=1e-5)


def test_crossover_window_roots_multiply_to_two_log3():
    # t_lo * t_hi = 2 log 3; t_lo stays accurate where a - sqrt(a^2 - 2 log 3)
    # would cancel to 0
    for K, c in ((0.25, 2.0), (1e-16, 1.0)):
        lo, hi = crossover_window(K, c)
        assert lo * hi == pytest.approx(2 * math.log(3.0), rel=1e-12)
    # a = 1e8: t_lo = log 3 / a to first order
    assert crossover_window(1e-16, 1.0)[0] == pytest.approx(math.log(3.0) / 1e8, rel=1e-12)


def test_crossover_window_none_when_no_gain():
    # peak advantage a^2/2 below log 3: curves never cross
    assert crossover_window(4.0, 0.5) is None
