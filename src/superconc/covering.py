"""Covering constructions and the constants of the tail bounds.

Three pipelines produce a :class:`BoundReport`:

* sequence pipeline — overlapping blocks of width 2 m, m = floor(n^alpha),
  with multiplicity 3; r_0 = phi(m); rho bounded analytically by 4/n^eta
  or estimated from argmax histograms (iid points: singletons, rho = 1/n).
* field pipeline — covering number of a box, greedy maximal s_0-net,
  balls of radius 2 s_0 as blocks.
* correlated pipeline — singletons for vectors with off-diagonal
  correlations below a given epsilon.

A report carries its covering's block count, multiplicity and provenance;
only a Monte Carlo rho and a field build the :class:`Covering` itself.

The bound scale is K = max(r_0, 1/log(1/rho)); the resulting tail curve
is 6 exp(-c t / sqrt(K)), to be compared with the classical Gaussian
curve 2 exp(-t^2 / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .covariance import CovarianceModel, check_hypotheses, evaluate
from .extremes import _stable_mean, corner_maxima
from .sampler import (_check_capacity, box_extents, grid_geometry, grid_points, make_plan,
                      reduce_blocks)

# Sudakov minoration constant C: E[max] >= C * delta_gap * sqrt(log n)
DEFAULT_C_SUD = 1.0 / math.sqrt(2.0 * math.pi * math.log(2.0))

MC_RHO_MIN_PATHS = 10**4


class BoundError(ValueError):
    """The inputs rule the bound out; the message carries the numbers why."""


class HypothesisError(BoundError):
    """Covariance model fails a hypothesis of the bound being assembled."""


class TrivialCoveringError(BoundError):
    """The block construction would cover everything with a single block."""


@dataclass
class Covering:
    indptr: np.ndarray = field(repr=False)  # block b is indices[indptr[b]:indptr[b + 1]]
    indices: np.ndarray = field(repr=False)  # int64 0-based index sets, end to end
    r0: float = 0.0
    multiplicity: int = 1
    n: int = 0

    @classmethod
    def from_blocks(cls, blocks, **kw) -> Covering:
        """The covering of the given index arrays, each taken as a set; joining
        them holds 24 bytes an index: the blocks, their sets and the join."""
        total = sum(map(len, blocks))
        _check_capacity(24 * total + 8 * (len(blocks) + 1),
                        f"a covering of {len(blocks)} blocks and {total} indices")
        sets = [np.unique(np.asarray(b, dtype=np.int64)) for b in blocks]
        indptr = np.cumsum([0] + [len(b) for b in sets], dtype=np.int64)
        return cls(indptr, np.concatenate([indptr[:0], *sets]), **kw)

    @property
    def blocks(self) -> list[np.ndarray]:
        """Each block as a view of ``indices``, for per-block readers."""
        return np.split(self.indices, self.indptr[1:-1]) if len(self.indptr) > 1 else []


def _sequence_blocks(n: int, alpha: float) -> tuple[int, int]:
    """m = floor(n^alpha) and the count ceil(n/m) - 1 of the blocks
    {(k-1)m .. (k+1)m}; a single block would cover everything when 2m >= n."""
    if not 0 < alpha < 1:
        raise BoundError(f"alpha must lie in (0, 1), got {alpha}")
    m = int(math.floor(n**alpha))
    if 2 * m >= n:
        raise TrivialCoveringError(f"2*floor(n^alpha) = {2 * m} >= n = {n}: a single block "
                                   "would cover everything; lower alpha")
    return m, math.ceil(n / m) - 1


def build_sequence_covering(n: int, alpha: float) -> Covering:
    """Overlapping blocks {(k-1)m .. (k+1)m} (1-based), m = floor(n^alpha).

    Every pair i < j with j - i <= m shares a block and each index lies in
    at most 3 blocks.  Indices are stored 0-based.
    """
    m, blocks = _sequence_blocks(n, alpha)
    # int64 entries: up to 2m + 1 a block in the ramp and in its offsets, and six a block besides
    _check_capacity(8 * (2 * (2 * m + 1) + 6) * blocks, f"the sequence covering of {n} points")
    k = np.arange(1, blocks + 1)
    lo = np.maximum(1, (k - 1) * m) - 1
    indptr = np.concatenate([[0], np.cumsum(np.minimum(n, (k + 1) * m) - lo)])
    # block b is lo[b], lo[b] + 1, ...: a ramp that restarts at each block
    indices = np.arange(indptr[-1])
    indices -= np.repeat(indptr[:-1] - lo, np.diff(indptr))
    return Covering(indptr, indices, r0=math.nan, multiplicity=3, n=n)


def verify_covering(cov: Covering, gram: np.ndarray, r0: float):
    """Exhaustively check the two covering hypotheses against a gram matrix.

    Returns (ok, witness); witness is None, ("pair", i, j) for a correlated
    pair sharing no block, or ("multiplicity", i) for an over-covered index.
    """
    n = gram.shape[0]
    if cov.n != n:
        raise ValueError("covering size does not match gram dimension")
    counts = np.bincount(cov.indices, minlength=n)  # blocks holding each index
    if counts.max(initial=0) > cov.multiplicity:
        return False, ("multiplicity", int(np.argmax(counts)))

    # pairs whose correlation exceeds r0 must share a block; ties at r0 are
    # separated (matters when phi underflows to 0 at large lags)
    bad = gram > r0
    np.fill_diagonal(bad, False)
    for idx in cov.blocks:
        bad[np.ix_(idx, idx)] = False
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return False, ("pair", int(i), int(j))
    return True, None


@dataclass
class RhoEstimate:
    rho: float
    source: str  # "analytic" | "monte_carlo"
    se: float = 0.0
    eta: float | None = None
    degenerate: bool = False  # rho >= 1: 1/log(1/rho) blows up


def rho_monte_carlo(cov: Covering, argmax_indices) -> RhoEstimate:
    """rho = max over blocks of the empirical argmax probability."""
    idx = np.asarray(argmax_indices)
    npaths = idx.size
    if npaths < MC_RHO_MIN_PATHS:
        raise ValueError(f"Monte Carlo rho needs >= {MC_RHO_MIN_PATHS} paths")
    hist = np.bincount(idx, minlength=cov.n)
    # block sums: hist's running total over indices, differenced at indptr (exact in integers)
    total = np.concatenate([[0], np.cumsum(hist[cov.indices])])
    rho = float(np.max(np.diff(total[cov.indptr])) / npaths)
    se = math.sqrt(max(rho * (1 - rho), 1.0 / npaths) / npaths)
    return RhoEstimate(rho, "monte_carlo", se=se, degenerate=rho >= 1.0)


def sudakov_exponent(delta: float) -> float:
    """Exponent eps in P(I = i) <= 2/n^eps from the minoration of E[max]."""
    return (DEFAULT_C_SUD * delta) ** 2 / 2.0


def rho_analytic_sequence(n: int, alpha: float, delta: float) -> RhoEstimate:
    """Block argmax probability bound rho = min(1, 4/n^eta), eta = eps - alpha."""
    if delta <= 0:
        raise ValueError("analytic rho needs delta = 2(1 - phi(1)) > 0")
    eps = sudakov_exponent(delta)
    eta = eps - alpha
    if eta <= 0:
        raise BoundError(
            f"analytic route invalid: eta = {eta:.4g} <= 0; requires "
            f"alpha < (c*delta)^2/2 = {eps:.4g}"
        )
    rho = min(1.0, 4.0 / n**eta)
    return RhoEstimate(rho, "analytic", eta=eta, degenerate=rho >= 1.0)


def bound_scale(r0: float, rho: float) -> float:
    """K = max(r_0, 1/log(1/rho)); infinite when rho >= 1."""
    if rho >= 1.0:
        return math.inf
    return max(r0, 1.0 / math.log(1.0 / rho))


@dataclass
class BoundReport:
    pipeline: str
    K: float
    r0: float
    rho: float
    rho_source: str
    n: int | None = None
    alpha: float | None = None
    m: int | None = None
    rho_se: float = 0.0
    eta: float | None = None
    delta: float | None = None
    K_paper: float | None = None
    N_A: int | None = None
    s0: float | None = None
    c1: float | None = None
    c2: float | None = None
    fit_slope: float | None = None
    exponent_ratio: float | None = None
    epsilon: float | None = None
    degenerate: bool = False
    covering_blocks: int | None = None
    covering_multiplicity: int | None = None
    covering_provenance: str | None = None
    covering: Covering | None = field(default=None, repr=False)  # where a bound reads its sets

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None and k != "covering"}


def _gate_hypotheses(model: CovarianceModel):
    rep = check_hypotheses(model)
    if not rep.nonincreasing:
        raise HypothesisError(
            f"phi must be non-increasing; violated near lags "
            f"{rep.details.get('nonincreasing_witness')}"
        )
    if not rep.phi1_lt_half:
        raise HypothesisError(
            f"phi(1) < 1/2 violated: phi(1) = {rep.details['phi1']:.6g}"
        )


def sequence_bound(
    model: CovarianceModel,
    n: int,
    alpha: float,
    rho_source: str = "monte_carlo",
    batch: int = MC_RHO_MIN_PATHS,
    seed: int = 0,
) -> BoundReport:
    """Assemble the full constant pipeline of the sequence tail bound.  iid
    points draw nothing: their argmax is uniform, so rho = 1/n on either route."""
    _gate_hypotheses(model)
    delta = 2.0 * (1.0 - evaluate(model, 1.0))

    if not 0 < alpha < 1:
        raise BoundError(f"alpha must lie in (0, 1), got {alpha}")
    m = int(math.floor(n**alpha))
    if rho_source not in ("monte_carlo", "analytic"):
        raise ValueError(f"unknown rho source {rho_source!r}")
    if model.kind == "iid":
        blocks, mult, kind = n, 1, "singletons"
        cov, r0, rho = None, 0.0, RhoEstimate(1.0 / n, "analytic")
    else:
        (m, blocks), mult, kind = _sequence_blocks(n, alpha), 3, "sequence-blocks"
        r0 = float(evaluate(model, float(m)))
        if rho_source == "monte_carlo":
            cov = build_sequence_covering(n, alpha)
            cov.r0 = r0
            [argmax] = reduce_blocks(make_plan(model, (n,)), batch, seed,
                                     lambda x: (x.argmax(axis=1),))
            rho = rho_monte_carlo(cov, argmax)
        else:
            cov, rho = None, rho_analytic_sequence(n, alpha, delta)

    K = bound_scale(r0, rho.rho)
    K_paper = max(float(evaluate(model, float(n) ** alpha)), 1.0 / math.log(n))
    return BoundReport(
        pipeline="sequence", K=K, r0=r0, rho=rho.rho, rho_source=rho.source,
        n=n, alpha=alpha, m=m, rho_se=rho.se, eta=rho.eta, delta=delta,
        K_paper=K_paper, degenerate=rho.degenerate or not math.isfinite(K),
        covering_blocks=blocks, covering_multiplicity=mult, covering_provenance=kind,
        covering=cov,
    )


# ---------------------------------------------------------------------------
# field pipeline

def covering_number_box(extent, d: int) -> int:
    """Unit-ball covering number of a box: prod(ceil(extent_i / 2)).

    For d = 1 and A = [0, T] this is T/2 (radius-1 balls are length-2
    intervals).
    """
    return math.prod(math.ceil(e / 2.0) for e in box_extents(d, extent))


def _first_coordinate_windows(pts: np.ndarray, queries: np.ndarray, r: float):
    """The points sorted by first coordinate (stable), their order, and for
    each query point the slice [lo, hi) of that order that holds every point
    whose first coordinate the distance test at radius r can accept.

    The test rounds x_c - x_i, its square and the sum of squares, and
    rounding is monotone, so a sum at most fl(r * r) has
    |x_c - x_i| <= r (1 + 4u) + 2^-535 (u = 2^-53; the second term is a
    difference whose square underflows to 0).  The half-width h widens r by
    a relative 2^-20 for the first term and by sqrt(tiny) for the second,
    and adds (|x_i| + r) 2^-50, at least 4 ulps of it, as slack on top.
    Rounding x_i -+ h is monotone too, so the bounds still hold every such
    x_c.  A NaN radius, which the test meets nowhere, windows every point.
    """
    x = pts[:, 0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    xq = x[queries]
    r = math.inf if math.isnan(r) else abs(r)
    h = r * (1.0 + 2.0**-20) + (np.abs(xq) + r) * 2.0**-50 + math.sqrt(np.finfo(float).tiny)
    lo = np.searchsorted(xs, xq - h, side="left")
    hi = np.searchsorted(xs, xq + h, side="right")
    return pts[order], order, lo, hi


def greedy_net(points: np.ndarray, s0: float) -> np.ndarray:
    """Indices of a maximal s0-separated subset, grown greedily in order.

    Kept points are mutually separated by distance > s0; maximality means
    every input point is within s0 of some kept point.  A point is kept
    when it is still free, and keeping it takes every point within s0 of it
    out of the free set.  Only the points whose first coordinate lies in a
    window around the kept point's are tested
    (:func:`_first_coordinate_windows`); the window holds every point the
    test could take out, and the test is the squared distance against
    s0 * s0 as before, so the net is the one a test against every point
    gives.  Points are finite.
    """
    pts = np.asarray(points, dtype=float)
    pts = pts[:, None] if pts.ndim == 1 else pts
    n = pts.shape[0]
    sorted_pts, order, lo, hi = _first_coordinate_windows(pts, np.arange(n), s0)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    free = np.ones(n, dtype=bool)  # by rank: free[rank[i]] is point i's
    kept: list[int] = []
    for i in range(n):
        if free[rank[i]]:
            kept.append(i)
            a, b = lo[i], hi[i]
            free[a:b] &= np.sum((sorted_pts[a:b] - pts[i]) ** 2, axis=1) > s0 * s0
    return np.array(kept)


def net_ball_covering(points: np.ndarray, net_idx: np.ndarray, radius: float,
                      r0: float) -> Covering:
    """Blocks = balls of the given radius around net points.

    A ball holds the points at squared distance at most radius * radius from
    its centre.  Only the points whose first coordinate lies in a window
    around the centre's are tested (:func:`_first_coordinate_windows`), a
    window that holds every point the test can accept, so each ball is the
    one a test against every point gives.  Points are finite.
    """
    pts = np.asarray(points, dtype=float)
    pts = pts[:, None] if pts.ndim == 1 else pts
    net_idx = np.asarray(net_idx, dtype=np.int64)
    sorted_pts, order, lo, hi = _first_coordinate_windows(pts, net_idx, radius)
    blocks = [order[a:b][np.sum((sorted_pts[a:b] - pts[i]) ** 2, axis=1) <= radius * radius]
              for i, a, b in zip(net_idx, lo, hi)]
    cov = Covering.from_blocks(blocks, r0=r0, n=pts.shape[0])
    cov.multiplicity = int(np.bincount(cov.indices, minlength=cov.n).max())
    return cov


def _dyadic_maxima(model, d: int, extent, spacing: float, batch: int, seed: int) -> list:
    """(N, per-path maxima) of each dyadic sub-box [0, A/2^k] with N > 1, from
    A down, read as the corners of one draw of A (:func:`corner_maxima`)."""
    scales, scale = [], np.array(box_extents(d, extent))
    while (n_a := covering_number_box(scale, d)) > 1 and min(scale) >= spacing:
        scales.append((n_a, grid_geometry(d, scale, spacing)))
        scale = scale / 2.0
    if len(scales) < 2:
        raise BoundError(f"need at least 2 dyadic scales with N(A) > 1, got {len(scales)}")
    maxima = corner_maxima(make_plan(model, scales[0][1], spacing),
                           [shape for _, shape in scales], batch, seed)
    return [(n_a, m) for (n_a, _), m in zip(scales, maxima)]


def estimate_field_growth(
    model: CovarianceModel,
    d: int,
    extent,
    spacing: float = 1.0,
    batch: int = 400,
    seed: int = 0,
) -> tuple[float, float, float, list[tuple[int, float]]]:
    """Estimate c1 <= m(A)/sqrt(log N(A)) <= c2 over dyadic sub-boxes, drawn
    as the corners of one draw of A (:func:`_dyadic_maxima`).

    Returns (c1, c2, regression slope, per-scale (N, mean sup) data).
    """
    data = [(n_a, _stable_mean(m))
            for n_a, m in _dyadic_maxima(model, d, extent, spacing, batch, seed)]
    xs = np.array([math.sqrt(math.log(n_a)) for n_a, _ in data])
    ys = np.array([m for _, m in data])
    ratios = ys / xs
    slope = float(np.polyfit(xs, ys, 1)[0])
    return float(ratios.min()), float(ratios.max()), slope, data


def field_bound(
    model: CovarianceModel,
    d: int,
    extent,
    exponent_ratio: float | None = None,
    spacing: float = 1.0,
    batch: int = 400,
    seed: int = 0,
) -> BoundReport:
    """Field-pipeline constants: N(A), s_0-net covering and K_{N(A)}."""
    if exponent_ratio is not None and not exponent_ratio > 0:
        raise BoundError(f"exponent_ratio must be positive, got {exponent_ratio}")
    n_a = covering_number_box(extent, d)
    if n_a <= 1:
        raise BoundError(f"field bound needs N(A) > 1, got {n_a}")
    _gate_hypotheses(model)

    c1, c2, slope, _ = estimate_field_growth(model, d, extent, spacing, batch, seed)
    if exponent_ratio is None:
        exponent_ratio = (c1 / c2) ** 2 / 8.0

    s0 = n_a**exponent_ratio
    pts = grid_points(d, extent, spacing)
    net_idx = greedy_net(pts, s0)
    r0 = float(evaluate(model, s0))
    cov = net_ball_covering(pts, net_idx, 2.0 * s0, r0)

    rho = min(1.0, 1.0 / n_a**exponent_ratio)
    K = max(float(evaluate(model, float(n_a) ** exponent_ratio)),
            1.0 / math.log(n_a))
    return BoundReport(
        pipeline="field", K=K, r0=r0, rho=rho, rho_source="analytic",
        N_A=n_a, s0=float(s0), c1=c1, c2=c2, fit_slope=slope,
        exponent_ratio=float(exponent_ratio), degenerate=rho >= 1.0,
        covering_blocks=len(cov.indptr) - 1, covering_multiplicity=cov.multiplicity,
        covering_provenance="field-net", covering=cov,
    )


# ---------------------------------------------------------------------------
# epsilon-correlated vectors and sign-vector sets

def correlated_bound(eps: float, n: int) -> BoundReport:
    """Singleton-covering bound K = max(eps, 1/log n) for weak correlations."""
    if not 0 < eps < 1:
        raise BoundError(f"eps must lie in (0, 1), got {eps}")
    if n < 2:
        raise BoundError(f"n must be at least 2, got {n}")
    K = max(eps, 1.0 / math.log(n))
    return BoundReport(
        pipeline="correlated", K=K, r0=eps, rho=1.0 / n, rho_source="analytic",
        n=n, epsilon=eps, covering_blocks=n, covering_multiplicity=1,
        covering_provenance="singletons",
    )


@dataclass
class SignVectorSet:
    vectors: np.ndarray  # (found, n), entries +-1
    threshold: float
    tries: int
    accepted: int
    saturated: bool
    pair_tests: int
    pair_pass: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.tries if self.tries else math.nan

    @property
    def pair_pass_rate(self) -> float:
        return self.pair_pass / self.pair_tests if self.pair_tests else math.nan


def find_sign_vectors(
    n: int,
    N_target: int,
    threshold: float | None = None,
    seed: int = 0,
    max_tries: int = 10**5,
) -> SignVectorSet:
    """Rejection-sample sign vectors with pairwise |dot| below the threshold.

    Candidates are uniform on {-1, 1}^n; one is kept when its dot product
    with every vector already kept stays within the threshold (default
    n^{2/3}).  If max_tries is exhausted the partial set is returned with
    the saturation flag raised.
    """
    if N_target < 2:
        raise ValueError("N_target must be at least 2")
    if threshold is None:
        threshold = n ** (2.0 / 3.0)
    kept = np.empty((N_target, n), dtype=np.int8)
    found = 0
    tries = 0
    pair_tests = 0
    pair_pass = 0
    streams = rng.generators(seed, 0, max_tries)
    while found < N_target and tries < max_tries:
        g = next(streams)
        cand = (g.integers(0, 2, size=n) * 2 - 1).astype(np.int8)
        tries += 1
        if found:
            dots = kept[:found].astype(np.int64) @ cand.astype(np.int64)
            ok_mask = np.abs(dots) <= threshold
            pair_tests += found
            pair_pass += int(ok_mask.sum())
            if not ok_mask.all():
                continue
        kept[found] = cand
        found += 1
    return SignVectorSet(
        vectors=kept[:found].copy(), threshold=float(threshold), tries=tries,
        accepted=found, saturated=found < N_target,
        pair_tests=pair_tests, pair_pass=pair_pass,
    )


# ---------------------------------------------------------------------------
# tail curves

def tail_curve(K: float, c: float, t_grid) -> np.ndarray:
    """Superconcentration bound 6 exp(-c t / sqrt(K)) on a t grid."""
    if K <= 0 or c <= 0:
        raise BoundError(f"K and c must be positive, got K = {K}, c = {c}")
    t = np.asarray(t_grid, dtype=float)
    return 6.0 * np.exp(-c * t / math.sqrt(K))


def gaussian_tail_curve(t_grid) -> np.ndarray:
    """Classical Gaussian concentration bound 2 exp(-t^2 / 2)."""
    t = np.asarray(t_grid, dtype=float)
    return 2.0 * np.exp(-(t**2) / 2.0)


def crossover_window(K: float, c: float) -> tuple[float, float] | None:
    """t interval on which the superconcentration curve beats the Gaussian one.

    6 exp(-c t / sqrt(K)) = 2 exp(-t^2 / 2) is the quadratic
    t^2 / 2 - a t + log 3 = 0 with a = c / sqrt(K); its roots are
    a -+ sqrt(a^2 - 2 log 3), the smaller taken as 2 log 3 over the larger
    to avoid cancellation.  Returns None when the curves never cross (the
    linear exponent never gains log 3 on t^2/2).
    """
    if K <= 0 or c <= 0:
        raise ValueError("K and c must be positive")
    a = c / math.sqrt(K)
    two_log3 = 2.0 * math.log(3.0)
    if a * a <= two_log3:
        return None
    t_hi = a + math.sqrt(a * a - two_log3)
    return (two_log3 / t_hi, t_hi)
