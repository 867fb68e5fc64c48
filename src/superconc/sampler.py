"""Exact samplers for stationary Gaussian sequences and grid fields.

A sequence is the 1-d lattice at spacing 1, a grid field the lattice of its
grid.  :func:`make_plan` factors a lattice once into a :class:`LatticePlan`
and :func:`draw_rows` samples it as often as needed.  Two exact methods:

* ``cholesky`` — factor the gram matrix; reference method, always exact
  when the factorization succeeds.
* ``circulant`` — embed the gram into a nonnegative-definite (block)
  circulant C of M points whose eigenvalues lambda are the FFT of its first
  row, then draw straight from the spectrum and crop to the lattice (Wood &
  Chan 1994; Dietrich & Newsam 1997): X = irfftn(f * Z) with Z complex
  noise on the rfftn half-spectrum, real and imaginary parts iid N(0, 1),
  and f = sqrt(M lambda / 2), or sqrt(M lambda) on the planes irfftn reads
  once (index 0 of the last axis and, for an even last axis, its Nyquist
  index).  irfftn(H) is Re ifftn(w H) with w = 2 off those planes, so X has
  covariance C exactly, from 2 prod(half shape) normals a path (m + 2 for
  an even 1-d embedding of m points) and no forward FFT.  It is the fast
  path for large lattices.  An axis of s points embeds in
  m >= min(2(s - 1), s + L) points, where |phi| is at most 2^-53 past L
  lattice steps: every lag k < s of the axis either keeps its wrap
  min(k, m - k) = k or has both k and m - k past L, so the cropped circulant
  is the gram up to rounding.  m is rounded up to a 5-smooth size so that
  the FFT never falls back to Bluestein's algorithm for a large prime
  factor.

By default a lattice of more than ``CHOLESKY_MAX_N`` points, in any
dimension, is drawn by circulant embedding: a path then costs O(m log m)
for an embedding of m points against 2n^2 for the Cholesky product.
Where no embedding exists, because it stays negative at every doubling
whose one path fits the memory cap and the Cholesky factor's bytes, or needs
lags past a table model's last one, the default falls back to Cholesky.
At any size, a gram that fails Cholesky falls back to any embedding within
the cap; an explicit ``method`` never falls back.

Each path draws from its own counter-based stream (see :mod:`superconc.rng`),
so a path does not depend on scheduling.  Circulant and iid draws are also
bit-identical across blocks of rows and CPU counts.  A Cholesky lattice (768
points or fewer, or a fallback) moves by a few ulp with both: BLAS rounds a
row of ``noise @ factor.T`` by the rows in the product and by its own thread
count, so its bytes match across machines only with BLAS pinned to one
thread, as the benchmark pins it.  :func:`reduce_blocks` is the one loop over
the blocks of a batch, and :func:`draw_workers` the one rule for threads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .covariance import CovarianceModel, TableRangeError, evaluate, gram_matrix

DEFAULT_CAP_BYTES = 2**31
# the default method switches to circulant above this many lattice points.
# It was set where 1e4 OU maxima drew in the same time by either method, with
# BLAS on one thread, embeddings of twice the lattice per axis and one draw
# thread; a 2-d Gaussian-smooth grid then broke even between 23 x 23 and
# 25 x 25.  With embeddings of about n + 36 points (OU at rate 1), BLAS on one
# thread and circulant blocks on 2 threads of a 2-core Xeon KVM guest, 1e4 OU
# maxima take, Cholesky / circulant: 0.16-0.23 / 0.20-0.23 s at 256 points,
# 0.34-0.38 / 0.28-0.32 s at 512, 0.75-0.78 / 0.27-0.30 s at 768 and
# 2.27-2.29 / 0.33 s at 1024 (one draw thread: 0.21 / 0.23, 0.40 / 0.31,
# 0.81 / 0.43, 2.14 / 0.47), so the break-even lies between 256 and 512.
# These timings predate the draw from half-spectrum noise, which runs no
# forward FFT and so only lowers the circulant side.  The switch stays at
# 768: moving it would change the bytes of every run at the sizes it passes
CHOLESKY_MAX_N = 768
EMBED_REL_TOL = 1e-10
# |phi| at or below this is the rounding of phi(0) = 1: a lag past it may wrap
TINY = 2.0**-53
EMBED_MAX_DOUBLINGS = 6
# working bytes per element of one path while it is drawn: a Cholesky draw's
# noise and product take 16; a circulant draw's half-spectrum noise about 8
# (it is scaled in place, with no forward spectrum), and the inverse
# transform's working copy, its output and the crop about 24 more
DRAW_BYTES_PER_ELEM = 32
# elements of draw work in one block of a batched draw, 4 MiB of it: with
# BLAS on one thread, 1e4 OU maxima at n = 500 and 768 draw by Cholesky
# within 7 % of the time of one product of every row
BLOCK_ELEMS = 2**17


class CapacityError(MemoryError):
    """Requested batch would exceed the configured memory cap: ``needed``
    bytes against a ``limit``, both ``None`` for a malformed cap."""

    def __init__(self, message: str, needed: int | None = None, limit: int | None = None):
        self.needed = needed
        self.limit = limit
        super().__init__(message)


def capacity_bytes() -> int:
    """The memory cap: SUPERCONC_CAP_BYTES, a positive whole number of bytes."""
    raw = os.environ.get("SUPERCONC_CAP_BYTES", str(DEFAULT_CAP_BYTES))
    if not (raw.isascii() and raw.isdigit() and int(raw) > 0):
        raise CapacityError(
            f"SUPERCONC_CAP_BYTES={raw!r} is not a positive whole number of bytes")
    return int(raw)


def block_rows(row_elems: int) -> int:
    """Rows of ``row_elems`` elements in one block of a batched draw: at least
    one, within ``BLOCK_ELEMS`` elements of draw work, and within the cap only
    where it is below 4 MiB; at any larger cap the block ignores it."""
    return max(1, min(BLOCK_ELEMS, capacity_bytes() // DRAW_BYTES_PER_ELEM) // row_elems)


class DecompositionError(ValueError):
    """Gram matrix is not numerically positive definite."""

    def __init__(self, order: int):
        self.order = order
        super().__init__(
            f"gram matrix is not positive definite: leading minor of order "
            f"{order} fails Cholesky"
        )


class EmbeddingError(ValueError):
    """Circulant embedding has a significantly negative eigenvalue."""

    def __init__(self, worst: float, sizes: list[tuple[int, ...]]):
        self.worst = worst
        self.sizes = sizes
        super().__init__(
            f"circulant embedding not nonnegative definite: most negative "
            f"eigenvalue {worst:.3e} after trying sizes {sizes}"
        )


@dataclass
class SampleBatch:
    paths: np.ndarray  # (batch, n)
    method: str


def _check_capacity(nbytes: int, what: str):
    """The one comparison with the memory cap, made before ``what`` (a name
    such as "the sequence covering of 10 points") allocates its ``nbytes``."""
    cap = capacity_bytes()
    if nbytes > cap:
        raise CapacityError(
            f"{what} needs ~{nbytes} bytes, cap is {cap} "
            "(override with SUPERCONC_CAP_BYTES)", nbytes, cap
        )


@dataclass(frozen=True, eq=False)
class LatticePlan:
    """A lattice factored once: the Cholesky lower factor of the gram, or
    the scale f of the module docstring on the rfftn half-spectrum of the
    circulant embedding of ``embed_shape``; no factor for the iid model,
    whose gram is the identity.
    """

    method: str
    shape: tuple[int, ...]
    factor: np.ndarray | None
    embed_shape: tuple[int, ...] | None = None

    @property
    def n(self) -> int:
        return math.prod(self.shape)

    @property
    def row_elems(self) -> int:
        """Elements per path of a draw: m for a circulant, else n."""
        return math.prod(self.embed_shape) if self.embed_shape else self.n

    @property
    def row_bytes(self) -> int:
        return DRAW_BYTES_PER_ELEM * self.row_elems


def _cholesky_factor(gram: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        # locate the smallest failing leading minor for the error message
        lo, hi = 1, gram.shape[0]
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                np.linalg.cholesky(gram[:mid, :mid])
                lo = mid + 1
            except np.linalg.LinAlgError:
                hi = mid
        raise DecompositionError(lo) from None


def fast_size(k: int) -> int:
    """The smallest 5-smooth whole number >= k, for k >= 1: an FFT of that
    length runs on the radices 2, 3 and 5 alone."""
    best = 1 << (k - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that takes it to k or past
            best = min(best, p35 << ((k - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _reach(model: CovarianceModel, spacing: float, most: int) -> int:
    """A lag L in lattice steps, at most ``most``, past which |phi| is rounding:
    |phi(t)| <= ``TINY`` at every t >= spacing (L + 1).  ``most`` for a table
    whose last knot is above ``TINY``.

    Every kind but ``table`` is non-increasing and nonnegative, so L is the
    last lag above ``TINY``.  A table is linear between its knots, so L is
    the last lag short of the knot after its last knot above ``TINY``.
    Either is found by bisection, without an array of lags."""
    if model.kind == "table":
        last = max(i for i, (_, v) in enumerate(model.table) if abs(v) > TINY)
        if last + 1 == len(model.table):
            return most
        past = model.table[last + 1][0]

        def above(t):
            return t < past
    else:
        def above(t):
            return evaluate(model, t) > TINY
    lo, hi = 0, most + 1  # lag lo is above; hi is past the search
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(spacing * mid) else (lo, mid)
    return lo


def base_embedding(shape, model: CovarianceModel, spacing: float = 1.0) -> tuple[int, ...]:
    """The smallest embedding tried for the lattice of ``shape`` at
    ``spacing``: per axis of s points the 5-smooth m >= max(min(2(s - 1),
    s + L), 2), with L from :func:`_reach`.

    A lag k < s whose wrap min(k, m - k) is not k then has k and m - k both
    past L, so the circulant cropped to the lattice differs from its gram
    only where both entries lie within ``TINY`` of 0 (Wood & Chan 1994;
    Gneiting et al. 2006).  A model above ``TINY`` past every lag of an axis
    embeds it at m >= 2(s - 1), which wraps none of its lags."""
    return tuple(fast_size(max(min(2 * (s - 1), s + _reach(model, spacing, s - 2)), 2))
                 for s in shape)


def circulant_embedding(
    model: CovarianceModel, shape, spacing: float = 1.0, *, max_bytes: int
) -> tuple[np.ndarray, int]:
    """Nonnegative eigenvalues of a circulant embedding of the lattice gram.

    ``shape`` is the lattice, an int for a sequence.  The embedding starts
    at :func:`base_embedding` and doubles until the FFT eigenvalues are
    nonnegative within a relative tolerance; residual roundoff is clipped.
    No size is computed whose one path would exceed ``max_bytes``: a
    doubling over it ends the search, and a smallest embedding over it is a
    :class:`CapacityError`.  Returns the eigenvalues, shaped like the
    embedding, and their count m.
    """
    base = base_embedding([int(s) for s in np.atleast_1d(shape)], model, spacing)
    tried = []
    worst = math.inf
    for k in range(EMBED_MAX_DOUBLINGS + 1):
        ms = tuple(m << k for m in base)
        if (nbytes := DRAW_BYTES_PER_ELEM * math.prod(ms)) > max_bytes:
            if not k:
                raise CapacityError(f"the smallest circulant embedding {ms} needs ~{nbytes} "
                                    f"bytes a path, limit is {max_bytes}", nbytes, max_bytes)
            break
        sq = sum(np.ix_(*(np.minimum(np.arange(m), m - np.arange(m)) ** 2 for m in ms)))
        eig = np.fft.fftn(evaluate(model, spacing * np.sqrt(sq))).real
        tried.append(ms)
        neg = float(eig.min())
        worst = min(worst, neg)
        if neg >= -EMBED_REL_TOL * float(eig.max()):
            return np.clip(eig, 0.0, None), eig.size
    raise EmbeddingError(worst, tried)


def _lattice_points(shape, spacing: float = 1.0) -> np.ndarray:
    """Points spacing * index of a regular lattice, one row each, C order."""
    # the n x d points and the d axes they are stacked from
    _check_capacity(16 * math.prod(shape) * len(shape), f"the points of the {shape} lattice")
    axes = np.meshgrid(*(spacing * np.arange(s) for s in shape), indexing="ij")
    return np.column_stack([a.ravel() for a in axes])


def _cholesky_bytes(n: int) -> int:
    return 2 * n * n * 8  # the gram and its lower factor


def make_plan(
    model: CovarianceModel,
    shape: tuple[int, ...],
    spacing: float = 1.0,
    method: str | None = None,
) -> LatticePlan:
    """Factor the gram of the lattice of ``shape`` at ``spacing`` once.

    Without ``method`` the default route tries, in order, an embedding whose
    one path needs no more bytes than the Cholesky factor (above
    ``CHOLESKY_MAX_N`` points only), the Cholesky factor, and any embedding
    within the cap; an embedding fails with :class:`EmbeddingError` or
    :class:`TableRangeError`.  If all fail, the Cholesky failure is raised.
    An embedding whose smallest size is over its byte limit is never
    computed; it raises :class:`CapacityError`.
    The plan's ``method`` is the one used, or ``"iid"`` for the iid model.
    """
    if min(shape) < 1:
        raise ValueError("the lattice needs at least one point per axis")
    if method not in (None, "cholesky", "circulant"):
        raise ValueError(f"unknown method {method!r}")
    n = math.prod(shape)
    if model.kind == "iid":
        # gram is the identity: any method draws raw noise and factors nothing
        return LatticePlan("iid", shape, None)
    if method == "cholesky":
        return _cholesky_plan(model, shape, spacing)
    cap = capacity_bytes()
    if method == "circulant":
        return _circulant_plan(model, shape, spacing, cap)
    if n > CHOLESKY_MAX_N:
        try:
            return _circulant_plan(model, shape, spacing, min(cap, _cholesky_bytes(n)))
        except (EmbeddingError, TableRangeError):
            pass
    try:
        return _cholesky_plan(model, shape, spacing)
    except DecompositionError as err:
        try:
            return _circulant_plan(model, shape, spacing, cap)
        except (EmbeddingError, TableRangeError):
            raise err from None


def _circulant_plan(model, shape, spacing, max_bytes) -> LatticePlan:
    eig, m = circulant_embedding(model, shape, spacing, max_bytes=max_bytes)
    last = eig.shape[-1]
    # M lambda / 2 off the planes irfftn reads once (the last axis's index 0
    # and, for an even axis, its Nyquist index), M lambda on them
    scale = np.full(last // 2 + 1, m / 2)
    scale[0] = m
    if last % 2 == 0:
        scale[-1] = m
    return LatticePlan("circulant", shape, np.sqrt(eig[..., : last // 2 + 1] * scale), eig.shape)


def _cholesky_plan(model, shape, spacing) -> LatticePlan:
    n = math.prod(shape)
    _check_capacity(_cholesky_bytes(n), f"the gram and Cholesky factor of {n} points")
    gram = gram_matrix(model, _lattice_points(shape, spacing))
    return LatticePlan("cholesky", shape, _cholesky_factor(gram))


def draw_workers(plan: LatticePlan, block: int) -> int:
    """Threads that draw the blocks of ``block`` rows of one batch at once:
    for a circulant plan one per CPU available to the process, but no more
    than the blocks that fit the memory cap together; one for Cholesky and
    iid plans.  The caller takes at most one thread per block."""
    if plan.embed_shape is None:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, capacity_bytes() // (block * plan.row_bytes)))


def reduce_blocks(plan: LatticePlan, batch: int, seed: int, reduce, offset: int = 0,
                  row_elems: int | None = None) -> tuple:
    """The per-row arrays ``reduce(draw_rows(plan, rows, seed, offset + lo))``
    returns, each joined over the blocks of a batch in block order; a batch of
    0 reduces an empty (0, n) draw.  Blocks hold :func:`block_rows` rows of
    ``row_elems`` elements (default: the plan's); row i is stream offset + i.

    The blocks run on :func:`draw_workers` threads: one per CPU for a
    circulant plan, whose noise and FFTs release the interpreter lock on
    rows that long; one for Cholesky and iid plans, whose short rows move
    their Philox counter in Python, holding the lock, and whose products would
    stack threads on a threaded BLAS.  Each block reduces only its own rows,
    so the results do not depend on the CPU count, and the first failing
    block's error is raised, in block order.
    """
    block = block_rows(row_elems or plan.row_elems)
    starts = range(0, batch, block)

    def draw(lo):
        return reduce(draw_rows(plan, min(block, batch - lo), seed, offset + lo))

    workers = min(draw_workers(plan, block), len(starts))
    if workers <= 1:  # an interrupt stops here; map submits every block at once
        parts = [draw(lo) for lo in starts] or [reduce(np.empty((0, plan.n)))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(draw, starts))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def draw_rows(plan: LatticePlan, batch: int, seed: int, offset: int = 0) -> np.ndarray:
    """(batch, n) exact draws from the plan; row i uses stream offset + i."""
    if batch < 1:
        raise ValueError("batch must be positive")
    _check_capacity(batch * plan.row_bytes, f"a draw of {batch} paths of {plan.n} points")
    if plan.embed_shape is None:
        noise = rng.normal_rows(seed, batch, plan.n, offset=offset)
        return noise if plan.factor is None else noise @ plan.factor.T
    ms = plan.embed_shape
    # each row's normals are the real and imaginary parts of its half-spectrum
    x = rng.normal_rows(seed, batch, 2 * plan.factor.size, offset=offset)
    x = x.view(np.complex128).reshape(batch, *plan.factor.shape)
    x *= plan.factor
    x = np.fft.irfftn(x, s=ms, axes=tuple(range(1, len(ms) + 1)))
    crop = (slice(None),) + tuple(slice(0, s) for s in plan.shape)
    return np.ascontiguousarray(x[crop]).reshape(batch, plan.n)


def sample_sequence(
    model: CovarianceModel,
    n: int,
    batch: int,
    seed: int,
    method: str | None = None,
    stream_offset: int = 0,
) -> SampleBatch:
    """Exact draws from N(0, Gamma) with Gamma[i, j] = phi(|i - j|)."""
    plan = make_plan(model, (n,), method=method)
    paths = draw_rows(plan, batch, seed, stream_offset)
    return SampleBatch(paths, plan.method)


def box_extents(d: int, extent) -> tuple[float, ...]:
    """Per-axis lengths of a box given one length or one per axis."""
    extents = tuple(float(e) for e in (extent if np.iterable(extent) else [extent] * d))
    if len(extents) != d:
        raise ValueError("extent must give one length per axis")
    return extents


def grid_geometry(d: int, extent, spacing: float) -> tuple[int, ...]:
    """Shape of the regular grid over [0, extent_i] per axis, including both
    endpoints."""
    if d < 1:
        raise ValueError("the grid needs at least one dimension")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    shape = tuple(int(math.floor(e / spacing + 1e-9)) + 1 for e in box_extents(d, extent))
    if any(s < 2 for s in shape):
        raise ValueError("extent/spacing must yield at least 2 points per axis")
    return shape


def grid_points(d: int, extent, spacing: float) -> np.ndarray:
    """Points of :func:`grid_geometry`'s grid, one row each, C order."""
    return _lattice_points(grid_geometry(d, extent, spacing), spacing)
