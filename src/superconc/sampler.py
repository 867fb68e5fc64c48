"""Exact samplers for stationary Gaussian sequences and grid fields.

A sequence is the 1-d lattice at spacing 1, a grid field the lattice of its
grid.  :func:`make_plan` factors a lattice once into a :class:`LatticePlan`
and :func:`draw_rows` samples it as often as needed.  Two exact methods:

* ``cholesky`` — factor the gram matrix; reference method, always exact
  when the factorization succeeds.
* ``circulant`` — embed the gram into a nonnegative-definite (block)
  circulant C whose eigenvalues lambda are the FFT of its first row, then
  draw with real noise xi as X = C^{1/2} xi = irfftn(sqrt(lambda) *
  rfftn(xi)) and crop to the lattice (Wood & Chan 1994; Dietrich & Newsam
  1997); the fast path for large lattices.  An axis of s points embeds in
  m >= 2(s - 1) points, the fewest whose wrapped lags min(k, m - k) reach
  every lag of the axis, rounded up to a 5-smooth m so that the FFT never
  falls back to Bluestein's algorithm for a large prime factor.

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
# 25 x 25.  With 5-smooth embeddings, BLAS on one thread and circulant blocks
# on 2 threads of a 2-core Xeon KVM guest, 1e4 OU maxima take, Cholesky /
# circulant: 0.31 / 0.24 s at 512 points, 0.36 / 0.25 s at 640, 0.65 /
# 0.39 s at 768 and 1.76 / 0.53 s at 1024 (one draw thread: 0.31 / 0.47,
# 0.41 / 0.44, 0.70 / 0.53, 1.90 / 0.73), so the break-even now lies below
# 512.  The switch stays at 768: moving it would change the bytes of every
# run at the sizes it passes
CHOLESKY_MAX_N = 768
EMBED_REL_TOL = 1e-10
EMBED_MAX_DOUBLINGS = 6
# working bytes per element of one path while it is drawn: noise and product
# take 16, a 2-d embedding's noise, spectrum and transform about 24
DRAW_BYTES_PER_ELEM = 32
# elements of draw work in one block of a batched draw, 4 MiB of it: with
# BLAS on one thread, 1e4 OU maxima at n = 500 and 768 draw by Cholesky
# within 7 % of the time of one product of every row
BLOCK_ELEMS = 2**17


class CapacityError(MemoryError):
    """Requested batch would exceed the configured memory cap."""


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


def _check_capacity(nbytes: int):
    cap = capacity_bytes()
    if nbytes > cap:
        raise CapacityError(
            f"request needs ~{nbytes} bytes, cap is {cap} "
            "(override with SUPERCONC_CAP_BYTES)"
        )


@dataclass(frozen=True, eq=False)
class LatticePlan:
    """A lattice factored once: the Cholesky lower factor of the gram, or
    sqrt(lambda) on the rfftn half-spectrum of the circulant embedding of
    ``embed_shape``; no factor for the iid model, whose gram is the identity.
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


def base_embedding(shape) -> tuple[int, ...]:
    """The smallest embedding tried for the lattice of ``shape``: per axis of
    s points the 5-smooth m >= max(2(s - 1), 2), whose wrapped lags
    min(k, m - k) reach every lag 0..s - 1 of the axis."""
    return tuple(fast_size(max(2 * (s - 1), 2)) for s in shape)


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
    base = base_embedding(int(s) for s in np.atleast_1d(shape))
    tried = []
    worst = math.inf
    for k in range(EMBED_MAX_DOUBLINGS + 1):
        ms = tuple(m << k for m in base)
        if (nbytes := DRAW_BYTES_PER_ELEM * math.prod(ms)) > max_bytes:
            if not k:
                raise CapacityError(f"the smallest circulant embedding {ms} needs ~{nbytes} "
                                    f"bytes a path, limit is {max_bytes}")
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
    axes = np.meshgrid(*(spacing * np.arange(s) for s in shape), indexing="ij")
    return np.column_stack([a.ravel() for a in axes])


def _default_method(n: int) -> str:
    return "circulant" if n > CHOLESKY_MAX_N else "cholesky"


def _cholesky_bytes(n: int) -> int:
    return 2 * n * n * 8  # the gram and its lower factor


def plan_bytes(model: CovarianceModel, shape) -> int:
    """Working bytes to factor the lattice with the default method and draw
    one path: the gram and its Cholesky factor (none for the iid model), or
    one path at the smallest embedding (:func:`base_embedding`).  A
    fallback to Cholesky meets the cap in :func:`make_plan` instead."""
    n = math.prod(shape)
    if _default_method(n) == "circulant":
        return DRAW_BYTES_PER_ELEM * math.prod(base_embedding(shape))
    factor = 0 if model.kind == "iid" else _cholesky_bytes(n)
    return max(factor, DRAW_BYTES_PER_ELEM * n)


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
    eig, _ = circulant_embedding(model, shape, spacing, max_bytes=max_bytes)
    half = eig[..., : eig.shape[-1] // 2 + 1]
    return LatticePlan("circulant", shape, np.sqrt(half), eig.shape)


def _cholesky_plan(model, shape, spacing) -> LatticePlan:
    _check_capacity(_cholesky_bytes(math.prod(shape)))
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
                  row_elems: int | None = None) -> list:
    """``reduce(draw_rows(plan, rows, seed, offset + lo))`` for each block of
    a batch, in block order.  Blocks hold :func:`block_rows` rows of
    ``row_elems`` elements (default: the plan's); row i draws from stream
    ``offset + i`` in any block.

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
        return [draw(lo) for lo in starts]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(draw, starts))


def draw_rows(plan: LatticePlan, batch: int, seed: int, offset: int = 0) -> np.ndarray:
    """(batch, n) exact draws from the plan; row i uses stream offset + i."""
    if batch < 1:
        raise ValueError("batch must be positive")
    _check_capacity(batch * plan.row_bytes)
    if plan.embed_shape is None:
        noise = rng.normal_rows(seed, batch, plan.n, offset=offset)
        return noise if plan.factor is None else noise @ plan.factor.T
    ms = plan.embed_shape
    axes = tuple(range(1, len(ms) + 1))
    # rebinding x frees the noise, then the spectrum, as soon as each is used
    x = rng.normal_rows(seed, batch, plan.row_elems, offset=offset).reshape(batch, *ms)
    x = np.fft.rfftn(x, axes=axes)
    x *= plan.factor
    x = np.fft.irfftn(x, s=ms, axes=axes)
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
