"""Counter-based random number streams.

Every Monte Carlo routine in this package draws its randomness from a
Philox counter-based generator keyed by the seed.  One stream per
path / trial makes batches reproducible under chunked or concurrent
generation: the result depends only on the absolute stream index, never
on scheduling or chunk boundaries.

Philox4x64-10 encrypts a 256-bit counter under a 128-bit key (Salmon et al.
2011), so disjoint counter ranges under one key are disjoint streams.
Stream s of ``seed`` is numpy's ``Philox`` keyed by
``SeedSequence(seed).generate_state(2, np.uint64)`` with its counter at
(0, s, 0, 0), the same generator as ``Philox(key=...).advance(s << 64)``.
Each stream owns 2^64 counter blocks, so no two streams overlap; stream
indices lie in [0, 2^64).  ``generators`` moves one Philox's counter from
stream to stream instead of building a Philox and a Generator for every
stream.  ``first_blocks`` goes one step further for callers that need only
a few numbers per stream: it encrypts the counters (1, s, 0, 0) in uint64
array arithmetic and returns each stream's first output block, with no
generator at all.
"""

from __future__ import annotations

import numpy as np

STREAMS = 2**64  # stream indices lie in [0, STREAMS)
MASK32 = 0xFFFFFFFF

KEY_BLOCK = 4096  # streams encrypted per pass in ``first_blocks``

# Philox4x64 multipliers and Weyl key increments (Salmon et al. 2011, as in
# numpy/random/src/philox/philox.h)
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
PHILOX_ROUNDS = 10


def _key(seed: int) -> np.ndarray:
    """The seed's Philox key; a negative seed raises ``ValueError``, as it
    does in SeedSequence."""
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def _check_streams(start: int, stop: int) -> None:
    if start < stop and (start < 0 or stop > STREAMS):
        raise ValueError(f"streams [{start}, {stop}) must lie in [0, 2**64)")


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """Return the generator for a single (seed, stream) cell."""
    _check_streams(stream, stream + 1)
    counter = np.array([0, stream, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=_key(seed), counter=counter))


def generators(seed: int, start: int, stop: int):
    """Yield the generator of each stream start, start + 1, ..., stop - 1.

    Each yielded generator equals ``stream_generator(seed, s)`` at its
    start.  It is one Generator moved in turn, so use it before taking the
    next; each call owns its own, so concurrent calls are independent.
    """
    bg = np.random.Philox(key=_key(seed))
    _check_streams(start, stop)
    g = np.random.Generator(bg)
    # a fresh Philox's state: empty buffer, no cached uint32
    state = bg.state
    counter = state["state"]["counter"]
    for s in range(start, stop):
        counter[1] = s
        bg.state = state
        yield g


def mulhi(a: np.ndarray, b) -> np.ndarray:
    """High 64 bits of the 128-bit products of uint64 ``a`` and ``b``,
    built from 32-bit halves so that no partial product overflows."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    lo32, s32 = np.uint64(MASK32), np.uint64(32)
    a_lo, a_hi = a & lo32, a >> s32
    b_lo, b_hi = b & lo32, b >> s32
    hl = a_hi * b_lo
    # at most (2^32 - 1)^2 + 2 (2^32 - 1) = 2^64 - 1
    mid = ((a_lo * b_lo) >> s32) + (hl & lo32) + a_lo * b_hi
    return a_hi * b_hi + (hl >> s32) + (mid >> s32)


def first_blocks(seed: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, 4) uint64: row i is the first Philox4x64-10 output
    block of stream start + i, equal to
    ``stream_generator(seed, start + i).bit_generator.random_raw(4)``.

    numpy's Philox increments its counter before its first block, so that
    block is the counter (1, s, 0, 0) under the seed's key.  Streams are
    encrypted KEY_BLOCK at a time.
    """
    key = [int(k) for k in _key(seed)]
    _check_streams(start, stop)
    # round r's key is the key plus r Weyl increments; summed as Python ints
    # so that no uint64 scalar overflows
    round_keys = [[np.uint64((k + r * w) % 2**64) for k, w in zip(key, PHILOX_W)]
                  for r in range(PHILOX_ROUNDS)]
    m0, m1 = (np.uint64(m) for m in PHILOX_M)
    out = np.empty((max(0, stop - start), 4), dtype=np.uint64)
    for lo in range(start, stop, KEY_BLOCK):
        c1 = np.arange(min(KEY_BLOCK, stop - lo), dtype=np.uint64) + np.uint64(lo)
        c0 = np.ones(len(c1), dtype=np.uint64)
        c2 = c3 = np.zeros(len(c1), dtype=np.uint64)
        for k0, k1 in round_keys:
            c0, c1, c2, c3 = mulhi(c2, m1) ^ c1 ^ k0, c2 * m1, mulhi(c0, m0) ^ c3 ^ k1, c0 * m0
        out[lo - start : lo - start + len(c0)] = np.column_stack((c0, c1, c2, c3))
    return out


def normal_rows(seed: int, rows: int, cols: int, offset: int = 0) -> np.ndarray:
    """(rows, cols) standard normals, row i drawn from stream offset+i."""
    out = np.empty((rows, cols))
    for i, g in enumerate(generators(seed, offset, offset + rows)):
        g.standard_normal(cols, out=out[i])
    return out
