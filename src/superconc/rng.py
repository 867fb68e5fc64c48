"""Counter-based random number streams.

Every Monte Carlo routine in this package draws its randomness from a
Philox counter-based generator keyed by (seed, stream).  One stream per
path / trial makes batches reproducible under chunked or concurrent
generation: the result depends only on the absolute stream index, never
on scheduling or chunk boundaries.

Stream s is exactly numpy's ``Philox(SeedSequence(seed, spawn_key=(s,)))``.
``stream_keys`` runs the SeedSequence hash for a whole block of streams at
once: it mixes the seed words once, as Python ints, and only the stream
word and what follows it in uint32 array arithmetic.  ``generators`` rekeys
one Philox per call with those keys instead of building a SeedSequence, a
Philox and a Generator for every stream.  ``first_blocks`` goes one step further for
callers that need only a few numbers per stream: it runs Philox4x64-10 on
those keys in uint64 array arithmetic and returns each stream's first
output block, with no generator at all.
"""

from __future__ import annotations

import operator

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
MASK32 = 0xFFFFFFFF

KEY_BLOCK = 4096  # streams keyed per pass in ``generators`` and ``first_blocks``

# Philox4x64 multipliers and Weyl key increments (Salmon et al. 2011, as in
# numpy/random/src/philox/philox.h)
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
PHILOX_ROUNDS = 10


def _seed_words(seed: int) -> list[int]:
    """Seed as little-endian uint32 words, zero-padded to the pool as numpy
    pads the run entropy of a spawned SeedSequence."""
    n = operator.index(seed)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & MASK32]
    while n > MASK32:
        n >>= 32
        words.append(n & MASK32)
    return words + [0] * (POOL_SIZE - len(words))


def _xorshift(v):
    return v ^ (v >> 16)


def _pool_keys(run: list[int], streams: np.ndarray) -> np.ndarray:
    """SeedSequence pool of the entropy ``run + [stream]``, then
    generate_state(2, uint64), for each stream word below 2^32.  Every step
    before the stream word depends on the seed alone, so it runs once on
    Python ints; only the stream word and what follows are arrays."""
    hash_const = INIT_A

    # the hash constant advances the same way for every stream, so it stays
    # scalar; v is a Python int or a uint32 array, x a Python int
    def hashmix(v):
        nonlocal hash_const
        v = v ^ hash_const
        hash_const = (hash_const * MULT_A) & MASK32
        return _xorshift(v * hash_const & MASK32)

    def mix(x, y):
        return _xorshift(((MIX_MULT_L * x & MASK32) - MIX_MULT_R * y) & MASK32)

    # the run is padded to at least POOL_SIZE words, so it fills the pool
    pool = [hashmix(w) for w in run[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in run[POOL_SIZE:]:
        pool = [mix(p, hashmix(w)) for p in pool]
    stream = streams.astype(np.uint32)
    pool = [mix(p, hashmix(stream)) for p in pool]

    words = np.empty((len(stream), 4), dtype=np.uint64)
    hash_const = INIT_B
    for i in range(4):
        v = pool[i] ^ hash_const
        hash_const = (hash_const * MULT_B) & MASK32
        words[:, i] = _xorshift(v * hash_const)
    # uint64 word j is uint32 words 2j (low half) and 2j + 1 (high half)
    return words[:, 0::2] | (words[:, 1::2] << np.uint64(32))


def stream_keys(seed: int, streams) -> np.ndarray:
    """(len(streams), 2) uint64 Philox keys; row i is the key of streams[i].

    Row i equals ``SeedSequence(entropy=seed, spawn_key=(streams[i],))
    .generate_state(2, np.uint64)``.  A negative seed or stream raises
    ``ValueError``, as it does in SeedSequence.
    """
    run = _seed_words(seed)
    streams = np.asarray(streams).reshape(-1)
    if streams.size and streams.min() < 0:
        raise ValueError("expected non-negative integer")
    small = streams <= MASK32
    keys = _pool_keys(run, np.where(small, streams, 0))
    # a stream of 2^32 or more is a multi-word spawn key, keyed as stream 0
    # above and again here; these are rare
    for i in np.flatnonzero(~small):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(int(streams[i]),))
        keys[i] = ss.generate_state(2, np.uint64)
    return keys


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """Return the generator for a single (seed, stream) cell."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def generators(seed: int, start: int, stop: int):
    """Yield the generator of each stream start, start + 1, ..., stop - 1.

    Each yielded generator equals ``stream_generator(seed, s)`` at its
    start.  It is one Generator rekeyed in turn, so use it before taking
    the next; each call owns its own, so concurrent calls are independent.
    """
    bg = np.random.Philox(key=0)
    g = np.random.Generator(bg)
    zeros = np.zeros(4, dtype=np.uint64)
    for lo in range(start, stop, KEY_BLOCK):
        for key in stream_keys(seed, np.arange(lo, min(lo + KEY_BLOCK, stop))):
            bg.state = {
                "bit_generator": "Philox",
                "state": {"counter": zeros, "key": key},
                "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
            }
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

    numpy's Philox starts at counter 0 and increments it before its first
    block, so that block is the counter (1, 0, 0, 0) under the stream's key.
    Streams are keyed and encrypted KEY_BLOCK at a time.
    """
    m0, m1 = (np.uint64(m) for m in PHILOX_M)
    w0, w1 = (np.uint64(w) for w in PHILOX_W)
    out = np.empty((max(0, stop - start), 4), dtype=np.uint64)
    for lo in range(start, stop, KEY_BLOCK):
        keys = stream_keys(seed, np.arange(lo, min(lo + KEY_BLOCK, stop)))
        k0, k1 = keys[:, 0], keys[:, 1]
        c0 = np.ones(len(keys), dtype=np.uint64)
        c1 = c2 = c3 = np.zeros(len(keys), dtype=np.uint64)
        for r in range(PHILOX_ROUNDS):
            if r:
                k0 = k0 + w0
                k1 = k1 + w1
            c0, c1, c2, c3 = mulhi(c2, m1) ^ c1 ^ k0, c2 * m1, mulhi(c0, m0) ^ c3 ^ k1, c0 * m0
        out[lo - start : lo - start + len(keys)] = np.column_stack((c0, c1, c2, c3))
    return out


def normal_rows(seed: int, rows: int, cols: int, offset: int = 0) -> np.ndarray:
    """(rows, cols) standard normals, row i drawn from stream offset+i."""
    out = np.empty((rows, cols))
    for i, g in enumerate(generators(seed, offset, offset + rows)):
        g.standard_normal(cols, out=out[i])
    return out
