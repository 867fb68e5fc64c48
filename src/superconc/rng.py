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
stream.  A caller that needs only a few numbers per path takes them from
one stream's raw words, as ``extremes`` does for iid maxima.
"""

from __future__ import annotations

import numpy as np

STREAMS = 2**64  # stream indices lie in [0, STREAMS)


def _key(seed: int) -> np.ndarray:
    """The seed's Philox key; a negative seed raises ``ValueError``, as it
    does in SeedSequence."""
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def _check_streams(start: int, stop: int) -> None:
    if start < stop and (start < 0 or stop > STREAMS):
        raise ValueError(f"streams [{start}, {stop}) must lie in [0, 2**64)")


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """Return the generator for a single (seed, stream) cell."""
    return next(generators(seed, stream, stream + 1))


def generators(seed: int, start: int, stop: int):
    """Yield the generator of each stream start, start + 1, ..., stop - 1.

    Each yielded generator is a fresh Philox at stream s's counter.  It is
    one Generator moved in turn, so use it before taking the next; each call
    owns its own, so concurrent calls are independent.
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


def normal_rows(seed: int, rows: int, cols: int, offset: int = 0) -> np.ndarray:
    """(rows, cols) standard normals, row i drawn from stream offset+i."""
    out = np.empty((rows, cols))
    for i, g in enumerate(generators(seed, offset, offset + rows)):
        g.standard_normal(cols, out=out[i])
    return out
