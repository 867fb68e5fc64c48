"""Counter-based random number streams.

Every Monte Carlo routine in this package draws its randomness from a
Philox counter-based generator keyed by (seed, stream).  One stream per
path / trial makes batches reproducible under chunked or concurrent
generation: the result depends only on the absolute stream index, never
on scheduling or chunk boundaries.
"""

from __future__ import annotations

import numpy as np


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """Return the generator for a single (seed, stream) cell."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def normal_rows(seed: int, rows: int, cols: int, offset: int = 0) -> np.ndarray:
    """(rows, cols) standard normals, row i drawn from stream offset+i."""
    out = np.empty((rows, cols))
    for i in range(rows):
        out[i] = stream_generator(seed, offset + i).standard_normal(cols)
    return out

