"""Exhaustive checkers of the constructions in ``superconc.covering``: an
s0-net's separation and maximality, and a sign-vector set's pairwise dot
products; and dense references for the windowed s0-net and ball covering,
which test each kept point against every point.  Only the tests call them,
so they live beside the tests."""

import numpy as np

from superconc.covering import Covering


def verify_net(points: np.ndarray, net_idx: np.ndarray, s0: float):
    """Exhaustive separation + maximality check; returns (ok, witness).

    Distances are taken from one net point at a time, so memory stays at a
    few arrays of n points.  The separation witness is the closest net pair,
    first in row-major order; the maximality witness is the first point
    farthest from the net.
    """
    pts = np.asarray(points, dtype=float)
    pts = pts[:, None] if pts.ndim == 1 else pts
    net = pts[net_idx]
    best, pair = np.inf, (0, 0)
    for i in range(len(net) - 1):
        row = np.sqrt(np.sum((net[i + 1:] - net[i]) ** 2, axis=1))
        j = int(np.argmin(row))
        if row[j] < best:  # strict: an earlier row keeps a tie
            best, pair = row[j], (i, i + 1 + j)
    if best <= s0:
        return False, ("separation", int(net_idx[pair[0]]), int(net_idx[pair[1]]))
    nearest = np.full(pts.shape[0], np.inf)
    for p in net:
        np.minimum(nearest, np.sqrt(np.sum((pts - p) ** 2, axis=1)), out=nearest)
    if np.any(nearest > s0):
        return False, ("maximality", int(np.argmax(nearest)))
    return True, None


def verify_sign_vectors(vectors: np.ndarray, threshold: float):
    """Exhaustive pairwise check; returns (ok, witness pair or None)."""
    v = np.asarray(vectors, dtype=np.int64)
    dots = v @ v.T
    np.fill_diagonal(dots, 0)
    bad = np.abs(dots) > threshold
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return False, (int(i), int(j))
    return True, None


def greedy_net_dense(points: np.ndarray, s0: float) -> np.ndarray:
    """Indices of a maximal s0-separated subset, grown greedily in order.

    Kept points are mutually separated by distance > s0; maximality means
    every input point is within s0 of some kept point.  A point is kept
    when it is still free, and keeping it takes every later point within
    s0 of it out of the free set.
    """
    pts = np.asarray(points, dtype=float)
    pts = pts[:, None] if pts.ndim == 1 else pts
    free = np.ones(pts.shape[0], dtype=bool)
    kept: list[int] = []
    for i in range(pts.shape[0]):
        if free[i]:
            kept.append(i)
            free[i:] &= np.sum((pts[i:] - pts[i]) ** 2, axis=1) > s0 * s0
    return np.array(kept)


def net_ball_covering_dense(points: np.ndarray, net_idx: np.ndarray, radius: float,
                            r0: float) -> Covering:
    """Blocks = balls of the given radius around net points."""
    pts = np.asarray(points, dtype=float)
    pts = pts[:, None] if pts.ndim == 1 else pts
    blocks = [np.nonzero(np.sum((pts - pts[i]) ** 2, axis=1) <= radius * radius)[0]
              for i in net_idx]
    cov = Covering.from_blocks(blocks, r0=r0, provenance="field-net", n=pts.shape[0])
    cov.multiplicity = int(np.bincount(cov.indices, minlength=cov.n).max())
    return cov
