"""Reference computations the benchmark checks the program against.

None of these call into ``superconc``:

* ``iid_mean_var`` / ``iid_margin`` / ``iid_margin_se`` — quadrature over
  the law of the iid maximum, P(M_n <= x) = Phi(x)^n, for E M_n, Var M_n,
  the exact Laplace margin checked by ``verify laplace_check`` and the
  standard error of its estimate;
* ``sliding_scan_mean`` — an independent Monte Carlo estimate of
  E_0 max_S X_S over sliding windows, drawn with ``numpy.random.default_rng``
  and reduced with cumulative sums;
* ``net_faults`` — a ``scipy.spatial.cKDTree`` check of net separation,
  net maximality and ball membership.

``self_test()`` pins each against closed forms; ``python3 bench/oracles.py``
runs it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import simpson
from scipy.spatial import cKDTree
from scipy.special import log_ndtr

# the density of M_n is negligible outside this window for n <= 1e6 and
# for the exponential tilts |theta| <= 6 used by the Laplace check
_X = np.linspace(-12.0, 18.0, 30001)


def _log_density(n: int) -> np.ndarray:
    """log of n phi(x) Phi(x)^(n-1) on the quadrature grid."""
    return (math.log(n) - 0.5 * math.log(2 * math.pi) - _X**2 / 2
            + (n - 1) * log_ndtr(_X))


def iid_mean_var(n: int) -> tuple[float, float]:
    """E M_n and Var M_n for the maximum of n iid standard normals."""
    f = np.exp(_log_density(n))
    mean = simpson(_X * f, x=_X)
    var = simpson((_X - mean) ** 2 * f, x=_X)
    return float(mean), float(var)


def iid_margin(n: int, theta: float, K: float) -> float:
    """Exact Var(e^{theta Z/2}) / ((theta^2/4) K E e^{theta Z}), Z = M_n - E M_n.

    At theta = 0 this is the second-order limit Var(M_n) / K.
    """
    mean, var = iid_mean_var(n)
    if theta == 0.0:
        return var / K
    logf = _log_density(n)
    z = _X - mean
    full = simpson(np.exp(logf + theta * z), x=_X)
    half = simpson(np.exp(logf + theta * z / 2), x=_X)
    return (full - half * half) / (theta**2 / 4 * K * full)


def iid_margin_se(n: int, theta: float, K: float, batch: int) -> float:
    """Delta-method standard error of the margin estimated from ``batch`` maxima.

    Uses the exact moments E a^k, a = e^{theta Z/2}, k <= 4.  Near the top
    of the theta window those moments are carried by the far tail and this
    SE is far wider than the spread seen in practice, so it only ever
    loosens a check there.
    """
    mean, var = iid_mean_var(n)
    logf = _log_density(n)
    z = _X - mean
    if theta == 0.0:
        m4 = simpson(z**4 * np.exp(logf), x=_X)
        return math.sqrt((m4 - var * var) / batch) / K
    e = [simpson(np.exp(logf + k * theta * z / 2), x=_X) for k in range(5)]
    a, b = e[2], e[1]
    cov = np.array([[e[4] - a * a, e[3] - a * b], [e[3] - a * b, a - b * b]])
    grad = np.array([b * b / a**2, -2 * b / a])
    return math.sqrt(grad @ cov @ grad / batch) / (theta**2 / 4 * K)


def sliding_scan_mean(n: int, K: int, trials: int, seed: int,
                      block: int = 4096) -> tuple[float, float]:
    """Monte Carlo E_0 max over the n - K + 1 sliding K-sums, with its SE."""
    gen = np.random.default_rng(seed)
    maxima = np.empty(trials)
    for lo in range(0, trials, block):
        hi = min(trials, lo + block)
        x = gen.standard_normal((hi - lo, n))
        c = np.zeros((hi - lo, n + 1))
        np.cumsum(x, axis=1, out=c[:, 1:])
        maxima[lo:hi] = (c[:, K:] - c[:, :-K]).max(axis=1)
    return float(maxima.mean()), float(maxima.std(ddof=1) / math.sqrt(trials))


def net_faults(points: np.ndarray, net_idx: np.ndarray, s0: float,
               blocks: list[np.ndarray], radius: float) -> list[str]:
    """Faults of an s0-net and of the balls of ``radius`` around its points.

    The net must be s0-separated (every pair strictly farther than s0) and
    maximal (every point within s0 of the net); block b must hold exactly
    the points within ``radius`` of net point b.  Points within 1e-9 of a
    ball's boundary are not judged, since roundoff decides them.
    """
    faults = []
    net = points[net_idx]
    tree = cKDTree(net)
    close = tree.query_pairs(s0)
    if close:
        i, j = sorted(close)[0]
        faults.append(f"net points {net_idx[i]} and {net_idx[j]} lie "
                      f"{np.linalg.norm(net[i] - net[j]):.6g} <= s0 = {s0:.6g} apart")
    dist, _ = tree.query(points)
    if dist.max() > s0:
        k = int(np.argmax(dist))
        faults.append(f"point {k} lies {dist[k]:.6g} > s0 = {s0:.6g} from the net")
    if len(blocks) != len(net_idx):
        faults.append(f"{len(blocks)} balls for {len(net_idx)} net points")
        return faults
    all_tree = cKDTree(points)
    for b, (centre, block) in enumerate(zip(net, blocks)):
        want = set(all_tree.query_ball_point(centre, radius + 1e-9))
        sure = set(all_tree.query_ball_point(centre, radius - 1e-9))
        got = set(np.asarray(block).tolist())
        if not sure <= got <= want:
            faults.append(f"ball {b}: {len(got)} points, expected between "
                          f"{len(sure)} and {len(want)} within radius {radius:.6g}")
            break
    return faults


def self_test() -> list[str]:
    """Check every oracle against a closed form; returns the failures."""
    fails = []

    def near(what, got, want, tol):
        if not abs(got - want) <= tol:
            fails.append(f"{what}: {got!r} vs {want!r} (tolerance {tol})")

    mean1, var1 = iid_mean_var(1)
    near("E M_1", mean1, 0.0, 1e-10)
    near("Var M_1", var1, 1.0, 1e-10)
    mean2, var2 = iid_mean_var(2)
    near("E M_2", mean2, 1 / math.sqrt(math.pi), 1e-10)
    near("Var M_2", var2, 1 - 1 / math.pi, 1e-10)
    # n = 1: E e^{theta Z} = e^{theta^2/2}, so the margin is closed-form
    th = 1.3
    near("margin n=1", iid_margin(1, th, 0.5),
         (math.exp(th**2 / 2) - math.exp(th**2 / 4)) / (th**2 / 4 * 0.5 * math.exp(th**2 / 2)),
         1e-9)
    # N(0, 1): Var of the sample variance is 2/N, so the theta = 0 SE is sqrt(2/N)/K
    near("margin SE n=1", iid_margin_se(1, 0.0, 0.5, 100), math.sqrt(2 / 100) / 0.5, 1e-9)
    K = 1 / math.log(1024)
    lim = 2 / math.sqrt(K)
    c_hat = max(iid_margin(1024, float(t), K) for t in np.linspace(-lim, lim, 21))
    near("max Laplace margin at n=1024", c_hat, 1.158, 2e-3)

    # K = 1: the scan maximum is the iid maximum; K = n: a single N(0, n) sum
    mean16, _ = iid_mean_var(16)
    m, se = sliding_scan_mean(16, 1, 20000, 1)
    near("sliding K=1 vs E M_16", m, mean16, 5 * se)
    m, se = sliding_scan_mean(12, 12, 20000, 2)
    near("sliding K=n", m, 0.0, 5 * se)

    line = np.arange(10.0)[:, None]
    balls = [np.flatnonzero(np.abs(line[:, 0] - c) <= 3) for c in (0, 2, 4, 6, 8)]
    if net_faults(line, np.array([0, 2, 4, 6, 8]), 1.5, balls, 3.0):
        fails.append("net check rejects a valid net")
    if not net_faults(line, np.array([0, 1, 4, 6, 8]), 1.5, balls, 3.0):
        fails.append("net check accepts an unseparated net")
    if not net_faults(line, np.array([0, 4, 8]), 1.5, balls[::2], 3.0):
        fails.append("net check accepts a non-maximal net")
    if not net_faults(line, np.array([0, 2, 4, 6, 8]), 1.5, balls[::-1], 3.0):
        fails.append("net check accepts wrong balls")
    return fails


if __name__ == "__main__":
    problems = self_test()
    for p in problems:
        print("FAIL", p)
    print("oracle self-test:", "failed" if problems else "passed")
    raise SystemExit(1 if problems else 0)
