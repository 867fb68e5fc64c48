"""Output checks for each workload, against the oracles or against
properties the method must have.  Nothing here compares with a stored
copy of earlier output.

``run_context`` computes, once per run, what every round is checked
against; ``op_faults`` checks one round's outputs and returns, per
operation, the faults found, each with the numbers behind it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracles
import workloads as wl

# SE multiples.  The Laplace margins are judged against the larger of the
# reported SE and the exact delta-method SE, because the reported SE runs
# up to 2.5x narrower than the true spread at the top of the theta window
# (300 simulated batches of 1e5 exact iid maxima showed no deviation above
# 4.8 of these SEs).
Z_LAPLACE = 6.0
Z_E0MAX = 5.0
Z_COVARIANCE = 5.0
RISK_SES = 3.0  # Prop. 5.1: risk <= delta, up to Monte Carlo error
REL = 1e-12  # closed forms recomputed from reported values

COV_BATCH = 256
COV_LAGS = 9
COV_OFFSET = 10**7  # streams far from the ones the timed round uses
SCAN_REF_TRIALS = 20000


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _rows(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def compared_files(name: str) -> list[str]:
    """Outputs that equal (config, seed) must reproduce byte for byte."""
    if name == "sequence_ou":
        return ["reports.json", "blocks.npz"]
    return ["out/data.csv", "out/summary.json"]


# -- run-level references -----------------------------------------------------

def run_context(name: str, seed: int, first_round: Path) -> tuple[dict, list[str]]:
    """References shared by every round, and faults that void the whole run."""
    if name == "sequence_ou":
        return {}, _covariance_faults(seed)
    if name == "laplace_iid":
        ref = {}
        for n in wl.LAPLACE_SIZES:
            K = 1 / math.log(n)
            lim = 2 / math.sqrt(K)
            thetas = np.linspace(-lim, lim, wl.LAPLACE_THETA_POINTS)
            ref[n] = (thetas, [oracles.iid_margin(n, float(t), K) for t in thetas],
                      [oracles.iid_margin_se(n, float(t), K, wl.LAPLACE_BATCH)
                       for t in thetas])
        return {"laplace": ref}, []
    if name == "scan_sliding":
        return {"e0max": oracles.sliding_scan_mean(
            wl.SCAN_N, wl.SCAN_K, SCAN_REF_TRIALS, seed=[seed, 51])}, []
    summary = first_round / "out" / "summary.json"
    if not summary.is_file():
        return {}, []
    return {"net": _net_reference(json.loads(summary.read_text()))}, []


def _covariance_faults(seed: int) -> list[str]:
    """Empirical lag covariances of an untimed batch, both methods, vs phi."""
    from superconc import sampler
    from superconc.covariance import CovarianceModel

    model = CovarianceModel.from_json(wl.OU_JSON)
    faults = []
    for n, method in ((wl.SEQ_SIZES[0], "cholesky"), (wl.SEQ_SIZES[-1], "circulant")):
        x = sampler.sample_sequence(model, n, COV_BATCH, seed, method,
                                    stream_offset=COV_OFFSET).paths
        for h in range(COV_LAGS):
            per_path = (x[:, : n - h] * x[:, h:]).mean(axis=1)
            est = per_path.mean()
            se = per_path.std(ddof=1) / math.sqrt(COV_BATCH)
            if abs(est - math.exp(-h)) > Z_COVARIANCE * se:
                faults.append(f"{method} n={n}: lag {h} covariance {est:.6g}, phi = "
                              f"{math.exp(-h):.6g}, SE {se:.3g}")
    return faults


def _net_reference(summary: dict) -> dict:
    """The s0-net and balls the program builds for the reported s0, checked by cKDTree."""
    from superconc import covering

    side = np.arange(int(wl.FIELD_EXTENT / wl.FIELD_SPACING) + 1) * wl.FIELD_SPACING
    g0, g1 = np.meshgrid(side, side, indexing="ij")
    pts = np.column_stack([g0.ravel(), g1.ravel()])
    s0 = summary["s0"]
    net = covering.greedy_net(pts, s0)
    balls = covering.net_ball_covering(pts, net, 2 * s0, summary["r0"]).blocks
    return {"s0": s0, "faults": oracles.net_faults(pts, net, s0, balls, 2 * s0),
            "size": len(net), "multiplicity": int(np.bincount(np.concatenate(balls)).max())}


# -- per-round checks ---------------------------------------------------------

def op_faults(name: str, rdir: Path, ctx: dict) -> dict[str, list[str]]:
    faults = {op: [] for op in wl.op_names(name)}
    {"sequence_ou": _sequence, "laplace_iid": _laplace, "scan_sliding": _scan,
     "field_2d": _field}[name](rdir, ctx, faults)
    return faults


def _exit_ok(rdir: Path, op: str, faults: dict) -> bool:
    rc = json.loads((rdir / "exit.json").read_text())["rc"]
    if rc != 0:
        faults[op].append(f"exit code {rc}")
    return rc == 0


def _sequence(rdir: Path, ctx: dict, faults: dict):
    data = json.loads((rdir / "reports.json").read_text())
    with np.load(rdir / "blocks.npz") as f:
        blocks = {k: f[k] for k in f.files}
    for n in wl.SEQ_SIZES:
        bop, vop = f"sequence_bound[{n}]", f"verify_covering[{n}]"
        rep = data["reports"].get(str(n))
        if rep is None:
            faults[bop].append("no report")
            continue
        out = faults[bop]
        m = math.isqrt(n)  # floor(n^alpha) for alpha = 1/2
        r0 = math.exp(-m)  # phi(m) for OU with rate 1
        if rep["m"] != m:
            out.append(f"m = {rep['m']}, floor(n^0.5) = {m}")
        if not _close(rep["r0"], r0):
            out.append(f"r0 = {rep['r0']!r}, e^-m = {r0!r}")
        rho = rep["rho"]
        nblocks = rep["covering_blocks"]
        if not 1 / nblocks <= rho < 1:
            out.append(f"rho = {rho} outside [1/blocks, 1) = [{1 / nblocks}, 1)")
        else:
            K = max(r0, 1 / math.log(1 / rho))
            if not _close(rep["K"], K):
                out.append(f"K = {rep['K']!r}, max(r0, 1/log(1/rho)) = {K!r}")
        K_paper = max(math.exp(-math.sqrt(n)), 1 / math.log(n))
        if not _close(rep["K_paper"], K_paper):
            out.append(f"K_paper = {rep['K_paper']!r}, expected {K_paper!r}")
        out += _block_faults(n, m, blocks, f"{n}")
        if data["verify"].get(str(n)) != [True, None]:
            faults[vop].append(f"verify_covering returned {data['verify'].get(str(n))}")


def _block_faults(n: int, m: int, blocks: dict, key: str) -> list[str]:
    """Every pair within lag m shares a block; no index lies in more than 3."""
    lo, hi, contiguous = blocks[f"lo{key}"], blocks[f"hi{key}"], blocks[f"contiguous{key}"]
    if not contiguous.all():
        return [f"block {int(np.argmin(contiguous))} is not a run of consecutive indices"]
    if lo.min() < 0 or hi.max() > n - 1:
        return [f"blocks span [{lo.min()}, {hi.max()}], outside [0, {n - 1}]"]
    edges = np.zeros(n + 1, dtype=int)
    np.add.at(edges, lo, 1)
    np.add.at(edges, hi + 1, -1)
    depth = np.cumsum(edges[:n])
    reach = np.full(n, -1)
    for a, b in zip(lo, hi):
        reach[a:b + 1] = np.maximum(reach[a:b + 1], b)
    need = np.minimum(np.arange(n) + m, n - 1)
    out = []
    if depth.max() > 3 or depth.min() < 1:
        i = int(np.argmax((depth > 3) | (depth < 1)))
        out.append(f"index {i} lies in {depth[i]} blocks")
    if np.any(reach < need):
        i = int(np.argmax(reach < need))
        out.append(f"pair ({i}, {need[i]}) within lag {m} shares no block")
    return out


def _laplace(rdir: Path, ctx: dict, faults: dict):
    op = "cli verify"
    if not _exit_ok(rdir, op, faults):
        return
    rows = _rows(rdir / "out" / "data.csv")
    summary = json.loads((rdir / "out" / "summary.json").read_text())
    per_n = {s["n"]: s for s in summary["per_n"]}
    for n in wl.LAPLACE_SIZES:
        thetas, margins, ses = ctx["laplace"][n]
        mine = [r for r in rows if int(r["n"]) == n]
        if len(mine) != len(thetas):
            faults[op].append(f"n={n}: {len(mine)} rows, expected {len(thetas)}")
            continue
        got = np.array([float(r["margin"]) for r in mine])
        for r, th, want, exact_se in zip(mine, thetas, margins, ses):
            if not _close(float(r["theta"]), th):
                faults[op].append(f"n={n}: theta {r['theta']}, expected {th!r}")
                continue
            tol = Z_LAPLACE * max(float(r["margin_se"]), exact_se)
            if not abs(float(r["margin"]) - want) <= tol:
                faults[op].append(
                    f"n={n} theta={th:.4f}: margin {r['margin']}, exact {want:.6g}, "
                    f"SE {float(r['margin_se']):.3g} (exact SE {exact_se:.3g})")
        s = per_n.get(n, {})
        if not (_close(s.get("C_hat", math.nan), float(np.nanmax(got)))
                and _close(s.get("K", math.nan), 1 / math.log(n)) and s.get("overflow") is False):
            faults[op].append(f"n={n}: summary {s} disagrees with data.csv or K = 1/log n")


def _scan(rdir: Path, ctx: dict, faults: dict):
    op = "cli scan"
    if not _exit_ok(rdir, op, faults):
        return
    s = json.loads((rdir / "out" / "summary.json").read_text())
    out = faults[op]
    N, K, delta = wl.SCAN_N - wl.SCAN_K + 1, wl.SCAN_K, wl.SCAN_DELTA
    if (s["N"], s["K"], s["trials"], s["threshold_kind"]) != (N, K, wl.SCAN_TRIALS, "prop51"):
        out.append(f"class/trials/kind {(s['N'], s['K'], s['trials'], s['threshold_kind'])}")
        return
    e0, e0se = s["e0max"], s["e0max_se"]
    ref, ref_se = ctx["e0max"]
    if abs(e0 - ref) > Z_E0MAX * math.hypot(e0se, ref_se):
        out.append(f"E0max {e0:.6g} (SE {e0se:.3g}) vs independent {ref:.6g} (SE {ref_se:.3g})")
    mu = e0 / K + 2 * math.sqrt(2 / K * math.log(2 / delta))
    if not _close(s["mu"], mu):
        out.append(f"mu = {s['mu']!r}, prop51 closed form {mu!r}")
    tau = (s["mu"] * K + e0) / 2
    if not _close(s["tau"], tau):
        out.append(f"tau = {s['tau']!r}, (mu K + E0max)/2 = {tau!r}")
    if not _close(s["risk"], s["type1"] + s["type2_mean"]):
        out.append(f"risk {s['risk']!r} != type1 + type2 {s['type1'] + s['type2_mean']!r}")
    if s["risk"] > delta + RISK_SES * s["risk_se"]:
        out.append(f"risk {s['risk']:.6g} > delta {delta} + {RISK_SES} SE ({s['risk_se']:.3g})")
    for r in _rows(rdir / "out" / "data.csv"):
        d = float(r["delta"])
        t51 = e0 / K + 2 * math.sqrt(2 / K * math.log(2 / d))
        t52 = e0 / K + math.log(6 / d) * 2 / (1.0 * math.sqrt(K * math.log(N)))
        if not (_close(float(r["threshold_prop51"]), t51)
                and _close(float(r["threshold_prop52"]), t52)):
            out.append(f"delta={d}: thresholds {r['threshold_prop51']}, "
                       f"{r['threshold_prop52']} vs closed forms {t51!r}, {t52!r}")


def _field(rdir: Path, ctx: dict, faults: dict):
    op = "experiments.run"
    summary = rdir / "out" / "summary.json"
    if not summary.is_file():
        faults[op].append("no summary.json")
        return
    s = json.loads(summary.read_text())
    out = faults[op]
    n_a = math.ceil(wl.FIELD_EXTENT / 2) ** 2
    lam2 = wl.SMOOTH["params"]["lam2"]
    if s["N_A"] != n_a:
        out.append(f"N(A) = {s['N_A']}, expected {n_a}")
        return
    if not (s["c1"] <= s["c2"] and s["fit_slope"] > 0):
        out.append(f"c1 = {s['c1']}, c2 = {s['c2']}, slope = {s['fit_slope']}")
    ratio = (s["c1"] / s["c2"]) ** 2 / 8
    s0 = n_a**ratio
    K = max(math.exp(-lam2 * s0**2 / 2), 1 / math.log(n_a))
    want = {"exponent_ratio": ratio, "s0": s0, "r0": math.exp(-lam2 * s0**2 / 2),
            "K": K, "rho": min(1.0, n_a**-ratio)}
    for key, value in want.items():
        if not _close(s[key], value, 1e-10):
            out.append(f"{key} = {s[key]!r}, recomputed {value!r}")
    net = ctx.get("net")
    if net is not None:
        out += net["faults"]
        if (s["covering_blocks"], s["covering_multiplicity"]) != (net["size"], net["multiplicity"]):
            out.append(f"covering reports {s['covering_blocks']} balls of multiplicity "
                       f"{s['covering_multiplicity']}; the checked net has {net['size']}, "
                       f"{net['multiplicity']}")
    for r in _rows(rdir / "out" / "data.csv"):
        t = float(r["t"])
        b, g = 6 * math.exp(-s["c"] * t / math.sqrt(s["K"])), 2 * math.exp(-t * t / 2)
        if not (_close(float(r["bound"]), b, 1e-10) and _close(float(r["gaussian_bound"]), g, 1e-10)):
            out.append(f"t={t}: curves {r['bound']}, {r['gaussian_bound']} vs {b!r}, {g!r}")
            break
