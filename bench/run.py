#!/usr/bin/env python3
"""Benchmark of superconc on four Monte Carlo workloads.

    python3 bench/run.py --workload all
    python3 bench/run.py --workload sequence_ou --seed 0 --seconds 28 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``.
A run first times several bare set-ups, then repeats whole rounds of the
workload, each round in a fresh child process and one at a time, while
the next round should still end within ``--seconds`` (at least two
rounds).  Every round's outputs
are checked (see checks.py), and rounds with the same seed must write
byte-identical data.csv and summary.json.

With ``--trace 0`` the metrics are end to end: medians over rounds of
wall_s, paths_per_s and peak_rss_mb, and the median set-up time setup_s.
With ``--trace 1`` untraced and traced rounds alternate; the metrics are
the per-layer medians of the traced rounds and the tracing overhead.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_ROUNDS = 2
SETUP_PROBES = 7
DEADLINE_S = 170  # a run must end well inside 180 s
# BLAS in the child is pinned to one thread: on a shared 2-core box a
# threaded OpenBLAS can stall on a busy core (a 625x625 Cholesky was seen
# taking 1.08 s in one run and 0.02 s in the next)
BLAS_THREADS = "1"

E2E_UNITS = {"wall_s": "s", "paths_per_s": "paths/s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


class Runner:
    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        self.children = 0

    def child(self, *flags: str) -> tuple[Path, dict | None]:
        """Start one worker, wait for it, and return its directory and result."""
        d = self.work / f"c{self.children}"
        self.children += 1
        d.mkdir(parents=True)
        with open(d / "log.txt", "wb") as log:
            started = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), "--workload", self.name,
                 "--seed", str(self.seed), "--dir", str(d), "--spawned-at", repr(started),
                 *flags], cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        result = d / "result.json"
        if proc.returncode != 0 or not result.is_file():
            tail = (d / "log.txt").read_text(errors="replace")[-2000:]
            print(f"{self.name}: worker exited with {proc.returncode}\n{tail}", file=sys.stderr)
            return d, None
        return d, json.loads(result.read_text())


def run_workload(name: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    import checks
    import spans
    import workloads

    r = Runner(name, seed, work)
    setups = []
    for _ in range(SETUP_PROBES):
        _, res = r.child("--setup-only")
        if res is not None:
            setups.append(res["setup_s"])

    rounds = []  # (dir, result or None, traced)
    start = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        t0 = time.monotonic()
        d, res = r.child(*(["--trace"] if traced else []))
        rounds.append((d, res, traced))
        # start another round only if it should end within --seconds
        took = time.monotonic() - t0
        now = time.monotonic()
        if now > r.deadline - 2 * took:
            break
        if len(rounds) >= MIN_ROUNDS and now - start + took > seconds:
            break

    ops = workloads.op_names(name)
    ok_rounds = [(d, res, t) for d, res, t in rounds if res is not None]
    ctx, run_faults = {}, []
    if ok_rounds:
        try:
            ctx, run_faults = checks.run_context(name, seed, ok_rounds[0][0])
        except (OSError, KeyError, ValueError) as exc:
            run_faults = [f"reference check could not run: {exc!r}"]
    failed = 0
    messages = [f"run: {f}" for f in run_faults]
    reference = None
    for i, (d, res, traced) in enumerate(rounds):
        if res is None:
            failed += len(ops)
            messages.append(f"round {i}: worker failed, {len(ops)} operations lost")
            continue
        faults = {op: [] for op in ops}
        ran = {o["op"]: o for o in res["ops"]}
        for op in ops:
            if op not in ran:
                faults[op].append("not run")
            elif ran[op]["error"]:
                faults[op].append(ran[op]["error"].strip().splitlines()[-1])
        try:
            for op, found in checks.op_faults(name, d, ctx).items():
                faults[op] += found
        except (OSError, KeyError, ValueError) as exc:
            for op in ops:
                faults[op].append(f"outputs unreadable: {exc!r}")
        outputs = [(d / f).read_bytes() if (d / f).is_file() else None
                   for f in checks.compared_files(name)]
        if reference is None:
            reference = outputs
        elif outputs != reference:
            what = "traced" if traced else "untraced"
            for op in ops:
                faults[op].append(f"{what} round {i} outputs differ from round 0 (same seed)")
        for op, found in faults.items():
            if found:
                failed += 1
                messages += [f"round {i} {op}: {f}" for f in found]

    plain = [res for _, res, t in ok_rounds if not t]
    wall = statistics.median(res["wall_s"] for res in plain) if plain else float("nan")
    metrics = {}
    if not trace:
        metrics = {
            "wall_s": wall,
            "paths_per_s": workloads.paths_per_round(name) / wall,
            "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in plain),
            "setup_s": statistics.median(setups + [res["setup_s"] for _, res, _ in ok_rounds]),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    else:
        layers = [spans.layer_metrics(d / "spans.npz") for d, _, t in ok_rounds if t]
        traced_wall = [res["wall_s"] for _, res, t in ok_rounds if t]
        if layers:
            for k in layers[0]:
                metrics[k] = {"value": statistics.median(m[k] for m in layers),
                              "unit": layer_unit(k)}
            metrics["trace.overhead_s"] = {
                "value": statistics.median(traced_wall) - wall, "unit": "s"}
    env = ok_rounds[0][1].get("blas") if ok_rounds else None
    return {"workload": name,
            "round_walls": [res and round(res["wall_s"], 4) for _, res, _ in rounds],
            "round_cpu": [res and round(res["cpu_s"], 4) for _, res, _ in rounds],
            "setups": setups, "attempted": len(rounds) * len(ops),
            "failed": failed, "correct": not run_faults and bool(ok_rounds),
            "metrics": metrics, "messages": messages, "blas": env}


def main() -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*workloads.NAMES, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "superconc" / "__init__.py").is_file():
        print(f"program source not found: {SRC / 'superconc'}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))

    import numpy
    import scipy

    import oracles

    print(json.dumps({"seed": args.seed, "nproc": os.cpu_count(),
                      "python": platform.python_version(), "numpy": numpy.__version__,
                      "scipy": scipy.__version__, "blas_threads_set": int(BLAS_THREADS)}))
    oracle_faults = oracles.self_test()
    for f in oracle_faults:
        print(f"oracle self-test: {f}", file=sys.stderr)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    base = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), base / name)
            results.append(res)
            print(json.dumps({"workload": name, "round_walls": res["round_walls"],
                              "round_cpu": res["round_cpu"],
                              "setups": res["setups"], "blas": res["blas"]}))
            for msg in res["messages"]:
                print(f"{name}: {msg}")
            for k, m in res["metrics"].items():
                print(f"{name:<13} {k:<26} {m['value']:>14.6g} {m['unit']}")
            print(f"{name:<13} operations attempted {res['attempted']}, failed {res['failed']}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass

    single = len(results) == 1
    metrics = {(k if single else f"{res['workload']}.{k}"): m
               for res in results for k, m in res["metrics"].items()}
    print(json.dumps({
        "correct": not oracle_faults and all(res["correct"] for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
