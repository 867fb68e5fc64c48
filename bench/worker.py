"""One round of one workload, in a fresh interpreter started by run.py.

    python3 bench/worker.py --workload NAME --seed N --dir DIR --spawned-at T
                            [--trace] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so set-up time counts interpreter
start, the ``superconc`` import and building the workload's inputs.  The
worker writes ``result.json`` (and with ``--trace`` a span file) into DIR.
"""

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

import superconc  # noqa: F401  (the import is part of set-up time)

import workloads


def blas_info() -> dict:
    """The BLAS library this process loaded, and its thread count."""
    import ctypes

    import numpy as np

    info = {"library": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
            "threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                get = getattr(lib, sym)
                get.argtypes, get.restype = [], ctypes.c_int
                info["threads"] = get()
                return info
    return info


def peak_rss_bytes() -> int:
    """This process's peak resident set since exec.

    getrusage's ru_maxrss is no use here: exec carries the spawning
    process's peak into it, so a small child would report the parent's size.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    out_dir = Path(args.dir)
    spec = workloads.inputs(args.workload, args.seed, str(out_dir / "out"))
    round_ = workloads.prepare(args.workload, spec)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        (out_dir / "result.json").write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    ops = []

    def timed(op, fn):
        t0 = time.perf_counter()
        try:
            value = fn()
            error = None
        except Exception:  # the parent counts the operation as failed
            value, error = None, traceback.format_exc()
        ops.append({"op": op, "start": t0, "seconds": time.perf_counter() - t0,
                    "error": error})
        return value

    cpu0 = time.process_time()
    round_(timed, out_dir)
    cpu_s = time.process_time() - cpu0
    if tracer is not None:
        tracer.save(out_dir / "spans.npz")
    result.update(
        ops=ops,
        cpu_s=cpu_s,
        wall_s=max(o["start"] + o["seconds"] for o in ops) - min(o["start"] for o in ops),
        peak_rss_mb=peak_rss_bytes() / 1e6,
        blas=blas_info(),
    )
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
