#!/usr/bin/env python3
"""Reproduce the variance-scaling experiment: Var(M_n) * log n across n.

Writes data.csv / summary.json / manifest.json under --out and prints the
scaled variances.  The flat profile (instead of linear growth in log n) is
the superconcentration signature.
"""

import argparse
import json

from superconc.cli import load_model
from superconc.experiments import ExperimentConfig, SchemaError, run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[16, 64, 256, 1024, 4096, 16384, 65536])
    ap.add_argument("--batch", type=int, default=2 * 10**4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--out", default="out/variance_scaling")
    ap.add_argument("--cov", help="covariance model JSON, inline or a file (default iid)")
    args = ap.parse_args()

    try:
        model = load_model(args.cov)
    except SchemaError as exc:
        ap.error(str(exc))
    cfg = ExperimentConfig(
        kind="variance_scaling", model=model, sizes=tuple(args.sizes),
        batch=args.batch, seed=args.seed, out=args.out, jobs=args.jobs,
    )
    paths = run(cfg)
    summary = json.loads(paths["summary"].read_text())
    print(f"{'n':>8} {'var':>12} {'var*log n':>12}")
    for row in summary["per_n"]:
        print(f"{row['n']:>8} {row['var']:>12.6f} {row['var_times_logn']:>12.6f}")
    print(f"files: {paths['csv']} {paths['summary']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
