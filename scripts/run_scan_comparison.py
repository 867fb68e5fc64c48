#!/usr/bin/env python3
"""Scan-test comparison: Monte Carlo risk at both acceptance thresholds
(Gaussian-concentration and superconcentration) plus the threshold table
across a delta grid.
"""

import argparse
import json

from superconc.experiments import PARAMS, ExperimentConfig, run


def main() -> int:
    defaults = PARAMS["scan_risk"]
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--generator", default=defaults["generator"],
                    help="disjoint:N,K or sliding:n,K")
    ap.add_argument("--delta", type=float, default=defaults["delta"])
    ap.add_argument("--trials", type=int, default=defaults["trials"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="out/scan")
    args = ap.parse_args()

    for kind in ("prop51", "prop52"):
        cfg = ExperimentConfig(
            kind="scan_risk", sizes=(1,), batch=1, seed=args.seed,
            out=f"{args.out}_{kind}",
            params={"generator": args.generator, "delta": args.delta,
                    "threshold": kind, "trials": args.trials},
        )
        paths = run(cfg)
        s = json.loads(paths["summary"].read_text())
        c = f"  c = {s['c_used']:.4f}" if s.get("c_used") else ""
        print(f"{kind}: mu = {s['mu']:.4f}  risk = {s['risk']:.4f} "
              f"(+/- {s['risk_se']:.4f}){c}")
        print(f"  type I = {s['type1']:.4f}  mean type II = {s['type2_mean']:.4f}")
    print(f"threshold table: {paths['csv']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
