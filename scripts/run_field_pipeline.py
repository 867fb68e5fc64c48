#!/usr/bin/env python3
"""Field-bound pipeline on a box: covering number, growth constants from
dyadic scales, the separation-net construction, and the tail constant K.
"""

import argparse
import json

from superconc.covariance import CovarianceModel
from superconc.experiments import PARAMS, ExperimentConfig, run


def main() -> int:
    defaults = PARAMS["field_bound"]
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--extent", type=float, default=defaults["extent"])
    ap.add_argument("--d", type=int, default=defaults["d"], choices=[1, 2, 3])
    ap.add_argument("--lam2", type=float, default=2.0,
                    help="second spectral moment of the smooth covariance")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="out/field")
    args = ap.parse_args()

    model = CovarianceModel("gaussian_smooth", lam2=args.lam2)
    cfg = ExperimentConfig(
        kind="field_bound", model=model, sizes=(1,), batch=1, seed=args.seed,
        out=args.out, params={"d": args.d, "extent": args.extent},
    )
    paths = run(cfg)
    s = json.loads(paths["summary"].read_text())
    print(f"N(A) = {s['N_A']}  c1 = {s['c1']:.4f}  c2 = {s['c2']:.4f}  "
          f"slope = {s['fit_slope']:.4f}")
    print(f"s0 = {s['s0']:.4f}  K = {s['K']:.6f}  "
          f"net blocks = {s['covering_blocks']} "
          f"(multiplicity {s['covering_multiplicity']})")
    print(f"files: {paths['csv']} {paths['summary']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
