#!/usr/bin/env python3
"""Fit the exponential tail rate of the centered maximum and compare the
resulting bound curve 6 exp(-c t / sqrt(K)) with the classical Gaussian
curve 2 exp(-t^2 / 2), including the crossover window where the
exponential bound is the sharper of the two.
"""

import argparse
import json

from superconc.cli import load_model
from superconc.covering import crossover_window
from superconc.experiments import PARAMS, ExperimentConfig, SchemaError, run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4096)
    ap.add_argument("--batch", type=int, default=10**5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--t-max", type=float, default=PARAMS["tail_bounds"]["t_max"])
    ap.add_argument("--out", default="out/tail_comparison")
    ap.add_argument("--cov", help="covariance model JSON, inline or a file (default iid)")
    args = ap.parse_args()

    try:
        model = load_model(args.cov)
    except SchemaError as exc:
        ap.error(str(exc))
    cfg = ExperimentConfig(
        kind="tail_bounds", model=model, sizes=(args.n,), batch=args.batch,
        seed=args.seed, out=args.out,
        params={"t_max": args.t_max},
    )
    paths = run(cfg)
    summary = json.loads(paths["summary"].read_text())
    c_hat, K = summary["c_hat"], summary["K"]
    print(f"n = {args.n}  K = {K:.6f}  c_hat = {c_hat:.4f}  "
          f"R^2 = {summary['r2']:.4f} (gaussian fit R^2 = {summary['gaussian_r2']:.4f})")
    window = crossover_window(K, c_hat)
    if window is None:
        print("the exponential curve never beats the Gaussian one")
    else:
        print(f"exponential bound sharper on t in ({window[0]:.4f}, {window[1]:.4f})")
    print(f"files: {paths['csv']} {paths['summary']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
