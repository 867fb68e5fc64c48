"""The four workloads: their inputs, made from the seed, and one round of
their operations, each a call into an entry point users run.

* ``sequence_ou`` — ``covering.sequence_bound`` for OU (rate 1, alpha 0.5,
  Monte Carlo rho on 1e4 paths) at n = 2048 and n = 4096, each followed by
  ``covering.verify_covering`` against the gram.  It straddles the
  Cholesky/circulant switch at n = 2048.
* ``laplace_iid`` — ``superconc verify laplace_check`` for iid maxima at
  sizes 64 and 1024 with 1e5 paths: per-path stream set-up dominates it.
* ``scan_sliding`` — ``superconc scan --generator sliding:200,10
  --threshold prop51 --trials 2000``: the scan-test and stream loop, with no
  sampler.
* ``field_2d`` — ``experiments.run`` of a ``field_bound`` config for
  gaussian_smooth (lam2 = 2) on [0, 96]^2 with spacing 1: the 2-d circulant
  and Cholesky samplers, then a greedy net and ball covering.

The seed is the only input that varies; it becomes the program's seed.
This module imports only ``superconc`` and numpy, so that a worker's
set-up time is the program's own.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

NAMES = ("sequence_ou", "laplace_iid", "scan_sliding", "field_2d")

# parameters are given nested under "params": CovarianceModel.from_json
# ignores them anywhere else
OU_JSON = '{"kind": "ornstein_uhlenbeck", "params": {"rate": 1.0}}'
SMOOTH = {"kind": "gaussian_smooth", "params": {"lam2": 2.0}}

SEQ_SIZES = (2048, 4096)
SEQ_ALPHA = 0.5
SEQ_BATCH = 10**4

LAPLACE_SIZES = (64, 1024)
LAPLACE_BATCH = 10**5
LAPLACE_THETA_POINTS = 21  # the command's default

SCAN_N, SCAN_K = 200, 10
SCAN_TRIALS = 2000
SCAN_DELTA = 0.2  # the command's default

FIELD_EXTENT = 96.0
FIELD_SPACING = 1.0
FIELD_GROWTH_BATCH = 400  # field_bound's default per dyadic scale


def inputs(name: str, seed: int, out: str) -> dict:
    """The workload's inputs as plain data; ``out`` is its output directory."""
    if name == "sequence_ou":
        return {"model": OU_JSON, "sizes": list(SEQ_SIZES), "alpha": SEQ_ALPHA,
                "batch": SEQ_BATCH, "seed": seed}
    if name == "laplace_iid":
        return {"argv": ["--seed", str(seed), "--out", out, "verify", "laplace_check",
                         "--sizes", *map(str, LAPLACE_SIZES),
                         "--batch", str(LAPLACE_BATCH)]}
    if name == "scan_sliding":
        return {"argv": ["--seed", str(seed), "--out", out, "scan",
                         "--generator", f"sliding:{SCAN_N},{SCAN_K}",
                         "--threshold", "prop51", "--trials", str(SCAN_TRIALS)]}
    if name == "field_2d":
        return {"config": {"kind": "field_bound", "model": SMOOTH, "seed": seed,
                           "out": out, "params": {"d": 2, "extent": FIELD_EXTENT,
                                                  "spacing": FIELD_SPACING}}}
    raise ValueError(f"unknown workload {name!r}")


def field_scales() -> int:
    """Dyadic scales estimate_field_growth samples: extent halves while N(A) > 1."""
    scales, side = 0, FIELD_EXTENT
    while math.ceil(side / 2) ** 2 > 1 and side >= FIELD_SPACING:
        scales += 1
        side /= 2
    return scales


def paths_per_round(name: str) -> int:
    """Gaussian vectors one round draws and reduces (trials for the scan test)."""
    if name == "sequence_ou":
        return SEQ_BATCH * len(SEQ_SIZES)
    if name == "laplace_iid":
        return LAPLACE_BATCH * len(LAPLACE_SIZES)
    if name == "scan_sliding":
        # E_0 max on max(trials, 1e4), the null, and 64 sampled alternatives
        return max(SCAN_TRIALS, 10**4) + SCAN_TRIALS + 64 * SCAN_TRIALS
    return FIELD_GROWTH_BATCH * field_scales()


def op_names(name: str) -> list[str]:
    if name == "sequence_ou":
        return [f"{op}[{n}]" for n in SEQ_SIZES
                for op in ("sequence_bound", "verify_covering")]
    return {"laplace_iid": ["cli verify"], "scan_sliding": ["cli scan"],
            "field_2d": ["experiments.run"]}[name]


def prepare(name: str, spec: dict):
    """Build the program-side inputs; returns a callable running one round.

    The callable takes ``(timed, out_dir)``; ``timed(op_name, fn)`` runs one
    operation, records its time and returns its result, or None if it
    raised.  Program functions are looked up on their modules at call time,
    so that a traced round reaches the wrapped versions.
    """
    if name == "sequence_ou":
        import numpy as np
        from superconc import covariance, covering

        model = covariance.CovarianceModel.from_json(spec["model"])

        def round_(timed, out_dir: Path):
            done = []
            for n in spec["sizes"]:
                rep = timed(f"sequence_bound[{n}]", lambda: covering.sequence_bound(
                    model, n, spec["alpha"], batch=spec["batch"], seed=spec["seed"]))
                if rep is None:
                    continue
                ok = timed(f"verify_covering[{n}]", lambda: covering.verify_covering(
                    rep.covering, covariance.gram_matrix(model, np.arange(n)), rep.r0))
                done.append((n, rep, ok))
            blocks, reports, verdicts = {}, {}, {}
            for n, rep, ok in done:
                reports[str(n)] = rep.to_dict()
                verdicts[str(n)] = ok
                bl = rep.covering.blocks
                blocks[f"lo{n}"] = np.array([b[0] for b in bl])
                blocks[f"hi{n}"] = np.array([b[-1] for b in bl])
                blocks[f"contiguous{n}"] = np.array(
                    [len(b) == b[-1] - b[0] + 1 and bool(np.all(np.diff(b) == 1)) for b in bl])
            np.savez(out_dir / "blocks.npz", **blocks)
            (out_dir / "reports.json").write_text(
                json.dumps({"reports": reports, "verify": verdicts}, sort_keys=True))

        return round_

    if name in ("laplace_iid", "scan_sliding"):
        from superconc import cli

        def round_(timed, out_dir: Path):
            rc = timed(op_names(name)[0], lambda: cli.main(spec["argv"]))
            (out_dir / "exit.json").write_text(json.dumps({"rc": rc}))

        return round_

    if name == "field_2d":
        from superconc import experiments

        config = experiments.ExperimentConfig.from_dict(spec["config"])

        def round_(timed, out_dir: Path):
            timed("experiments.run", lambda: experiments.run(config))

        return round_

    raise ValueError(f"unknown workload {name!r}")
