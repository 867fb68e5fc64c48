"""Command-line front end.

Subcommands: sample, bound, verify, scan, gumbel, signvec.  Global flags
--config / --seed / --out.  Every subcommand runs an experiment
config: it writes data.csv, summary.json and manifest.json under --out and
prints the summary on stdout; progress goes to stderr.  bound --pipeline
picks the sequence_bound, field_bound or correlated_bound kind; sample runs
sample_paths, whose data.csv holds one drawn path per row.  The env var
SUPERCONC_CAP_BYTES overrides the memory cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .covariance import CovarianceModel
from .experiments import CHOICES, ExperimentConfig, SchemaError, run, validate
from .sampler import CapacityError


def load_model(spec: str | None) -> CovarianceModel:
    """The covariance model of a ``--cov`` value: inline JSON, a JSON file,
    or iid when absent.  Errors are :class:`SchemaError` naming ``--cov``."""
    if spec is None:
        return CovarianceModel("iid")
    try:
        text = spec if spec.lstrip().startswith("{") else Path(spec).read_text()
        return CovarianceModel.from_json(text)
    except (OSError, ValueError, TypeError) as exc:
        raise SchemaError(f"--cov: {exc}") from exc


def _progress(msg: str):
    print(msg, file=sys.stderr)


# attributes of a parsed experiment command that are not params of its kind
_NOT_PARAMS = {"config", "seed", "out", "command", "fn", "kind", "pipeline",
               "cov", "sizes", "batch", "cls"}


def _cmd_experiment(args) -> int:
    """Each given flag is the param of its name; ``validate`` rejects one
    the kind does not take.  Absent sizes and batch take the config's
    defaults."""
    params = {k: v for k, v in vars(args).items()
              if k not in _NOT_PARAMS and v is not None}
    if getattr(args, "cls", None):
        try:
            obj = json.loads(Path(args.cls).read_text())
            params.update(n=obj["n"], sets=obj["sets"])
        except (OSError, ValueError, TypeError, KeyError) as exc:
            raise SchemaError(f"--class: {type(exc).__name__}: {exc}") from exc
    fields = {k: getattr(args, k) for k in ("sizes", "batch")
              if getattr(args, k, None) is not None}
    if "sizes" in fields:
        fields["sizes"] = tuple(fields["sizes"])
    kind = getattr(args, "kind", None) or f"{args.pipeline}_bound"
    cfg = ExperimentConfig(kind=kind, model=load_model(getattr(args, "cov", None)),
                           seed=args.seed, out=args.out, params=params, **fields)
    return _run_config(cfg)


def _run_config(cfg: ExperimentConfig) -> int:
    diags = validate(cfg)
    if diags:
        for d in diags:
            _progress(f"config error: {d}")
        return 2
    paths = run(cfg)
    _progress(f"wrote {paths['csv']} {paths['summary']} {paths['manifest']}")
    sys.stdout.write(paths["summary"].read_text())
    return 0


def _cmd_config(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    for name in ("seed", "out"):
        if getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    return _run_config(cfg)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="superconc")
    p.add_argument("--config", help="run an experiment config JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    sub = p.add_subparsers(dest="command")

    # experiment flags default to None: an absent one takes experiments.PARAMS
    s = sub.add_parser("sample", help="draw paths of a sequence or grid into data.csv")
    s.add_argument("--cov", help="covariance model JSON (inline or file)")
    s.add_argument("--n", type=int, nargs=1, dest="sizes", metavar="N")
    s.add_argument("--batch", type=int, default=100)
    s.add_argument("--method", choices=CHOICES["sample_paths"]["method"])
    s.add_argument("--d", type=int, choices=[1, 2, 3])
    s.add_argument("--extent", type=float)
    s.add_argument("--spacing", type=float)
    s.set_defaults(fn=_cmd_experiment, kind="sample_paths")

    b = sub.add_parser("bound", help="the constants and tail curve of a bound")
    b.add_argument("--pipeline", choices=["sequence", "field", "correlated"],
                   default="sequence")
    b.add_argument("--cov")
    b.add_argument("--n", type=int, nargs=1, dest="sizes", metavar="N")
    b.add_argument("--batch", type=int)
    b.add_argument("--alpha", type=float)
    b.add_argument("--rho", choices=CHOICES["sequence_bound"]["rho"])
    b.add_argument("--c", type=float)
    b.add_argument("--eps", type=float)
    b.add_argument("--d", type=int, choices=[1, 2, 3])
    b.add_argument("--extent", type=float)
    b.add_argument("--spacing", type=float)
    b.add_argument("--t-max", type=float)
    b.add_argument("--t-points", type=int)
    b.set_defaults(fn=_cmd_experiment)

    v = sub.add_parser("verify", help="Monte Carlo verification experiments")
    v.add_argument("kind", choices=["variance_scaling", "tail_bounds",
                                    "laplace_check"])
    v.add_argument("--cov")
    v.add_argument("--sizes", type=int, nargs="+")
    v.add_argument("--batch", type=int, default=10**4)
    v.add_argument("--theta-points", type=int)
    v.add_argument("--t-max", type=float)
    v.set_defaults(fn=_cmd_experiment)

    sc = sub.add_parser("scan", help="scan-test risk estimation")
    sc.add_argument("--class", dest="cls", help="JSON file with {n, sets}")
    sc.add_argument("--generator", help="disjoint:N,K or sliding:n,K")
    sc.add_argument("--mu", type=float)
    sc.add_argument("--delta", type=float)
    sc.add_argument("--threshold", choices=CHOICES["scan_risk"]["threshold"])
    sc.add_argument("--c", type=float)
    sc.add_argument("--trials", type=int)
    sc.set_defaults(fn=_cmd_experiment, kind="scan_risk")

    g = sub.add_parser("gumbel", help="KS convergence to the Gumbel law")
    g.add_argument("--cov")
    g.add_argument("--sizes", type=int, nargs="+", default=[100, 1000, 10000])
    g.add_argument("--batch", type=int, default=5000)
    g.set_defaults(fn=_cmd_experiment, kind="gumbel_convergence")

    sv = sub.add_parser("signvec", help="near-orthogonal sign vector search")
    sv.add_argument("--n", type=int)
    sv.add_argument("--N", type=int, dest="N_target")
    sv.add_argument("--threshold", type=float)
    sv.add_argument("--max-tries", type=int)
    sv.set_defaults(fn=_cmd_experiment, kind="sign_vectors")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        args.fn = _cmd_config
    elif not args.command:
        parser.print_help(sys.stderr)
        return 2
    else:
        for name, default in (("seed", 0), ("out", "out")):
            if getattr(args, name) is None:
                setattr(args, name, default)
    try:
        return args.fn(args)
    except SchemaError as exc:
        _progress(f"config error: {exc}")
        return 2
    except CapacityError as exc:
        _progress(f"config error: capacity: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
