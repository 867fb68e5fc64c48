"""Seeded experiment grids and machine-readable result files.

An :class:`ExperimentConfig` fully determines a run: equal configs produce
byte-identical CSV and summary JSON.  The manifest additionally records
wall time and the library version and is exempt from that guarantee.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .covariance import CovarianceModel, TableRangeError
from .covering import (
    MC_RHO_MIN_PATHS,
    BoundError,
    correlated_bound,
    crossover_window,
    field_bound,
    find_sign_vectors,
    gaussian_tail_curve,
    sequence_bound,
    tail_curve,
)
from .extremes import centering_gap, corner_maxima, ks_to_gumbel
from .sampler import DecompositionError, EmbeddingError, draw_rows, grid_geometry, make_plan
from .scantest import (
    STREAM_BLOCK,
    ScanClass,
    disjoint_class,
    estimate_risk,
    sliding_class,
    threshold_table,
)
from .verify import (
    LAPLACE_SE_GROUPS,
    FitError,
    estimate_tail,
    fit_gaussian_rate,
    fit_tail_rate,
    laplace_check,
    variance_with_se,
)


class SchemaError(ValueError):
    """Config validation failure; message names the offending field."""


def fmt(x) -> str:
    """Fixed 17-significant-digit float formatting for reproducible files."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _whole(v) -> int:
    """``v`` as an int; a bool, a string or a number that is not whole is a
    ValueError, where ``int`` would run 2.7 as 2 and true as 1."""
    if isinstance(v, bool) or not (isinstance(v, int) or isinstance(v, float) and v.is_integer()):
        raise ValueError(f"{v!r} is not a whole number")
    return int(v)


def _whole_list(v) -> tuple[int, ...]:
    if not isinstance(v, list):
        raise ValueError(f"{v!r} is not a list")
    return tuple(map(_whole, v))


def _json(kind: type, name: str):
    """A coercion that takes only a JSON value of type ``name`` (``kind`` in Python)."""
    def take(v):
        if not isinstance(v, kind):
            raise ValueError(f"{v!r} is not {name}")
        return kind(v)
    return take


@dataclass
class ExperimentConfig:
    kind: str
    model: CovarianceModel = field(default_factory=lambda: CovarianceModel("iid"))
    sizes: tuple[int, ...] = (1024,)
    batch: int = 10**4
    seed: int = 0
    out: str = "out"
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "model": self.model.to_dict(),
            "sizes": list(self.sizes),
            "batch": self.batch,
            "seed": self.seed,
            "out": self.out,
            "params": self.params,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        """The config of a JSON object; absent fields take the defaults above."""
        if not isinstance(obj, dict) or "kind" not in obj:
            raise SchemaError("missing field 'kind'")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise SchemaError(f"unknown field(s) {unknown}")
        coerce = {
            "kind": _json(str, "a string"), "model": CovarianceModel.from_dict,
            "sizes": _whole_list, "batch": _whole, "seed": _whole,
            "out": _json(str, "a string"), "params": _json(dict, "an object"),
        }
        kw = {}
        for name, value in obj.items():
            try:
                kw[name] = coerce[name](value)
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"field {name!r}: {exc}") from exc
        return cls(**kw)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SchemaError(f"config file {path}: {exc}") from exc
        return cls.from_dict(obj)


# the params each experiment kind takes, with their defaults; None where the
# runner derives the value (K from n, the delta grid from N) or the callee
# takes None
PARAMS = {
    "gumbel_convergence": {},
    "variance_scaling": {},
    "tail_bounds": {"t_max": 2.0, "t_points": 41, "center": "mean", "K": None},
    "laplace_check": {"theta_points": 21, "K": None},
    "sequence_bound": {"alpha": 0.5, "rho": "monte_carlo", "c": 1.0, "t_max": 4.0,
                       "t_points": 41},
    "field_bound": {"d": 1, "extent": 100.0, "spacing": 1.0, "exponent_ratio": None,
                    "growth_batch": 400, "c": 1.0, "t_max": 4.0, "t_points": 41},
    "correlated_bound": {"eps": 0.1, "c": 1.0, "t_max": 4.0, "t_points": 41},
    "scan_risk": {"generator": "disjoint:10,10", "n": None, "sets": None, "mu": None,
                  "threshold": "prop51", "c": None, "trials": 2000, "delta": 0.2,
                  "delta_grid": None, "table_c": 1.0},
    "sign_vectors": {"n": 100, "N_target": 50, "threshold": None, "max_tries": 10**5},
    "sample_paths": {"d": None, "extent": 10.0, "spacing": 1.0, "method": None},
}
EXPERIMENT_KINDS = tuple(PARAMS)
# the values each string param of a kind may take besides its default
CHOICES = {"tail_bounds": {"center": ("mean", "b_n")},
           "sequence_bound": {"rho": ("monte_carlo", "analytic")},
           "scan_risk": {"threshold": ("prop51", "prop52")},
           "sample_paths": {"method": ("cholesky", "circulant")}}
# the params whose default is None that take something other than a number
NOT_NUMBERS = {"sets", "delta_grid", "method"}
# the params that count points, paths, trials or vectors, with their least value
COUNTS = {"n": 1, "t_points": 1, "theta_points": 1, "growth_batch": 1, "trials": 1,
          "N_target": 2, "max_tries": 1}
# the params that scale a bound, a tail rate or a lattice, which must be positive
POSITIVE = {"K", "c", "table_c", "spacing", "exponent_ratio"}


def _params(cfg) -> dict:
    """The kind's params: the config's, over the defaults in ``PARAMS``."""
    return {**PARAMS[cfg.kind], **cfg.params}


def _param_diags(kind: str, p: dict) -> list[str]:
    """A diagnostic for each param of the kind's ``CHOICES`` set outside
    them, each param with a numeric default, or a given one with a None
    default outside ``NOT_NUMBERS``, that is not a number (extent may be a
    list), each given one of the ``COUNTS`` below its least value, each given
    one of ``POSITIVE`` that is not above 0, and each given count or ``d``
    that is not a whole number."""
    diags = []
    choices = CHOICES.get(kind, {})
    for name, default in PARAMS[kind].items():
        v = p[name]
        values = v if name == "extent" and isinstance(v, list) else [v]
        numeric = isinstance(default, (int, float)) or (
            default is None and v is not None and name not in NOT_NUMBERS)
        if name in choices and v != default and v not in choices[name]:
            diags.append(f"field 'params.{name}': {v!r} is not one of {list(choices[name])}")
        elif numeric and not all(isinstance(x, numbers.Real) for x in values):
            diags.append(f"field 'params.{name}': {v!r} is not a number")
        elif v is None:
            continue
        elif name in COUNTS and v < COUNTS[name]:
            diags.append(f"field 'params.{name}': {v!r} is below {COUNTS[name]}")
        elif name in POSITIVE and not v > 0:
            diags.append(f"field 'params.{name}': {v!r} is not a positive number")
        elif (name in COUNTS or name == "d") and not (
                isinstance(v, numbers.Real) and float(v).is_integer()):
            diags.append(f"field 'params.{name}': {v!r} is not a whole number")
    return diags


def _reads(kind: str, p: dict, model: CovarianceModel) -> tuple[str, int | None, bool]:
    """A name for the kind under its params and model, how many leading entries
    of ``sizes`` it reads (None for all; 0 where it draws a grid of ``d``,
    ``extent`` and ``spacing``, or no lattice), and whether it reads ``batch``."""
    if kind == "sample_paths":
        grid = p["d"] is not None
        return f"a sample {'with' if grid else 'without'} params.d", 0 if grid else 1, True
    if kind == "sequence_bound" and p["rho"] == "analytic":
        return "a sequence bound with analytic rho", 1, False
    if kind == "sequence_bound" and model.kind == "iid":
        return "an iid sequence bound", 1, False
    if kind in ("field_bound", "scan_risk", "sign_vectors"):
        return kind, 0, False
    if kind in ("tail_bounds", "sequence_bound", "correlated_bound"):
        return kind, 1, kind != "correlated_bound"
    return kind, None, True


def validate(config: ExperimentConfig) -> list[str]:
    """Diagnostics of a config that is not well formed; :func:`run` checks the memory cap."""
    diags = []
    if config.kind not in EXPERIMENT_KINDS:
        diags.append(
            f"field 'kind': unknown experiment kind {config.kind!r}; "
            f"expected one of {', '.join(EXPERIMENT_KINDS)}"
        )
        return diags
    unknown = sorted(set(config.params) - set(PARAMS[config.kind]))
    if unknown:
        diags.append(f"field 'params': {config.kind} takes no {unknown}")
    if config.seed < 0:
        diags.append(f"field 'seed': {config.seed} is below 0")
    p = _params(config)
    # a value the kind does not read passes as the default, like an absent one
    who, n_read, batch_read = _reads(config.kind, p, config.model)
    if config.sizes != ExperimentConfig.sizes and config.sizes[:n_read] != config.sizes:
        diags.append(f"field 'sizes': {who} reads {'only sizes[0]' if n_read else 'no sizes'}")
    # a sample may draw one point; every statistic and bound reads log n > 0
    least = 1 if config.kind == "sample_paths" else 2
    if not (n_read == 0 or bool(config.sizes) and min(config.sizes) >= least):
        diags.append(f"field 'sizes': needs one or more entries, each at least {least}")
    if not batch_read and config.batch != ExperimentConfig.batch:
        diags.append(f"field 'batch': {who} reads no batch")
    elif config.batch < 1:
        diags.append("field 'batch': must be positive")
    if config.kind == "sample_paths" and n_read and "extent" in config.params:
        diags.append(f"field 'params.extent': {who} reads no extent")
    if bad := _param_diags(config.kind, p):
        return diags + bad
    if config.kind == "scan_risk":
        try:
            _scan_class(p)
        except SchemaError as exc:
            diags.append(str(exc))
        if (trials := int(p["trials"])) > STREAM_BLOCK:
            diags.append(f"field 'params.trials': {trials} trials overrun the "
                         f"{STREAM_BLOCK}-stream block of each estimate")
        top = 2 if p["threshold"] == "prop51" else 6
        if not 0 < p["delta"] <= top:
            diags.append(f"field 'params.delta': {p['delta']!r} is outside (0, {top}] "
                         f"of {p['threshold']}")
        grid = p["delta_grid"]
        if grid is not None and not (isinstance(grid, list) and all(
                isinstance(d, numbers.Real) and 0 < d <= 6 for d in grid)):
            diags.append(f"field 'params.delta_grid': {grid!r} is not a list of deltas "
                         "in (0, 6]")
    # the fewest paths each statistic takes: the KS distance of ks_to_gumbel,
    # the jackknife of variance_with_se, 2 maxima in each SE group of
    # laplace_check and Monte Carlo rho (the tail fit's need depends on the
    # maxima, so run maps its FitError)
    what, fewest = {
        "gumbel_convergence": ("the KS distance to the Gumbel law", 100),
        "variance_scaling": ("the jackknife SE", 3),
        "laplace_check": ("the SE of the Laplace margin", 2 * LAPLACE_SE_GROUPS),
        "sequence_bound": ("Monte Carlo rho", MC_RHO_MIN_PATHS),
    }.get(config.kind, ("", 0))
    if batch_read and config.batch < fewest:
        diags.append(f"field 'batch': {what} needs >= {fewest} paths, got {config.batch}")
    if p.get("d") is not None:
        try:
            grid_geometry(int(p["d"]), p["extent"], float(p["spacing"]))
        except (TypeError, ValueError) as exc:
            diags.append(f"field 'params': {exc}")
    return diags


def write_csv(path: Path, header: list[str], rows):
    """One line per row, written as it is formatted."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _plain(o):
    """``o`` in JSON's own types: numpy scalars and arrays as Python ones, and
    a non-finite float as None, since JSON has no NaN or Infinity."""
    if isinstance(o, (np.ndarray, np.generic)):
        o = o.tolist()
    if isinstance(o, dict):
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_plain(v) for v in o]
    return None if isinstance(o, float) and not math.isfinite(o) else o


def json_text(obj) -> str:
    """Indented, key-sorted JSON of ``obj`` with a final newline."""
    return json.dumps(_plain(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _per_size(cfg, sizes, stat):
    """``stat(n, maxima)`` for each n in ``sizes``, in order, read off one draw
    of ``cfg.batch`` paths at the largest size as its prefixes
    (:func:`corner_maxima`)."""
    maxima = corner_maxima(make_plan(cfg.model, (max(sizes),)), [(n,) for n in sizes],
                           cfg.batch, cfg.seed)
    return [stat(n, m) for n, m in zip(sizes, maxima)]


def _run_variance_scaling(cfg):
    def stat(n, maxima):
        var, se = variance_with_se(maxima)
        return n, var, se, var * math.log(n)

    header = ["n", "var", "se", "var_times_logn"]
    rows = _per_size(cfg, cfg.sizes, stat)
    return header, rows, {"per_n": [dict(zip(header, row)) for row in rows]}


def _run_gumbel_convergence(cfg):
    header = ["n", "ks", "centering_gap"]
    rows = _per_size(cfg, cfg.sizes,
                     lambda n, m: (n, ks_to_gumbel(m, n), centering_gap(m, n)))
    return header, rows, {"per_n": [dict(zip(header, row)) for row in rows]}


def _K(p, n) -> float:
    return float(1.0 / math.log(n) if p["K"] is None else p["K"])


def _run_tail_bounds(cfg):
    n = cfg.sizes[0]
    p = _params(cfg)
    t_grid = np.linspace(0.0, float(p["t_max"]), int(p["t_points"]))
    [tail] = _per_size(cfg, [n], lambda n, m: estimate_tail(m, n, p["center"], t_grid))
    K = _K(p, n)
    fit = fit_tail_rate(tail, K)
    gauss_fit = fit_gaussian_rate(tail)
    bound = tail_curve(K, fit.rate, t_grid) if fit.rate > 0 else np.full_like(t_grid, np.nan)
    gbound = gaussian_tail_curve(t_grid)
    rows = [
        (t_grid[i], tail.survival[i], tail.lo[i], tail.hi[i], bound[i], gbound[i])
        for i in range(len(t_grid))
    ]
    summary = {
        "n": n, "K": K, "center": tail.center, "center_value": tail.center_value,
        "c_hat": fit.rate, "r2": fit.r2, "exp_fit_ok": fit.ok,
        "gaussian_rate": gauss_fit.rate, "gaussian_r2": gauss_fit.r2,
        "crossover_window": crossover_window(K, fit.rate) if fit.rate > 0 else None,
    }
    return ["t", "survival", "lo", "hi", "bound", "gaussian_bound"], rows, summary


def _run_laplace_check(cfg):
    p = _params(cfg)
    theta_points = int(p["theta_points"])

    def stat(n, maxima):
        K = _K(p, n)
        return n, K, laplace_check(maxima, K, theta_points)

    rows = []
    per_n = []
    for n, K, chk in _per_size(cfg, cfg.sizes, stat):
        for j in range(theta_points):
            rows.append((n, chk.theta[j], chk.margin[j], chk.margin_se[j]))
        per_n.append({"n": n, "K": K, "C_hat": chk.C_hat,
                      "overflow": bool(chk.overflow.any())})
    return ["n", "theta", "margin", "margin_se"], rows, {"per_n": per_n}


def _run_bound(cfg):
    """The kind's bound report, with the params' tail rate ``c``, as summary,
    and its (t, bound, gaussian_bound) rows on the params' t grid."""
    p = _params(cfg)
    if cfg.kind == "sequence_bound":
        report = sequence_bound(cfg.model, cfg.sizes[0], float(p["alpha"]),
                                rho_source=p["rho"], batch=cfg.batch, seed=cfg.seed)
    elif cfg.kind == "field_bound":
        report = field_bound(
            cfg.model, int(p["d"]), p["extent"], exponent_ratio=p["exponent_ratio"],
            spacing=float(p["spacing"]), batch=int(p["growth_batch"]), seed=cfg.seed,
        )
    else:
        report = correlated_bound(float(p["eps"]), cfg.sizes[0])
    c = float(p["c"])
    t_grid = np.linspace(0.0, float(p["t_max"]), int(p["t_points"]))
    curve = tail_curve(report.K, c, t_grid)
    rows = list(zip(t_grid, curve, gaussian_tail_curve(t_grid)))
    summary = {**report.to_dict(), "c": c, "crossover_window": crossover_window(report.K, c)}
    return ["t", "bound", "gaussian_bound"], rows, summary


def _scan_class(p: dict) -> ScanClass:
    """The class of the params ``n`` and ``sets``, or else of the
    ``generator`` spec ``disjoint:N,K`` or ``sliding:n,K``; a class they rule
    out is a SchemaError naming the param."""
    if p["sets"] is not None:
        try:
            return ScanClass(int(p["n"]), p["sets"])
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"field 'params.sets': {exc}") from exc
    spec = p["generator"]
    name, _, args = str(spec).partition(":")
    if name not in ("disjoint", "sliding"):
        raise SchemaError(f"field 'params.generator': unknown generator {name!r}")
    try:
        a, b = (int(v) for v in args.split(","))
        return disjoint_class(a, b, n=p["n"]) if name == "disjoint" else sliding_class(a, b)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"field 'params.generator': {spec!r}: {exc}") from exc


def _run_scan_risk(cfg):
    p = _params(cfg)
    cls = _scan_class(p)
    report = estimate_risk(
        cls, mu=p["mu"], threshold_kind=p["threshold"], c=p["c"],
        trials=int(p["trials"]), seed=cfg.seed, delta_target=float(p["delta"]),
    )
    deltas = p["delta_grid"]
    if deltas is None:
        deltas = [1.0 / math.log(cls.N), 0.2, 0.1, 0.05, 0.01]
    table_c = float(p["table_c"])
    rows = threshold_table(cls.K, cls.N, report.e0max, deltas, c=table_c)
    summary = report.to_dict()
    summary["table_c"] = table_c
    summary["N"] = cls.N
    summary["K"] = cls.K
    return ["delta", "threshold_prop51", "threshold_prop52"], rows, summary


def _run_sign_vectors(cfg):
    p = _params(cfg)
    n = int(p["n"])
    result = find_sign_vectors(n, int(p["N_target"]), p["threshold"], seed=cfg.seed,
                               max_tries=int(p["max_tries"]))
    v = result.vectors.astype(np.int64)
    dots = v @ v.T
    np.fill_diagonal(dots, 0)
    rows = [(i, int(np.abs(dots[i]).max())) for i in range(len(v))]
    summary = {
        "n": n, "found": result.accepted, "tries": result.tries,
        "threshold": result.threshold, "saturated": result.saturated,
        "acceptance_rate": result.acceptance_rate,
        "pair_pass_rate": result.pair_pass_rate,
        "pair_tests": result.pair_tests,
    }
    return ["vector", "max_abs_dot"], rows, summary


def _run_sample_paths(cfg):
    """``cfg.batch`` draws of the lattice, one row per path in C order."""
    p = _params(cfg)
    spacing = float(p["spacing"])
    shape = (cfg.sizes[0],) if p["d"] is None else grid_geometry(int(p["d"]), p["extent"],
                                                                 spacing)
    plan = make_plan(cfg.model, shape, spacing, p["method"])
    paths = draw_rows(plan, cfg.batch, cfg.seed)
    summary = {"n": plan.n, "shape": list(shape), "spacing": spacing, "batch": cfg.batch,
               "method": plan.method}
    return [f"x{i}" for i in range(plan.n)], paths, summary


_RUNNERS = {
    "gumbel_convergence": _run_gumbel_convergence,
    "variance_scaling": _run_variance_scaling,
    "tail_bounds": _run_tail_bounds,
    "laplace_check": _run_laplace_check,
    "sequence_bound": _run_bound,
    "field_bound": _run_bound,
    "correlated_bound": _run_bound,
    "scan_risk": _run_scan_risk,
    "sign_vectors": _run_sign_vectors,
    "sample_paths": _run_sample_paths,
}


def run(config: ExperimentConfig) -> dict[str, Path]:
    """Execute the experiment; writes data.csv, summary.json and manifest.json.
    A bound or a lattice that the inputs rule out (``covering.BoundError``, a
    table model's lag outside its table, a failed factorization or
    embedding), or maxima too few for the tail fit, is a SchemaError.  A factor,
    draw or covering over the memory cap is a ``sampler.CapacityError`` (its
    bytes ``needed`` and the cap ``limit``), raised before its array or any file."""
    diags = validate(config)
    if diags:
        raise SchemaError("; ".join(diags))
    t0 = time.monotonic()
    try:
        header, rows, summary = _RUNNERS[config.kind](config)
    except (BoundError, TableRangeError, DecompositionError, EmbeddingError,
            FitError) as exc:
        raise SchemaError(str(exc)) from exc
    wall = time.monotonic() - t0
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)

    paths = {
        "csv": outdir / "data.csv",
        "summary": outdir / "summary.json",
        "manifest": outdir / "manifest.json",
    }
    write_csv(paths["csv"], header, rows)
    paths["summary"].write_text(json_text(summary))
    paths["manifest"].write_text(json_text(
        {"config": config.to_dict(), "version": __version__, "wall_time_s": wall}))
    return paths
