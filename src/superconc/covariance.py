"""Stationary covariance functions phi for sequences and fields.

A model is a unit-variance stationary covariance phi with phi(0) = 1.
Built-in kinds:

    iid               phi(t) = 1{t == 0}
    ornstein_uhlenbeck phi(t) = exp(-rate * t)
    gaussian_smooth   phi(t) = exp(-lam2 * t^2 / 2)   (second spectral moment lam2)
    power_decay       phi(t) = 1 / (1 + amp * t^alpha_cov)
    log_decay         phi(t) = 1 / (1 + amp * log(1 + t))
    table             linear interpolation of an explicit lag -> value map

All kinds except ``table`` are non-increasing by construction; table
models are checked numerically wherever monotonicity matters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# the fields of CovarianceModel each kind reads; they travel under "params"
KIND_PARAMS = {
    "iid": (),
    "ornstein_uhlenbeck": ("rate",),
    "gaussian_smooth": ("lam2",),
    "power_decay": ("amp", "alpha_cov"),
    "log_decay": ("amp",),
    "table": (),
}
KINDS = frozenset(KIND_PARAMS)


class TableRangeError(ValueError):
    """Lag outside the tabulated range of a table model."""


@dataclass(frozen=True)
class CovarianceModel:
    kind: str
    rate: float = 1.0
    lam2: float = 1.0
    amp: float = 1.0
    alpha_cov: float = 2.0
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown covariance kind {self.kind!r}")
        if self.kind == "ornstein_uhlenbeck" and self.rate <= 0:
            raise ValueError("ornstein_uhlenbeck rate must be positive")
        if self.kind == "gaussian_smooth" and self.lam2 <= 0:
            raise ValueError("gaussian_smooth lam2 must be positive")
        if self.kind in ("power_decay", "log_decay") and self.amp <= 0:
            raise ValueError("decay amplitude must be positive")
        if self.kind == "power_decay" and not 0 < self.alpha_cov <= 2:
            raise ValueError("power_decay exponent must lie in (0, 2]")
        if self.kind == "table":
            if not self.table:
                raise ValueError("table model needs a non-empty lag table")
            lags = [t for t, _ in self.table]
            if lags != sorted(lags) or len(set(lags)) != len(lags):
                raise ValueError("table lags must be strictly increasing")
            if lags[0] != 0.0:
                raise ValueError("table must tabulate lag 0")
            if abs(self.table[0][1] - 1.0) > 1e-12:
                raise ValueError("table must have phi(0) = 1")
            if any(abs(v) > 1.0 + 1e-12 for _, v in self.table):
                raise ValueError("|phi| must not exceed 1")

    def to_dict(self) -> dict:
        """The model as a JSON object, which :meth:`from_dict` reads back."""
        obj: dict = {"kind": self.kind}
        params = {name: getattr(self, name) for name in KIND_PARAMS[self.kind]}
        if params:
            obj["params"] = params
        if self.table is not None:
            obj["table"] = [list(p) for p in self.table]
        return obj

    @classmethod
    def from_json(cls, text: str) -> "CovarianceModel":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, obj) -> "CovarianceModel":
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind not in KINDS:
            raise ValueError(f"unknown covariance kind {kind!r}")
        unknown = sorted(set(obj) - {"kind", "params", "table"})
        if unknown:
            raise ValueError(
                f"unknown covariance model key(s) {unknown}; model parameters "
                'belong under "params"'
            )
        if "table" in obj and kind != "table":
            raise ValueError(f"{kind} takes no 'table'")
        params = dict(obj.get("params", {}))
        foreign = sorted(set(params) - set(KIND_PARAMS[kind]))
        if foreign:
            raise ValueError(f"{kind} takes no parameter(s) {foreign}; "
                             f"its parameters are {list(KIND_PARAMS[kind])}")
        for name, value in params.items():
            try:
                params[name] = float(value)
            except (TypeError, ValueError):
                raise ValueError(f"{kind} parameter {name!r} must be a number, "
                                 f"got {value!r}") from None
        table = obj.get("table")
        if table is not None:
            table = tuple((float(t), float(v)) for t, v in table)
        return cls(kind=kind, table=table, **params)


def evaluate(model: CovarianceModel, t):
    """Evaluate phi at nonnegative lag(s) t.  Accepts scalars or arrays."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("lags must be nonnegative")
    if model.kind == "iid":
        out = np.where(t_arr == 0, 1.0, 0.0)
    elif model.kind == "ornstein_uhlenbeck":
        out = np.exp(-model.rate * t_arr)
    elif model.kind == "gaussian_smooth":
        out = np.exp(-model.lam2 * t_arr**2 / 2.0)
    elif model.kind == "power_decay":
        out = 1.0 / (1.0 + model.amp * t_arr**model.alpha_cov)
    elif model.kind == "log_decay":
        out = 1.0 / (1.0 + model.amp * np.log1p(t_arr))
    else:  # table
        lags = np.array([p[0] for p in model.table])
        vals = np.array([p[1] for p in model.table])
        if np.any(t_arr > lags[-1] + 1e-12):
            bad = float(np.max(t_arr))
            raise TableRangeError(
                f"lag {bad} outside tabulated range [0, {lags[-1]}]; "
                "table models do not extrapolate"
            )
        out = np.interp(t_arr, lags, vals)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


DEFAULT_PROBE_GRID = np.geomspace(2.0, 1e6, 200)
BERMAN_TOL = 0.05


@dataclass
class HypothesisReport:
    nonincreasing: bool
    phi1_lt_half: bool
    berman_ok: bool
    berman_witness: float
    probe_grid: np.ndarray = field(repr=False)
    details: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return self.nonincreasing and self.phi1_lt_half and self.berman_ok


def check_hypotheses(model: CovarianceModel, probe_grid=None) -> HypothesisReport:
    """Numerically check the monotonicity / mixing hypotheses on a grid.

    Failures are report contents, not errors.  ``berman_ok`` is a numeric
    proxy for phi(t) log t -> 0: it checks that |phi log| stays below a
    small tolerance on the last quarter of the probe grid.  The grid is
    recorded so the check is reproducible.
    """
    if probe_grid is None:
        grid = DEFAULT_PROBE_GRID
    else:
        grid = np.asarray(probe_grid, dtype=float)
        if grid.size == 0 or np.any(np.diff(grid) <= 0):
            raise ValueError("probe grid must be non-empty and increasing")

    details: dict = {}

    # table grids may extend past the tabulated range; clamp the probes
    if model.kind == "table":
        tmax = model.table[-1][0]
        grid = grid[grid <= tmax]
        details["probe_clamped_to"] = tmax

    full = np.concatenate([[0.0, 1.0], grid]) if grid.size else np.array([0.0, 1.0])
    full = np.unique(full)
    phi_full = np.atleast_1d(evaluate(model, full))

    diffs = np.diff(phi_full)
    nonincreasing = bool(np.all(diffs <= 1e-12))
    if not nonincreasing:
        k = int(np.argmax(diffs > 1e-12))
        details["nonincreasing_witness"] = (float(full[k]), float(full[k + 1]))

    phi1 = evaluate(model, 1.0)
    phi1_lt_half = bool(phi1 < 0.5)
    details["phi1"] = float(phi1)

    if grid.size:
        w = np.abs(np.atleast_1d(evaluate(model, grid)) * np.log(grid))
        tail = w[3 * len(w) // 4 :]
        witness = float(np.max(tail)) if tail.size else float(np.max(w))
        berman_ok = witness < BERMAN_TOL
    else:
        witness = math.nan
        berman_ok = False
        details["berman_no_probes"] = True

    return HypothesisReport(
        nonincreasing=nonincreasing,
        phi1_lt_half=phi1_lt_half,
        berman_ok=berman_ok,
        berman_witness=witness,
        probe_grid=grid,
        details=details,
    )


def gram_matrix(model: CovarianceModel, points) -> np.ndarray:
    """Gram matrix Gamma[i, j] = phi(dist(p_i, p_j)) over distinct points.

    Points are scalars (1-d index sets) or rows in R^d.  Symmetry is exact
    by construction; positive semi-definiteness is the sampler's problem.
    Consecutive integers give the Toeplitz matrix of ``toeplitz_lags``,
    equal to the dense form because their distances are exact.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if (pts.shape[1] == 1 and n and float(pts[0, 0]).is_integer()
            and np.array_equal(pts[:, 0], pts[0, 0] + np.arange(n))):
        lags = toeplitz_lags(model, n)
        # row i is lags[i], ..., lags[1], lags[0], lags[1], ..., lags[n-1-i]
        both = np.concatenate([lags[:0:-1], lags])
        gram = np.lib.stride_tricks.sliding_window_view(both, n)[::-1].copy()
        np.fill_diagonal(gram, 1.0)
        return gram
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=-1))
    dist = 0.5 * (dist + dist.T)  # exact symmetry despite roundoff
    gram = np.atleast_2d(evaluate(model, dist))
    np.fill_diagonal(gram, 1.0)
    return gram


def toeplitz_lags(model: CovarianceModel, n: int, spacing: float = 1.0) -> np.ndarray:
    """phi at lags 0, h, ..., (n-1)h; first row of the sequence gram."""
    return np.atleast_1d(evaluate(model, spacing * np.arange(n)))
