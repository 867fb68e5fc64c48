import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from superconc.covariance import CovarianceModel
from superconc.experiments import (
    CSV_SLICE,
    EXPERIMENT_KINDS,
    ExperimentConfig,
    SchemaError,
    fmt,
    run,
    validate,
    write_csv,
)
from superconc.covering import (
    MC_RHO_MIN_PATHS,
    crossover_window,
    gaussian_tail_curve,
    tail_curve,
)
from superconc.sampler import CapacityError
from superconc.scantest import STREAM_BLOCK


def _cfg(tmp_path, **kw):
    """The config of ``kw`` over an iid variance scaling; sizes (16,) and
    batch 500 only for that kind, as another kind may not read them."""
    base = dict(
        kind="variance_scaling",
        model=CovarianceModel("iid"),
        seed=0,
        out=str(tmp_path / "out"),
        params={},
    )
    base.update(kw)
    if base["kind"] == "variance_scaling":
        base = {"sizes": (16,), "batch": 500, **base}
    return ExperimentConfig(**base)


def test_fmt_round_trips_floats():
    for x in (1 / 3, math.pi, 1e-300, 123456789.123456789, 0.1):
        assert float(fmt(x)) == x
    assert fmt(7) == "7"
    assert fmt(np.int64(7)) == "7"


def test_config_dict_round_trip(tmp_path):
    cfg = _cfg(tmp_path, params={"alpha": 0.5})
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_config_requires_kind():
    with pytest.raises(SchemaError, match="kind"):
        ExperimentConfig.from_dict({})


def test_config_bad_model_named():
    with pytest.raises(SchemaError, match="model"):
        ExperimentConfig.from_dict({"kind": "variance_scaling", "model": {"kind": "bogus"}})


def test_config_rejects_unknown_fields():
    with pytest.raises(SchemaError, match="'size'"):
        ExperimentConfig.from_dict({"kind": "variance_scaling", "size": [64]})


def test_config_coercion_errors_name_the_field():
    with pytest.raises(SchemaError, match="field 'batch'"):
        ExperimentConfig.from_dict({"kind": "gumbel_convergence", "batch": "x"})
    with pytest.raises(SchemaError, match="field 'sizes'"):
        ExperimentConfig.from_dict({"kind": "gumbel_convergence", "sizes": 64})


def test_config_file_errors_name_the_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": ')
    with pytest.raises(SchemaError, match="bad.json"):
        ExperimentConfig.from_json_file(str(bad))
    with pytest.raises(SchemaError, match="absent.json"):
        ExperimentConfig.from_json_file(str(tmp_path / "absent.json"))


def test_params_the_kind_does_not_take(tmp_path):
    cfg = _cfg(tmp_path, kind="scan_risk", params={"trails": 5, "generator": "disjoint:4,4"})
    assert validate(cfg) == ["field 'params': scan_risk takes no ['trails']"]
    with pytest.raises(SchemaError, match=r"scan_risk takes no \['trails'\]"):
        run(cfg)
    assert not (tmp_path / "out").exists()


def test_validate_unknown_kind(tmp_path):
    diags = validate(_cfg(tmp_path, kind="nope"))
    assert len(diags) == 1
    assert "kind" in diags[0]
    for k in EXPERIMENT_KINDS:
        assert k in diags[0]


OU = CovarianceModel("ornstein_uhlenbeck", rate=1.0)
SMOOTH = CovarianceModel("gaussian_smooth", lam2=2.0)


def _refused(cfg) -> CapacityError:
    """The CapacityError a well-formed run raises, before it writes anything."""
    assert validate(cfg) == []
    with pytest.raises(CapacityError) as exc:
        run(cfg)
    assert exc.value.needed > exc.value.limit
    assert not Path(cfg.out).exists()
    return exc.value


def test_validate_capacity_estimate(tmp_path, monkeypatch):
    # validate reads no cap: the run refuses the smallest embedding of 4096
    # points, 4320 points at 32 bytes a path, before computing it
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", "1000")
    err = _refused(_cfg(tmp_path, model=OU, sizes=(4096,), batch=10**4))
    assert (err.needed, err.limit) == (138_240, 1000)


def test_validate_iid_maxima_draw_no_path(tmp_path):
    # one raw word and one bounded integer per path at any n; a sample still
    # draws its 10^8 points, and OU maxima embed them, over the 2 GiB cap
    cfg = _cfg(tmp_path, sizes=(10**8,), batch=1000)
    assert validate(cfg) == [] and run(cfg)["csv"].is_file()
    for cfg, need in ((_cfg(tmp_path / "s", kind="sample_paths", sizes=(10**8,), batch=1),
                       32 * 10**8),
                      (_cfg(tmp_path / "ou", model=OU, sizes=(10**8,), batch=1000),
                       32 * 100_663_296)):
        err = _refused(cfg)
        assert (err.needed, err.limit) == (need, 2**31)


def test_validate_builds_no_scan_class(tmp_path, monkeypatch):
    # validate reads a generator spec's numbers alone; the run refuses the
    # sets of the 10^6 - 9 windows of 10, 32 bytes an entry and the two
    # ramps they are summed from, before it makes them
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(10**6))
    cfg = _cfg(tmp_path, kind="scan_risk", params={"generator": "sliding:1000000,10"})
    tracemalloc.start()
    try:
        assert validate(cfg) == []
        validate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(CapacityError) as exc:
            run(cfg)
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    N, K = 10**6 - 9, 10
    assert validate_peak < 10**6
    assert (exc.value.needed, exc.value.limit) == (32 * N * K + 8 * (N + K), 10**6)
    assert run_peak < exc.value.needed
    assert str(exc.value).startswith("the sets of the sliding:1000000,10 class needs ~")
    assert not Path(cfg.out).exists()


def test_a_sample_row_is_written_a_slice_at_a_time(tmp_path):
    # one path of 10^6 iid points: the draw holds 8 MB, and neither the
    # header nor the row is formatted as a list of 10^6 strings
    cfg = _cfg(tmp_path, kind="sample_paths", sizes=(10**6,), batch=1, seed=3)
    tracemalloc.start()
    try:
        paths = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 10**6
    text = paths["csv"].read_bytes() + paths["summary"].read_bytes()
    assert hashlib.sha256(text).hexdigest().startswith("2094eb0c227d2f8f")


def test_write_csv_joins_its_slices(tmp_path):
    names = [f"x{i}" for i in range(2 * CSV_SLICE + 1)]
    rows = np.arange(3 * len(names)).reshape(3, -1) / 7.0
    write_csv(tmp_path / "d.csv", iter(names), rows)
    want = [",".join(names)] + [",".join(fmt(v) for v in row) for row in rows]
    assert (tmp_path / "d.csv").read_text() == "\n".join(want) + "\n"


def test_validate_field_needs_one_path_to_fit(tmp_path, monkeypatch):
    field = dict(kind="field_bound", model=SMOOTH,
                 params={"d": 2, "extent": 96.0, "growth_batch": 400})
    # one path of the 97 x 97 grid's 108 x 108 embedding needs ~373 KB, so
    # the growth stage draws a path at a time under 400 KB; the covering of
    # 1089 balls, 70 589 indices at 24 bytes each, does not fit
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(400_000))
    err = _refused(_cfg(tmp_path, **field))
    assert err.needed == 24 * 70_589 + 8 * 1090 and str(err).startswith("a covering of 1089")
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(350_000))
    assert _refused(_cfg(tmp_path, **field)).needed == 32 * 108 * 108
    # at spacing 0.5 the same 97 x 97 points embed at 120 x 120, ~461 KB a path
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(400_000))
    field["params"].update(extent=48.0, spacing=0.5)
    assert _refused(_cfg(tmp_path, **field)).needed == 32 * 120 * 120


def test_validate_counts_the_cholesky_factor(tmp_path, monkeypatch):
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(4 * 10**6))
    ou = CovarianceModel("ornstein_uhlenbeck", rate=1.0)
    # the OU gram and its factor at n = 768 need 9.4 MB; iid factors nothing,
    # and one path of the 4096-point circulant needs 138 KB.  A run factors
    # only its largest size, whose prefixes serve the others, so sizes 768
    # and 4096 factor the circulant alone
    for i, cfg in enumerate((_cfg(tmp_path, sizes=(768,)), _cfg(tmp_path, model=ou, sizes=(4096,)),
                             _cfg(tmp_path, model=ou, sizes=(768, 4096)))):
        cfg.out = str(tmp_path / f"run{i}")
        assert validate(cfg) == [] and run(cfg)["csv"].is_file()
    err = _refused(_cfg(tmp_path, model=ou, sizes=(512, 768)))
    assert (err.needed, err.limit) == (2 * 768**2 * 8, 4 * 10**6)
    assert str(err).startswith("the gram and Cholesky factor of 768 points")


@pytest.mark.parametrize("params", [{"spacing": 0.0}, {"d": 0}, {"d": 2, "extent": [4.0]},
                                    {"extent": 0.5}])
def test_validate_bad_field_grid(tmp_path, params):
    diags = validate(_cfg(tmp_path, kind="field_bound", params=params))
    # spacing is checked with the other positive params, the grid as a whole after
    field = "field 'params.spacing'" if "spacing" in params else "field 'params'"
    assert len(diags) == 1 and diags[0].startswith(field)


def test_validate_scan_trials_within_the_stream_block(tmp_path):
    scan = dict(kind="scan_risk", params={"generator": "disjoint:4,4", "mu": 1.0})
    scan["params"]["trials"] = STREAM_BLOCK
    assert validate(_cfg(tmp_path, **scan)) == []
    scan["params"]["trials"] = STREAM_BLOCK + 1
    diags = validate(_cfg(tmp_path, **scan))
    assert len(diags) == 1 and diags[0].startswith("field 'params.trials'")


def test_validate_reads_no_cap(monkeypatch):
    # a malformed cap is the run's CapacityError, where an array is sized
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", "abc")
    for kind in EXPERIMENT_KINDS:
        assert validate(ExperimentConfig(kind=kind)) == [], kind


def test_validate_bad_batch_and_sizes(tmp_path):
    diags = validate(_cfg(tmp_path, batch=0, sizes=(0,)))
    assert any("batch" in d for d in diags)
    assert any("sizes" in d for d in diags)


def test_validate_empty_sizes_only_where_read(tmp_path):
    assert any(d.startswith("field 'sizes'")
               for d in validate(_cfg(tmp_path, sizes=())))
    for kind, params in (("scan_risk", {"generator": "disjoint:4,4", "mu": 1.0}),
                         ("sign_vectors", {}),
                         ("field_bound", {"d": 2, "extent": 8.0}),
                         ("sample_paths", {"d": 2, "extent": 8.0})):
        assert validate(_cfg(tmp_path, kind=kind, sizes=(), params=params)) == []


def test_run_writes_three_files(tmp_path):
    paths = run(_cfg(tmp_path))
    assert paths["csv"].exists()
    assert paths["summary"].exists()
    assert paths["manifest"].exists()
    header = paths["csv"].read_text().splitlines()[0]
    assert header == "n,var,se,var_times_logn"
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["config"]["kind"] == "variance_scaling"
    assert "wall_time_s" in manifest


def test_run_rejects_invalid_config(tmp_path):
    with pytest.raises(SchemaError):
        run(_cfg(tmp_path, kind="nope"))


def test_rerun_is_byte_identical(tmp_path):
    a = run(_cfg(tmp_path, out=str(tmp_path / "a")))
    b = run(_cfg(tmp_path, out=str(tmp_path / "b")))
    assert a["csv"].read_bytes() == b["csv"].read_bytes()
    assert a["summary"].read_bytes() == b["summary"].read_bytes()


def test_gumbel_experiment(tmp_path):
    paths = run(_cfg(tmp_path, kind="gumbel_convergence", sizes=(32, 64), batch=300))
    rows = paths["csv"].read_text().splitlines()
    assert rows[0] == "n,ks,centering_gap"
    assert len(rows) == 3


def test_tail_bounds_experiment(tmp_path):
    cfg = _cfg(tmp_path, kind="tail_bounds", sizes=(64,), batch=4000,
               params={"t_max": 1.5, "t_points": 31})
    paths = run(cfg)
    summary = json.loads(paths["summary"].read_text())
    assert summary["n"] == 64
    assert "c_hat" in summary and "gaussian_r2" in summary


def test_laplace_experiment(tmp_path):
    cfg = _cfg(tmp_path, kind="laplace_check", sizes=(32,), batch=2000,
               params={"theta_points": 5})
    paths = run(cfg)
    summary = json.loads(paths["summary"].read_text())
    assert summary["per_n"][0]["n"] == 32
    assert summary["per_n"][0]["C_hat"] > 0


@pytest.mark.parametrize("kind, kw, crossing", [
    ("tail_bounds", dict(sizes=(64,), batch=4000), True),
    ("sequence_bound", dict(sizes=(1024,), params={"rho": "analytic"}), True),
    ("sequence_bound", dict(sizes=(256,), model=OU), False),
    ("field_bound", dict(model=SMOOTH, params={"d": 1, "extent": 32.0, "growth_batch": 50}),
     True),
    ("correlated_bound", dict(sizes=(100,)), True),
    ("correlated_bound", dict(sizes=(100,), params={"eps": 0.9}), False),
], ids=["tail", "sequence", "sequence-ou", "field", "correlated", "correlated-eps-0.9"])
def test_summary_crossover_window(tmp_path, kind, kw, crossing):
    summary = json.loads(run(_cfg(tmp_path, kind=kind, **kw))["summary"].read_text())
    K, c = summary["K"], summary["c_hat" if kind == "tail_bounds" else "c"]
    window = summary["crossover_window"]
    # the curves cross where a = c / sqrt(K) has a^2 > 2 log 3
    assert (c * c / K > 2 * math.log(3)) == crossing
    if not crossing:
        assert window is None
        return
    assert window == list(crossover_window(K, c))
    np.testing.assert_allclose(tail_curve(K, c, window), gaussian_tail_curve(window),
                               rtol=1e-12)


def test_scan_experiment_generator_parse(tmp_path):
    cfg = _cfg(tmp_path, kind="scan_risk",
               params={"generator": "disjoint:4,4", "trials": 100, "mu": 2.0})
    paths = run(cfg)
    summary = json.loads(paths["summary"].read_text())
    assert summary["N"] == 4 and summary["K"] == 4
    assert 0 <= summary["risk"] <= 2
    rows = paths["csv"].read_text().splitlines()
    assert rows[0] == "delta,threshold_prop51,threshold_prop52"


def test_scan_experiment_bad_generator(tmp_path):
    cfg = _cfg(tmp_path, kind="scan_risk",
               params={"generator": "spiral:4,4", "trials": 10})
    with pytest.raises(SchemaError, match="generator"):
        run(cfg)


def test_scan_experiment_explicit_sets(tmp_path):
    cfg = _cfg(tmp_path, kind="scan_risk",
               params={"n": 6, "sets": [[0, 1], [2, 3], [4, 5]],
                       "trials": 100, "mu": 2.0})
    summary = json.loads(run(cfg)["summary"].read_text())
    assert summary["N"] == 3 and summary["K"] == 2


def test_sign_vectors_experiment(tmp_path):
    cfg = _cfg(tmp_path, kind="sign_vectors",
               params={"n": 64, "N_target": 6})
    summary = json.loads(run(cfg)["summary"].read_text())
    assert summary["found"] == 6
    assert not summary["saturated"]
    assert 0 < summary["pair_pass_rate"] <= 1


def test_field_bound_experiment(tmp_path):
    cfg = _cfg(tmp_path, kind="field_bound", model=SMOOTH,
               params={"d": 1, "extent": 32.0, "growth_batch": 50})
    summary = json.loads(run(cfg)["summary"].read_text())
    assert summary["N_A"] == 16
    assert summary["c1"] <= summary["c2"]


def test_validate_monte_carlo_rho_batch(tmp_path):
    seq = dict(kind="sequence_bound", model=OU, sizes=(64,))
    assert validate(_cfg(tmp_path, batch=MC_RHO_MIN_PATHS, **seq)) == []
    diags = validate(_cfg(tmp_path, batch=MC_RHO_MIN_PATHS - 1, **seq))
    assert len(diags) == 1 and diags[0].startswith("field 'batch'")
    assert validate(_cfg(tmp_path, params={"rho": "analytic"}, **seq)) == []


def test_validate_accepts_a_list_extent(tmp_path):
    assert validate(_cfg(tmp_path, kind="field_bound", params={"d": 2, "extent": [8.0, 4]})) == []
