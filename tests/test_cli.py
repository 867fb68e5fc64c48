import argparse
import ast
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import superconc
from superconc import rng
from superconc.cli import main
from superconc.sampler import CapacityError, draw_rows, make_plan, sample_sequence
from superconc.covariance import CovarianceModel
from superconc.experiments import ExperimentConfig, run, validate

OU_JSON = '{"kind": "ornstein_uhlenbeck", "params": {"rate": 1.0}}'


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def _csv(path):
    """The header of a data.csv and its rows parsed with float."""
    header, *rows = path.read_text().splitlines()
    return header.split(","), np.array([[float(v) for v in row.split(",")] for row in rows])


def test_sample_round_trip(tmp_path, capsys):
    out = tmp_path / "paths"
    rc = main(["--seed", "3", "--out", str(out), "sample", "--cov", OU_JSON,
               "--n", "16", "--batch", "4"])
    assert rc == 0
    header, paths = _csv(out / "data.csv")
    assert header == [f"x{i}" for i in range(16)]
    direct = sample_sequence(CovarianceModel("ornstein_uhlenbeck", rate=1.0),
                             16, 4, seed=3)
    assert np.array_equal(paths, direct.paths)
    assert json.loads(capsys.readouterr().out) == {
        "n": 16, "shape": [16], "spacing": 1.0, "batch": 4, "method": "cholesky"}


def test_sample_cov_from_file(tmp_path):
    cov_file = tmp_path / "model.json"
    cov_file.write_text(OU_JSON)
    out = tmp_path / "p"
    assert main(["--out", str(out), "sample", "--cov", str(cov_file),
                 "--n", "8", "--batch", "2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["model"]["kind"] == "ornstein_uhlenbeck"


@pytest.mark.parametrize("argv, shape, spacing, method", [
    (["--n", "32"], (32,), 1.0, None),
    (["--n", "32", "--method", "circulant"], (32,), 1.0, "circulant"),
    (["--d", "2", "--extent", "3", "--spacing", "0.5"], (7, 7), 0.5, None),
], ids=["cholesky", "circulant", "grid"])
def test_sample_data_is_the_draw(tmp_path, capsys, argv, shape, spacing, method):
    out = tmp_path / "s"
    assert main(["--seed", "11", "--out", str(out), "sample", "--cov", OU_JSON,
                 "--batch", "5", *argv]) == 0
    plan = make_plan(CovarianceModel("ornstein_uhlenbeck", rate=1.0), shape, spacing, method)
    _, paths = _csv(out / "data.csv")
    assert np.array_equal(paths, draw_rows(plan, 5, 11))
    summary = json.loads(capsys.readouterr().out)
    assert summary["shape"] == list(shape) and summary["spacing"] == spacing
    assert summary["method"] == plan.method


@pytest.mark.parametrize("n", [16, 1000])
@pytest.mark.parametrize("method", [[], ["--method", "cholesky"], ["--method", "circulant"]],
                         ids=["default", "cholesky", "circulant"])
def test_iid_sample_names_no_factorization(tmp_path, capsys, n, method):
    # an iid plan draws raw noise at any size, whatever method is asked for
    out = tmp_path / "s"
    assert main(["--seed", "3", "--out", str(out), "sample", "--cov", '{"kind": "iid"}',
                 "--n", str(n), "--batch", "2", *method]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "iid"
    assert np.array_equal(_csv(out / "data.csv")[1], rng.normal_rows(3, 2, n))


def test_commands_share_the_default_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    verify = ["verify", "variance_scaling", "--sizes", "16", "--batch", "50"]
    for argv in (verify, ["sample", "--n", "8", "--batch", "2"], verify):
        assert main(argv) == 0
    assert (tmp_path / "out" / "data.csv").is_file()


@pytest.mark.parametrize("argv, named", [
    (["--n", "0"], "field 'sizes'"),
    (["--batch", "0"], "field 'batch'"),
    (["--d", "2", "--extent", "0.5"], "field 'params': extent/spacing"),
    (["--d", "2", "--n", "16"], "field 'sizes': a sample with params.d"),
    (["--extent", "5"], "field 'params.extent': a sample without params.d"),
    (["--spacing", "-1", "--cov", OU_JSON], "field 'params.spacing': -1.0 is not a positive"),
    (["--spacing", "0", "--cov", OU_JSON], "field 'params.spacing': 0.0 is not a positive"),
    (["--d", "2", "--spacing", "0"], "field 'params.spacing': 0.0 is not a positive"),
], ids=["n", "batch", "extent", "n-with-d", "extent-without-d", "spacing-negative",
        "spacing-zero", "spacing-zero-with-d"])
def test_sample_mistake_exit_code(tmp_path, capsys, argv, named):
    out = tmp_path / "o"
    assert main(["--out", str(out), "sample", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not out.exists()


STUBBORN = [[0, 1], [1, 0.9], [2, 0], [1000, 0]]  # as in test_embedding_failure_reports_sizes


@pytest.mark.parametrize("argv, named", [
    (["verify", "variance_scaling", "--sizes", "64", "--batch", "50", "--cov",
      json.dumps({"kind": "table", "table": [[0, 1], [1, 0.4]]})],
     "lag 63.0 outside tabulated range [0, 1.0]"),
    (["verify", "variance_scaling", "--sizes", "64", "--batch", "50", "--cov",
      json.dumps({"kind": "table", "table": STUBBORN[:3] + [[100000, 0]]})],
     "leading minor of order 3 fails Cholesky"),
    (["sample", "--method", "circulant", "--n", "3", "--cov",
      json.dumps({"kind": "table", "table": STUBBORN})],
     "most negative eigenvalue -8.000e-01"),
], ids=["table-range", "cholesky", "embedding"])
def test_model_the_lattice_rules_out_exit_code(tmp_path, capsys, argv, named):
    out = tmp_path / "o"
    assert main(["--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not out.exists()


def test_bound_sequence_json_and_csv(tmp_path, capsys):
    out = tmp_path / "b"
    rc = main(["--out", str(out), "bound", "--pipeline", "sequence", "--n", "1024",
               "--rho", "analytic"])
    assert rc == 0
    stdout = capsys.readouterr().out
    report = json.loads(stdout)
    assert report["pipeline"] == "sequence"
    assert report["rho"] == 1 / 1024 and report["rho_se"] == 0.0
    assert report["K"] == report["K_paper"] == 1 / math.log(1024)
    assert (out / "summary.json").read_text() == stdout
    lines = (out / "data.csv").read_text().splitlines()
    assert lines[0] == "t,bound,gaussian_bound"
    first = float(lines[1].split(",")[1])
    assert first == pytest.approx(6.0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["kind"] == "sequence_bound"
    assert manifest["config"]["sizes"] == [1024]
    # the iid rho is exact on the default route too
    mc = tmp_path / "mc"
    assert main(["--out", str(mc), "bound", "--n", "1024"]) == 0
    assert capsys.readouterr().out == stdout
    assert (mc / "data.csv").read_bytes() == (out / "data.csv").read_bytes()


def test_bound_correlated(tmp_path, capsys):
    rc = main(["--out", str(tmp_path / "b"), "bound", "--pipeline", "correlated",
               "--eps", "0.2", "--n", "100"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["K"] == pytest.approx(max(0.2, 1 / math.log(100)))
    curve = (tmp_path / "b" / "data.csv").read_text()
    assert curve.startswith("t,bound,gaussian_bound\n0,6,2\n")


def test_verify_variance_scaling(tmp_path, capsys):
    out = str(tmp_path / "exp")
    rc = main(["--seed", "1", "--out", out, "verify", "variance_scaling",
               "--sizes", "16", "32", "--batch", "400"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert len(summary["per_n"]) == 2
    assert (tmp_path / "exp" / "data.csv").exists()
    assert (tmp_path / "exp" / "manifest.json").exists()


def test_verify_without_sizes_takes_the_config_default(tmp_path, capsys):
    # tail_bounds reads sizes[0] alone, so verify sets no sizes of its own
    assert main(["--out", str(tmp_path / "t"), "verify", "tail_bounds", "--batch", "2000"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == ExperimentConfig.sizes[0]


def test_scan_subcommand(tmp_path, capsys):
    out = str(tmp_path / "scan")
    rc = main(["--out", out, "scan", "--generator", "disjoint:4,4",
               "--mu", "2.0", "--trials", "100"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["mu"] == 2.0
    assert "risk" in summary


def test_scan_class_file(tmp_path, capsys):
    cls = tmp_path / "class.json"
    cls.write_text(json.dumps({"n": 6, "sets": [[0, 1], [2, 3], [4, 5]]}))
    out = str(tmp_path / "scan")
    rc = main(["--out", out, "scan", "--class", str(cls), "--mu", "2.0",
               "--trials", "100"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["N"] == 3


def test_gumbel_subcommand(tmp_path, capsys):
    out = str(tmp_path / "g")
    rc = main(["--out", out, "gumbel", "--sizes", "32", "--batch", "300"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["per_n"][0]["n"] == 32


def test_signvec_subcommand(tmp_path, capsys):
    out = str(tmp_path / "sv")
    rc = main(["--out", out, "signvec", "--n", "64", "--N", "5"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["found"] == 5


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv, key, also", [
    # rho = 1: the bound is degenerate and K = 1 / (1 - rho) infinite
    (["bound", "--cov", OU_JSON, "--rho", "analytic", "--alpha", "0.1", "--n", "1024"], "K",
     {"degenerate": True}),
    # one try finds one vector and tests no pair, so the pass rate is 0 / 0
    (["signvec", "--n", "20", "--N", "5", "--max-tries", "1"], "pair_pass_rate",
     {"tries": 1, "pair_tests": 0}),
], ids=["infinite-K", "nan-pair-pass-rate"])
def test_summary_writes_a_non_finite_float_as_null(tmp_path, capsys, argv, key, also):
    out = tmp_path / "o"
    assert main(["--out", str(out), *argv]) == 0
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_not_json)
    assert summary[key] is None
    assert {k: summary[k] for k in also} == also
    assert json.loads(capsys.readouterr().out, parse_constant=_not_json) == summary


def test_signvec_numeric_threshold_on_both_routes(tmp_path, capsys):
    # scan_risk's threshold choices do not apply to sign_vectors' threshold
    assert main(["--out", str(tmp_path / "a"), "signvec", "--n", "16", "--N", "4",
                 "--threshold", "30"]) == 0
    assert json.loads(capsys.readouterr().out)["threshold"] == 30
    config = {"kind": "sign_vectors", "params": {"n": 16, "N_target": 4, "threshold": 30}}
    argv = ["--out", str(tmp_path / "b"), "--config", _config_file(tmp_path, json.dumps(config))]
    assert main(argv) == 0


def test_config_file_run(tmp_path, capsys):
    cfg = {
        "kind": "variance_scaling",
        "sizes": [16],
        "batch": 300,
        "seed": 5,
        "out": str(tmp_path / "from_config"),
    }
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_file)]) == 0
    capsys.readouterr()
    # flag overrides the config seed; different seed, different estimate
    assert main(["--config", str(cfg_file), "--seed", "6",
                 "--out", str(tmp_path / "override")]) == 0
    a = json.loads((tmp_path / "from_config" / "summary.json").read_text())
    b = json.loads((tmp_path / "override" / "summary.json").read_text())
    assert a["per_n"][0]["var"] != b["per_n"][0]["var"]


def test_bad_config_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({"sizes": [16]}))  # missing kind
    assert main(["--config", str(cfg_file)]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_cov_exit_code(tmp_path, capsys):
    flat = '{"kind": "ornstein_uhlenbeck", "rate": 2.0}'
    assert main(["--out", str(tmp_path / "o"), "sample", "--cov", flat,
                 "--n", "4", "--batch", "1"]) == 2
    assert "config error: --cov" in capsys.readouterr().err


def test_missing_cov_file_exit_code(tmp_path, capsys):
    assert main(["--out", str(tmp_path / "o"), "sample", "--cov",
                 str(tmp_path / "absent.json"), "--n", "4", "--batch", "1"]) == 2
    assert "config error: --cov" in capsys.readouterr().err


# the gram and its Cholesky factor need 16 n^2 bytes: 9.4 MB at n = 768 and
# 8.5 MB for a 27 x 27 grid, the largest lattices Cholesky still factors by
# default, while one path needs under 25 KB
LOW_CAP = str(4 * 10**6)


@pytest.mark.parametrize("cap", ["abc", "", "1e9", "-5"])
def test_malformed_cap_exit_code(tmp_path, capsys, monkeypatch, cap):
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", cap)
    assert main(["--out", str(tmp_path / "vs"), "verify", "variance_scaling",
                 "--cov", OU_JSON, "--sizes", "16", "--batch", "50"]) == 2
    assert capsys.readouterr().err == (
        f"config error: capacity: SUPERCONC_CAP_BYTES={cap!r} is not a positive "
        "whole number of bytes\n")
    assert not (tmp_path / "vs").exists()


def test_sequence_factor_over_a_low_cap_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", LOW_CAP)
    assert main(["--out", str(tmp_path / "vs"), "verify", "variance_scaling",
                 "--cov", OU_JSON, "--sizes", "768"]) == 2
    assert "config error: capacity" in capsys.readouterr().err


def test_field_factor_over_a_low_cap_exit_code(tmp_path, capsys, monkeypatch):
    cfg_file = tmp_path / "field26.json"
    cfg_file.write_text(json.dumps({
        "kind": "field_bound", "out": str(tmp_path / "f"),
        "model": {"kind": "gaussian_smooth", "params": {"lam2": 2.0}},
        "params": {"d": 2, "extent": 26.0},
    }))
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", LOW_CAP)
    assert main(["--config", str(cfg_file)]) == 2
    assert "config error: capacity" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bound", "sample"])
def test_sequence_command_over_a_low_cap_exit_code(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", LOW_CAP)
    assert main(["--out", str(tmp_path / "o"), command, "--cov", OU_JSON,
                 "--n", "768"]) == 2
    assert "config error: capacity: " in capsys.readouterr().err


FAST_OU = '{"kind": "ornstein_uhlenbeck", "params": {"rate": 5.0}}'
# bounds that are closed forms in n: no draw and no covering's sets; a case
# at 2048 points goes by its bare name
DRAWS_NOTHING = {
    "correlated": ["--pipeline", "correlated"],
    "iid": [],
    "iid-analytic": ["--rho", "analytic"],
    "analytic-rho": ["--cov", FAST_OU, "--rho", "analytic", "--alpha", "0.2"],
}


@pytest.mark.parametrize("argv, n", [
    pytest.param(argv, n, id=name if n == 2048 else f"{name}-{n:.0e}")
    for name, argv in DRAWS_NOTHING.items() for n in (2048, 10**8, 10**12)])
def test_bound_that_draws_nothing_ignores_the_cap(tmp_path, capsys, monkeypatch, argv, n):
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(10**6))
    out = tmp_path / "b"
    assert main(["--out", str(out), "bound", "--n", str(n), *argv]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == n
    config = json.loads((out / "manifest.json").read_text())["config"]
    cfg = ExperimentConfig.from_dict({**config, "out": str(tmp_path / "traced")})
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (tmp_path / "traced" / "summary.json").read_bytes() == (
        out / "summary.json").read_bytes()


def test_correlated_bound_over_a_low_cap_exit_code(tmp_path, capsys, monkeypatch):
    # 10^6 singletons as index arrays would need 16 MB; the report carries
    # their numbers and builds none of them
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", LOW_CAP)
    assert main(["--out", str(tmp_path / "b"), "bound", "--pipeline", "correlated",
                 "--n", str(10**6)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["covering_blocks"], summary["covering_multiplicity"],
            summary["covering_provenance"]) == (10**6, 1, "singletons")
    assert json.loads((tmp_path / "b" / "summary.json").read_text()) == summary


def test_field_bound_past_int64_covering_number_exit_code(tmp_path, capsys):
    # N(A) = (5 * 10^6)^3 is past int64; the run is refused at its lattice
    assert main(["--out", str(tmp_path / "f"), "bound", "--pipeline", "field", "--d", "3",
                 "--extent", "10000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: capacity: the points of the "
                          "(10000001, 10000001, 10000001) lattice needs ~")
    assert err.count("\n") == 1
    assert not (tmp_path / "f").exists()


# runs that validate accepts but whose factor, embedding search, draw or
# scan class is over the cap: the cap (None for the default 2 GiB) and the
# config fields.  The 97 x 97 field's search of its 108 x 108 embedding holds
# ~568 KB; the sample draws 10^8 points at 32 bytes each; the sliding class
# holds 32 bytes an entry of its 10^6 - 9 windows of 10
OVER_THE_CAP = {
    "ou-per-size-cholesky": (4 * 10**6, dict(
        kind="variance_scaling", model=CovarianceModel.from_json(OU_JSON), sizes=(768,))),
    "smooth-field-covering": (400_000, dict(
        kind="field_bound", model=CovarianceModel("gaussian_smooth", lam2=2.0),
        params={"d": 2, "extent": 96.0})),
    "iid-sample": (None, dict(kind="sample_paths", sizes=(10**8,), batch=1)),
    "scan-sliding-class": (10**6, dict(kind="scan_risk",
                                       params={"generator": "sliding:1000000,10"})),
}


def test_an_iid_field_counts_its_balls_under_a_low_cap(tmp_path, monkeypatch):
    # the 301 x 301 iid field draws nothing and counts its 10 201 balls, whose
    # 967 393 indices it never holds at once: under 10 MB it writes the
    # summary and data it writes under the default cap, within the cap
    fields = dict(kind="field_bound", params={"d": 2, "extent": 300.0})
    want = tmp_path / "default"
    assert main(["--config", _config_file(tmp_path, json.dumps(
        ExperimentConfig(out=str(want), **fields).to_dict()))]) == 0
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(10**7))
    out = tmp_path / "capped"
    tracemalloc.start()
    try:
        run(ExperimentConfig(out=str(out), **fields))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**7
    for name in ("summary.json", "data.csv"):
        assert (out / name).read_bytes() == (want / name).read_bytes()
    assert json.loads((out / "summary.json").read_text())["covering_blocks"] == 10_201


@pytest.mark.parametrize("cap, fields", OVER_THE_CAP.values(), ids=OVER_THE_CAP)
def test_a_run_over_the_cap_is_refused_before_it_allocates(tmp_path, capsys, monkeypatch,
                                                          cap, fields):
    if cap:
        monkeypatch.setenv("SUPERCONC_CAP_BYTES", str(cap))
    out = tmp_path / "o"
    cfg = ExperimentConfig(out=str(out), **fields)
    assert validate(cfg) == []
    # the CLI runs first, which also fills numpy's FFT plan cache; the cache
    # outlives a run, so the traced run below holds only its own arrays
    assert main(["--config", _config_file(tmp_path, json.dumps(cfg.to_dict()))]) == 2
    err = capsys.readouterr().err
    assert not out.exists()
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as exc:
            run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err == f"config error: capacity: {exc.value}\n"
    assert exc.value.limit == (cap or 2**31) < exc.value.needed
    assert peak < exc.value.needed
    assert not out.exists()


# Cholesky factors these tables at 1000 points, but no circulant embeds them:
# one turns to -1 past the lattice's lags, the other ends at lag 999 above
# 2^-53, short of the 2000-point embedding's lag 1000
PD_HEAD = [[0, 1], [1, 0.5], [2, 0.2], [3, 0], [999, 0]]
NO_EMBEDDING = {"embedding": PD_HEAD + [[1000, -1], [64000, -1]],
                "table-range": PD_HEAD[:4] + [[998, 0], [999, 1e-3]]}


@pytest.mark.parametrize("table", NO_EMBEDDING.values(), ids=NO_EMBEDDING)
def test_sample_without_an_embedding_falls_back_to_cholesky(tmp_path, capsys, monkeypatch,
                                                           table):
    cov = json.dumps({"kind": "table", "table": table})
    out = tmp_path / "s"
    assert main(["--out", str(out), "sample", "--cov", cov, "--n", "1000",
                 "--batch", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "cholesky"
    plan = make_plan(CovarianceModel.from_json(cov), (1000,), method="cholesky")
    assert np.array_equal(_csv(out / "data.csv")[1], draw_rows(plan, 2, 0))
    assert main(["--out", str(tmp_path / "c"), "sample", "--cov", cov, "--n", "1000",
                 "--batch", "2", "--method", "circulant"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", LOW_CAP)  # the fallback needs 16 MB
    assert main(["--out", str(tmp_path / "l"), "sample", "--cov", cov, "--n", "1000",
                 "--batch", "2"]) == 2
    assert "config error: capacity: " in capsys.readouterr().err


def test_config_typo_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "typo.json"
    cfg_file.write_text(json.dumps({"kind": "variance_scaling", "size": [64]}))
    assert main(["--config", str(cfg_file)]) == 2
    assert "'size'" in capsys.readouterr().err


def test_scan_trials_above_the_stream_block_exit_code(tmp_path, capsys):
    assert main(["--out", str(tmp_path / "scan"), "scan", "--trials",
                 str(10**6 + 1)]) == 2
    assert "config error: field 'params.trials'" in capsys.readouterr().err


# each of these ran until the threshold raised, and exited 1 with a traceback
@pytest.mark.parametrize("argv, params, named", [
    (["--delta", "0"], None, "field 'params.delta': 0.0 is outside (0, 2] of prop51"),
    (["--threshold", "prop52", "--delta", "7"], None,
     "field 'params.delta': 7.0 is outside (0, 6] of prop52"),
    (["--threshold", "prop52", "--c", "-1"], None,
     "field 'params.c': -1.0 is not a positive number"),
    (None, {"delta_grid": [0.1, -1]},
     "field 'params.delta_grid': [0.1, -1] is not a list of deltas in (0, 6]"),
    (None, {"table_c": 0}, "field 'params.table_c': 0 is not a positive number"),
], ids=["delta-0", "prop52-delta-7", "prop52-c-negative", "delta-grid-negative",
        "table-c-0"])
def test_scan_param_out_of_range_exit_code(tmp_path, capsys, argv, params, named):
    out = tmp_path / "o"
    if argv is None:
        argv = ["--config", _config_file(tmp_path, json.dumps(
            {"kind": "scan_risk", "params": params}))]
    else:
        argv = ["scan", "--trials", "20", *argv]
    assert main(["--out", str(out), *argv]) == 2
    assert capsys.readouterr().err == f"config error: {named}\n"
    assert not out.exists()


# a ratio of 0 wrote rho = 1 beside a finite K, and one below 0 an s0 below
# the grid spacing; the bound subcommand has no flag for it
@pytest.mark.parametrize("ratio", [0, -0.5])
def test_field_exponent_ratio_not_above_0_exit_code(tmp_path, capsys, ratio):
    out = tmp_path / "o"
    config = {"kind": "field_bound", "model": {"kind": "gaussian_smooth", "params": {"lam2": 2.0}},
              "params": {"d": 1, "extent": 100.0, "exponent_ratio": ratio}}
    assert main(["--out", str(out), "--config", _config_file(tmp_path, json.dumps(config))]) == 2
    assert capsys.readouterr().err == (
        f"config error: field 'params.exponent_ratio': {ratio} is not a positive number\n")
    assert not out.exists()


@pytest.mark.parametrize("sets", [[[0.2, 0.7], [2, 3]], [[True, 2], [0, 3]]],
                         ids=["fractions", "bool"])
def test_scan_class_file_with_indices_that_are_not_whole_numbers_exit_code(tmp_path, capsys,
                                                                          sets):
    cls = tmp_path / "class.json"
    cls.write_text(json.dumps({"n": 4, "sets": sets}))
    out = tmp_path / "o"
    assert main(["--out", str(out), "scan", "--class", str(cls), "--mu", "1.0",
                 "--trials", "20"]) == 2
    assert capsys.readouterr().err.startswith("config error: field 'params.sets'")
    assert not out.exists()


def test_verify_has_no_alpha_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "vs"), "verify", "variance_scaling",
              "--alpha", "0.5"])
    assert exc.value.code == 2
    assert "--alpha" in capsys.readouterr().err


def test_field_config_bad_spacing_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "spacing0.json"
    cfg_file.write_text(json.dumps({"kind": "field_bound", "params": {"spacing": 0.0}}))
    assert main(["--config", str(cfg_file)]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_config_kind_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "bad2.json"
    cfg_file.write_text(json.dumps({"kind": "nope"}))
    assert main(["--config", str(cfg_file)]) == 2
    assert "config error" in capsys.readouterr().err


def _config_file(tmp_path, text):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(text)
    return str(cfg_file)


@pytest.mark.parametrize("text, named", [
    ('{"kind": "scan_risk", "params": {"trails": 5}}', "scan_risk takes no ['trails']"),
    ('{"kind": "scan_risk", "params": {"generator": "foo:1,2"}}', "field 'params.generator'"),
    ('{"kind": "gumbel_convergence", "batch": "x"}', "field 'batch'"),
    ('{"kind": "gumbel_convergence", "sizes": 64}', "field 'sizes'"),
    ('{"kind": "gumbel_convergence", "sizes": [64]', "cfg.json"),
    ('{"kind": "tail_bounds", "params": {"center": "median"}}', "field 'params.center'"),
    ('{"kind": "scan_risk", "params": {"trials": "x"}}', "field 'params.trials'"),
    ('{"kind": "scan_risk", "params": {"threshold": "prop53"}}', "field 'params.threshold'"),
    ('{"kind": "sequence_bound", "params": {"rho": "exact"}}', "field 'params.rho'"),
    ('{"kind": "field_bound", "params": {"t_max": null}}', "field 'params.t_max'"),
    ('{"kind": "field_bound", "params": {"d": 2, "extent": [8, "x"]}}',
     "field 'params.extent'"),
    ('{"kind": "sample_paths", "params": {"method": "magic"}}', "field 'params.method'"),
    ('{"kind": "field_bound", "params": {"growth_batch": 0}}',
     "field 'params.growth_batch': 0 is below 1"),
    ('{"kind": "field_bound", "params": {"d": 2.7, "extent": 8}}',
     "field 'params.d': 2.7 is not a whole number"),
    ('{"kind": "sample_paths", "params": {"d": 1.5}}',
     "field 'params.d': 1.5 is not a whole number"),
    ('{"kind": "tail_bounds", "params": {"t_points": 2.5}}',
     "field 'params.t_points': 2.5 is not a whole number"),
    ('{"kind": "scan_risk", "params": {"mu": "x"}}', "field 'params.mu': 'x' is not a number"),
    ('{"kind": "tail_bounds", "params": {"K": "x"}}', "field 'params.K': 'x' is not a number"),
    ('{"kind": "field_bound", "params": {"exponent_ratio": "x"}}',
     "field 'params.exponent_ratio': 'x' is not a number"),
    ('{"kind": "sign_vectors", "params": {"threshold": "x"}}',
     "field 'params.threshold': 'x' is not a number"),
    ('{"kind": "laplace_check", "sizes": [64], "params": {"K": 0}}',
     "field 'params.K': 0 is not a positive number"),
    ('{"kind": "tail_bounds", "sizes": [64], "params": {"K": -1}}',
     "field 'params.K': -1 is not a positive number"),
], ids=["unknown-param", "bad-generator", "bad-batch", "bad-sizes", "malformed-json",
        "center-outside-choices", "non-numeric-trials", "threshold-outside-choices",
        "rho-outside-choices", "null-number", "non-numeric-extent",
        "method-outside-choices", "growth-batch", "fractional-field-d",
        "fractional-sample-d", "fractional-count", "non-numeric-mu", "non-numeric-K",
        "non-numeric-exponent-ratio", "non-numeric-signvec-threshold", "laplace-K-0",
        "tail-K-negative"])
def test_config_mistake_exit_code(tmp_path, capsys, text, named):
    argv = ["--out", str(tmp_path / "o"), "--config", _config_file(tmp_path, text)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err


@pytest.mark.parametrize("argv, named", [
    (["verify", "variance_scaling", "--theta-points", "5"], "['theta_points']"),
    (["verify", "laplace_check", "--t-max", "3"], "['t_max']"),
], ids=["theta-points", "t-max"])
def test_flag_the_kind_does_not_read_exit_code(tmp_path, capsys, argv, named):
    assert main(["--out", str(tmp_path / "o"), *argv, "--sizes", "16", "--batch", "50"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: field 'params': ") and named in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cov", [
    '{"kind": "gaussian_smooth", "params": {"rate": 2.0}}',
    '{"kind": "iid", "params": {"foo": 1}}',
    '{"kind": "iid", "table": [[0, 1.0]]}',
    '{"kind": "ornstein_uhlenbeck", "params": {"rate": "x"}}',
    '{"kind": "bogus"}',
], ids=["foreign-param", "unknown-param", "table-on-iid", "non-numeric", "unknown-kind"])
def test_cov_mistake_exit_code(tmp_path, capsys, cov):
    assert main(["--out", str(tmp_path / "o"), "sample", "--cov", cov,
                 "--n", "4", "--batch", "1"]) == 2
    assert capsys.readouterr().err.startswith("config error: --cov: ")


# the kinds of configs/variance_scaling.json and configs/tail_comparison.json,
# whose subcommands take a --cov
@pytest.mark.parametrize("kind", ["variance_scaling", "tail_bounds"])
@pytest.mark.parametrize("cov", ['{"kind": "bogus"}', "absent.json"],
                         ids=["unknown-kind", "missing-file"])
def test_verify_bad_cov_is_a_usage_error(tmp_path, capsys, monkeypatch, kind, cov):
    monkeypatch.chdir(tmp_path)
    assert main(["--out", str(tmp_path / "o"), "verify", kind, "--cov", cov,
                 "--sizes", "64", "--batch", "50"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --cov: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_every_experiment_flag_names_a_param_of_its_kind():
    from superconc.cli import _cmd_experiment, build_parser
    from superconc.experiments import PARAMS

    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    # flags that set config fields rather than params
    config_flags = {"help", "kind", "pipeline", "cov", "sizes", "batch"}
    seen = 0
    for name, parser in sub.choices.items():
        if parser.get_default("fn") is not _cmd_experiment:
            continue
        choices = {a.dest: a.choices for a in parser._actions}
        if parser.get_default("kind"):
            kinds = [parser.get_default("kind")]
        elif "pipeline" in choices:
            kinds = [f"{p}_bound" for p in choices["pipeline"]]
        else:
            kinds = choices["kind"]
        taken = set().union(*(PARAMS[k] for k in kinds))
        for action in parser._actions:
            if action.dest == "cls":  # --class supplies n and sets
                assert {"n", "sets"} <= taken
            elif action.dest not in config_flags:
                assert action.dest in taken, (name, action.option_strings)
                seen += 1
    assert seen == 25  # sample 4, bound 9, verify 2, scan 6, signvec 4


# each mistake, through its subcommand and the same config file
@pytest.mark.parametrize("argv, config, named", [
    (["scan", "--generator", "disjoint:abc"],
     {"kind": "scan_risk", "params": {"generator": "disjoint:abc"}},
     "field 'params.generator': 'disjoint:abc': invalid literal"),
    (["scan", "--generator", "disjoint:3"],
     {"kind": "scan_risk", "params": {"generator": "disjoint:3"}},
     "field 'params.generator': 'disjoint:3': not enough values"),
    (["scan", "--generator", "sliding:10,20"],
     {"kind": "scan_risk", "params": {"generator": "sliding:10,20"}},
     "field 'params.generator': 'sliding:10,20': need 1 <= K <= n - 1"),
    (["bound", "--t-points", "-1"], {"kind": "sequence_bound", "params": {"t_points": -1}},
     "field 'params.t_points': -1 is below 1"),
    (["verify", "laplace_check", "--theta-points", "0"],
     {"kind": "laplace_check", "params": {"theta_points": 0}},
     "field 'params.theta_points': 0 is below 1"),
    (["scan", "--trials", "0"], {"kind": "scan_risk", "params": {"trials": 0}},
     "field 'params.trials': 0 is below 1"),
    (["signvec", "--N", "1"], {"kind": "sign_vectors", "params": {"N_target": 1}},
     "field 'params.N_target': 1 is below 2"),
    (["signvec", "--n", "-1"], {"kind": "sign_vectors", "params": {"n": -1}},
     "field 'params.n': -1 is below 1"),
    (["signvec", "--n", "0"], {"kind": "sign_vectors", "params": {"n": 0}},
     "field 'params.n': 0 is below 1"),
    (["signvec", "--max-tries", "0"], {"kind": "sign_vectors", "params": {"max_tries": 0}},
     "field 'params.max_tries': 0 is below 1"),
    (["signvec", "--max-tries", "-3"], {"kind": "sign_vectors", "params": {"max_tries": -3}},
     "field 'params.max_tries': -3 is below 1"),
], ids=["generator-not-int", "generator-one-int", "generator-window", "t-points",
        "theta-points", "trials", "N-target", "signvec-n-negative", "signvec-n-0",
        "max-tries-0", "max-tries-negative"])
def test_mistake_on_both_routes_exit_code(tmp_path, capsys, argv, config, named):
    out = tmp_path / "o"
    assert main(["--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert main(["--out", str(out), "--config", _config_file(tmp_path, json.dumps(config))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not out.exists()


OU_SLOW = {"kind": "ornstein_uhlenbeck", "params": {"rate": 0.5}}
OU = json.loads(OU_JSON)
# falls from lag 0 to lag 1, but rises from 0.2 at lag 0.3 to 0.4 at lag 0.6
GAP_TABLE = {"kind": "table", "table": [[0, 1], [0.3, 0.2], [0.6, 0.4], [1, 0.1], [40, 0]]}


# each bound mistake, through the bound subcommand and the same config file
@pytest.mark.parametrize("argv, config, named", [
    (["--cov", OU_JSON, "--batch", "2000"], {"kind": "sequence_bound", "model": OU, "batch": 2000},
     "field 'batch': Monte Carlo rho needs >= 10000 paths, got 2000"),
    (["--cov", json.dumps(OU_SLOW)], {"kind": "sequence_bound", "model": OU_SLOW},
     "phi(1) < 1/2 violated: phi(1) = 0.606531"),
    (["--cov", OU_JSON, "--alpha", "0.9"],
     {"kind": "sequence_bound", "model": OU, "params": {"alpha": 0.9}},
     "2*floor(n^alpha) = 1024 >= n = 1024"),
    (["--cov", OU_JSON, "--rho", "analytic", "--alpha", "0.45"],
     {"kind": "sequence_bound", "model": OU, "params": {"rho": "analytic", "alpha": 0.45}},
     "eta = -0.2665 <= 0"),
    (["--pipeline", "correlated", "--eps", "1.5"],
     {"kind": "correlated_bound", "params": {"eps": 1.5}}, "eps must lie in (0, 1), got 1.5"),
    (["--pipeline", "field", "--extent", "2"],
     {"kind": "field_bound", "params": {"extent": 2.0}}, "N(A) > 1, got 1"),
    (["--pipeline", "field", "--alpha", "0.3"],
     {"kind": "field_bound", "params": {"alpha": 0.3}}, "field_bound takes no ['alpha']"),
    (["--cov", json.dumps(GAP_TABLE), "--n", "16"],
     {"kind": "sequence_bound", "model": GAP_TABLE, "sizes": [16]},
     "phi must be non-increasing; violated near lags (0.3, 0.6)"),
    (["--alpha", "1.5"], {"kind": "sequence_bound", "params": {"alpha": 1.5}},
     "alpha must lie in (0, 1), got 1.5"),
    (["--alpha", "-1"], {"kind": "sequence_bound", "params": {"alpha": -1.0}},
     "alpha must lie in (0, 1), got -1.0"),
    (["--cov", OU_JSON, "--alpha", "1.5"],
     {"kind": "sequence_bound", "model": OU, "params": {"alpha": 1.5}},
     "alpha must lie in (0, 1), got 1.5"),
    (["--cov", OU_JSON, "--rho", "analytic", "--alpha", "0"],
     {"kind": "sequence_bound", "model": OU, "params": {"rho": "analytic", "alpha": 0.0}},
     "alpha must lie in (0, 1), got 0.0"),
], ids=["mc-batch", "phi1", "trivial-covering", "eta", "eps", "one-ball", "foreign-flag",
        "table-gap", "iid-alpha-above-1", "iid-alpha-negative", "ou-alpha-above-1",
        "ou-analytic-alpha-0"])
def test_bound_mistake_exit_code(tmp_path, capsys, argv, config, named):
    out = tmp_path / "o"
    assert main(["--out", str(out), "bound", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert main(["--out", str(out), "--config", _config_file(tmp_path, json.dumps(config))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("text, named", [
    ('{"kind": "sign_vectors", "out": null}', "field 'out': None is not a string"),
    ('{"kind": "sign_vectors", "out": ["a", "b"]}', "field 'out': ['a', 'b'] is not a string"),
    ('{"kind": "sign_vectors", "params": [["n", 20]]}',
     "field 'params': [['n', 20]] is not an object"),
    ('{"kind": "variance_scaling", "model": {"kind": "ornstein_uhlenbeck", '
     '"params": [["rate", 1]]}}',
     "field 'model': 'params' must be an object, got [['rate', 1]]"),
    ('{"kind": 5}', "field 'kind': 5 is not a string"),
], ids=["null-out", "list-out", "params-pairs", "model-params-pairs", "number-kind"])
def test_config_value_of_the_wrong_json_type_exit_code(tmp_path, capsys, monkeypatch, text,
                                                       named):
    monkeypatch.chdir(tmp_path)
    assert main(["--config", _config_file(tmp_path, text)]) == 2
    assert capsys.readouterr().err == f"config error: {named}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_bound_is_its_config(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(a), "bound", "--cov", OU_JSON, "--n", "256"]) == 0
    config = {"kind": "sequence_bound", "model": OU, "sizes": [256], "out": str(b)}
    assert main(["--config", _config_file(tmp_path, json.dumps(config))]) == 0
    capsys.readouterr()
    for name in ("data.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _run(args, tmp_path):
    """Run the interpreter on ``args`` with this checkout's package importable."""
    env = dict(os.environ)
    src = str(Path(superconc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)


def _loaded_modules(tmp_path) -> list[set[str]]:
    """The top-level modules that ``import superconc``, and then a full CLI
    run of a field bound, load from files in a fresh interpreter beyond
    those it starts with (the Cython runtime modules that numpy's extensions
    register have no file)."""
    (tmp_path / "field.json").write_text(json.dumps({
        "kind": "field_bound", "out": "f",
        "model": {"kind": "gaussian_smooth", "params": {"lam2": 2.0}},
        "params": {"d": 2, "extent": 16.0, "growth_batch": 20},
    }))
    top = ("{m.split('.')[0] for m, mod in list(sys.modules.items())"
           " if getattr(mod, '__file__', None)}")
    loaded = []
    for code in ("import superconc",
                 "from superconc.cli import main; assert main(['--config', 'field.json']) == 0"):
        res = _run(["-c", f"import json, sys; before = {top}; {code}; "
                          f"print(json.dumps(sorted({top} - before)))"], tmp_path)
        assert res.returncode == 0, res.stderr
        loaded.append(set(json.loads(res.stdout.splitlines()[-1])))  # after the summary
    assert (tmp_path / "f" / "summary.json").is_file()
    return loaded


def test_import_loads_no_scipy(tmp_path):
    # importing scipy adds about 0.2-0.3 s to every start, and no run needs it:
    # the iid draw takes its normal quantile from numpy code, and the field
    # covering finds near points by a sorted coordinate, not a k-d tree
    for loaded in _loaded_modules(tmp_path):
        assert "scipy" not in loaded and "superconc" in loaded


def test_only_the_sampler_reads_the_cap():
    # the cap is compared in one place, sampler._check_capacity, as each array
    # is allocated; no other module reads it or predicts a run's bytes
    for path in sorted((ROOT / "src" / "superconc").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        reads = names & {"capacity_bytes", "SUPERCONC_CAP_BYTES"}
        assert bool(reads) == (path.name == "sampler.py"), (path.name, reads)


def test_runs_load_only_the_declared_dependencies(tmp_path):
    # scipy serves the tests and the benchmark, so it is a test extra
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]}
    for loaded in _loaded_modules(tmp_path):
        assert loaded - {"superconc"} - set(sys.stdlib_module_names) == declared


def test_every_public_name_resolves():
    for name in superconc.__all__:
        assert getattr(superconc, name) is not None, name


ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def test_readme_configs_table_names_every_config():
    readme = (ROOT / "README.md").read_text()
    table = re.findall(r"^\| `superconc --config configs/(\S+\.json)`", readme, re.M)
    assert CONFIGS and sorted(table) == [p.name for p in CONFIGS]


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_config_file_runs(tmp_path, capsys, path):
    assert validate(ExperimentConfig.from_json_file(str(path))) == []
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(
        (tmp_path / "o" / "summary.json").read_text())


# a sizes or batch the kind does not read, through its subcommand where one
# sets it, and through a config file
@pytest.mark.parametrize("argv, config, named", [
    (["bound", "--pipeline", "field", "--n", "64", "--batch", "5"],
     {"kind": "field_bound", "sizes": [64], "batch": 5},
     ["field 'sizes': field_bound reads no sizes", "field 'batch': field_bound reads no batch"]),
    (["bound", "--pipeline", "correlated", "--batch", "5"],
     {"kind": "correlated_bound", "batch": 5}, ["field 'batch': correlated_bound reads no batch"]),
    (["bound", "--rho", "analytic", "--batch", "20000"],
     {"kind": "sequence_bound", "batch": 20000, "params": {"rho": "analytic"}},
     ["field 'batch': a sequence bound with analytic rho reads no batch"]),
    (["bound", "--n", "1024", "--batch", "20000"],
     {"kind": "sequence_bound", "sizes": [1024], "batch": 20000},
     ["field 'batch': an iid sequence bound reads no batch"]),
    (None, {"kind": "scan_risk", "sizes": [7], "batch": 3},
     ["field 'sizes': scan_risk reads no sizes", "field 'batch': scan_risk reads no batch"]),
    (None, {"kind": "sign_vectors", "sizes": [], "batch": 3},
     ["field 'batch': sign_vectors reads no batch"]),
    (["verify", "tail_bounds", "--sizes", "64", "1024"],
     {"kind": "tail_bounds", "sizes": [64, 1024]},
     ["field 'sizes': tail_bounds reads only sizes[0]"]),
    (None, {"kind": "correlated_bound", "sizes": [64, 1024]},
     ["field 'sizes': correlated_bound reads only sizes[0]"]),
], ids=["field-bound", "correlated-batch", "analytic-rho-batch", "iid-sequence-batch", "scan",
        "signvec",
        "tail-sizes", "correlated-sizes"])
def test_value_the_kind_does_not_read_exit_code(tmp_path, capsys, argv, config, named):
    out = tmp_path / "o"
    routes = [["--config", _config_file(tmp_path, json.dumps(config))]] + ([argv] if argv else [])
    for route in routes:
        assert main(["--out", str(out), *route]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {n}" for n in named]
    assert not out.exists()


# every statistic and bound reads log n, so a size of 1 is a config error
# wherever a kind other than sample reads it, not a traceback
@pytest.mark.parametrize("argv", [
    ["gumbel", "--sizes", "1"],
    ["verify", "laplace_check", "--sizes", "1", "--batch", "100"],
    ["verify", "tail_bounds", "--sizes", "1", "--batch", "100"],
    ["verify", "variance_scaling", "--sizes", "64", "1"],
    ["bound", "--n", "1"],
    ["bound", "--n", "1", "--rho", "analytic"],
    ["bound", "--pipeline", "correlated", "--n", "1"],
    ["--config", '{"kind": "tail_bounds", "sizes": [1], "params": {"K": 0.5, "center": "b_n"}}'],
], ids=["gumbel", "laplace", "tail", "variance", "bound-mc", "bound-analytic", "correlated",
        "tail-config"])
def test_size_below_2_exit_code(tmp_path, capsys, argv):
    out = tmp_path / "o"
    if argv[0] == "--config":
        argv = ["--config", _config_file(tmp_path, argv[1])]
    assert main(["--out", str(out), *argv]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: field 'sizes': needs one or more entries, each at least 2"]
    assert not out.exists()


def test_size_2_is_valid_where_1_is_not():
    for kind, params in (("gumbel_convergence", {}), ("laplace_check", {}),
                         ("tail_bounds", {"K": 0.5, "center": "b_n"}),
                         ("sequence_bound", {"rho": "analytic"}), ("correlated_bound", {})):
        for n, ok in ((2, True), (1, False)):
            cfg = ExperimentConfig(kind=kind, sizes=(n,), params=params)
            assert (validate(cfg) == []) == ok, (kind, n)
    assert validate(ExperimentConfig(kind="sample_paths", sizes=(1,), batch=2)) == []


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage error
        return exc.code


# a top-level field that is not a whole number, or a seed below 0, through a
# config file and through the flag that sets it (argparse's int rejects all
# but the negative seed; no flag takes a list or a string)
@pytest.mark.parametrize("field, value, flag_value, named", [
    ("sizes", "64", None, "'64' is not a list"),
    ("sizes", [64.9], "64.9", "64.9 is not a whole number"),
    ("batch", 2.7, "2.7", "2.7 is not a whole number"),
    ("batch", True, "true", "True is not a whole number"),
    ("seed", 1.5, "1.5", "1.5 is not a whole number"),
    ("seed", -1, "-1", "-1 is below 0"),
], ids=["sizes-string", "sizes-fraction", "batch-fraction", "batch-bool", "seed-fraction",
        "seed-negative"])
def test_top_level_field_mistake_exit_code(tmp_path, capsys, field, value, flag_value, named):
    out = tmp_path / "o"
    config = {"kind": "variance_scaling", "sizes": [64], "batch": 50, field: value}
    assert main(["--out", str(out), "--config", _config_file(tmp_path, json.dumps(config))]) == 2
    assert capsys.readouterr().err == f"config error: field '{field}': {named}\n"
    if flag_value is not None:
        flag = [f"--{field}", flag_value]
        top, sub = (flag, []) if field == "seed" else ([], flag)
        argv = [*top, "--out", str(out), "verify", "variance_scaling", "--sizes", "64",
                "--batch", "50", *sub]
        assert _exit_code(argv) == 2
        want = (f"config error: field '{field}': {named}" if value == -1
                else f"argument --{field}: invalid int value: '{flag_value}'")
        assert want in capsys.readouterr().err
    assert not out.exists()


def test_jobs_flag_is_a_usage_error(tmp_path, capsys):
    # the draw threads follow the CPU count alone; no flag sets them
    argv = ["--jobs", "2", "--out", str(tmp_path / "o"), "verify", "variance_scaling",
            "--sizes", "16", "--batch", "50"]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: superconc [-h] [--config CONFIG] [--seed SEED] [--out OUT]")
    assert not (tmp_path / "o").exists()


def test_jobs_field_is_unknown(tmp_path, capsys):
    config = {"kind": "variance_scaling", "sizes": [16], "batch": 50, "jobs": 2}
    out = tmp_path / "o"
    assert main(["--out", str(out), "--config", _config_file(tmp_path, json.dumps(config))]) == 2
    assert capsys.readouterr().err == "config error: unknown field(s) ['jobs']\n"
    assert not out.exists()


# each per-size kind's fewest paths: one fewer is a config error, that many run
@pytest.mark.parametrize("argv, fewest, named", [
    (["gumbel", "--sizes", "32"], 100, "the KS distance to the Gumbel law"),
    (["verify", "variance_scaling", "--sizes", "16"], 3, "the jackknife SE"),
    (["verify", "laplace_check", "--sizes", "16"], 40, "the SE of the Laplace margin"),
], ids=["gumbel", "variance_scaling", "laplace_check"])
def test_batch_below_the_fewest_paths_is_a_config_error(tmp_path, capsys, argv, fewest, named):
    out = str(tmp_path / "o")
    assert main(["--out", out, *argv, "--batch", str(fewest - 1)]) == 2
    assert capsys.readouterr().err == (
        f"config error: field 'batch': {named} needs >= {fewest} paths, got {fewest - 1}\n")
    assert not (tmp_path / "o").exists()
    assert main(["--out", out, *argv, "--batch", str(fewest)]) == 0


def test_tail_fit_on_too_few_maxima_is_a_config_error(tmp_path, capsys):
    # at seed 0, 4 iid maxima of 1024 points leave fewer than 5 grid points
    # with survival in [1e-4, 0.5]; 5 maxima leave enough
    out = str(tmp_path / "o")
    assert main(["--out", out, "verify", "tail_bounds", "--batch", "4"]) == 2
    assert capsys.readouterr().err == (
        "config error: tail fit needs >= 5 grid points with survival in [1e-4, 0.5]\n")
    assert not (tmp_path / "o").exists()
    assert main(["--out", out, "verify", "tail_bounds", "--batch", "5"]) == 0


def test_verify_iid_maxima_at_a_hundred_million_points(tmp_path, capsys):
    # iid maxima take one raw word and one bounded integer per path, so no path
    # of 10^8 points is sized
    assert main(["--out", str(tmp_path / "vs"), "verify", "variance_scaling",
                 "--sizes", str(10**8), "--batch", "1000"]) == 0
    [row] = json.loads(capsys.readouterr().out)["per_n"]
    assert row["n"] == 10**8
