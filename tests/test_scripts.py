"""The package's public names and the canned experiments in ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import superconc

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
IID_JSON = '{"kind": "iid"}'

TINY_ARGS = {
    "run_variance_scaling.py": ["--sizes", "16", "64", "--batch", "200", "--jobs", "1",
                                "--cov", IID_JSON],
    "run_tail_comparison.py": ["--n", "64", "--batch", "2000", "--cov", IID_JSON],
    "run_scan_comparison.py": ["--generator", "disjoint:4,3", "--trials", "100"],
    "run_field_pipeline.py": ["--extent", "8"],
}


def _run(args, tmp_path):
    """Run the interpreter on ``args`` with this checkout's package importable."""
    env = dict(os.environ)
    src = str(Path(superconc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)


def _run_script(name, args, tmp_path):
    return _run([str(SCRIPTS / name), *args, "--out", str(tmp_path / "out")], tmp_path)


def test_import_loads_no_scipy(tmp_path):
    # scipy.special alone adds about 0.2 s to every start; only iid maxima need it
    code = "import sys, superconc; print(sorted({m.split('.')[0] for m in sys.modules}))"
    res = _run(["-c", code], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "'scipy'" not in res.stdout and "'superconc'" in res.stdout


def test_every_public_name_resolves():
    for name in superconc.__all__:
        assert getattr(superconc, name) is not None, name


def test_every_script_has_tiny_arguments():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(TINY_ARGS)


@pytest.mark.parametrize("name", sorted(TINY_ARGS))
def test_script_runs(name, tmp_path):
    res = _run_script(name, TINY_ARGS[name], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("name", ["run_variance_scaling.py", "run_tail_comparison.py"])
@pytest.mark.parametrize("cov", ['{"kind": "bogus"}', "absent.json"],
                         ids=["unknown-kind", "missing-file"])
def test_script_bad_cov_is_a_usage_error(name, cov, tmp_path):
    res = _run_script(name, ["--cov", cov], tmp_path)
    assert res.returncode == 2
    assert "error: --cov" in res.stderr and "Traceback" not in res.stderr
