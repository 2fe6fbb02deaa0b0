import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from conformal_zeta.acceptance import Check, ReportDocument

ROOT = Path(__file__).resolve().parent.parent


def load_script(name, directory="scripts"):
    spec = importlib.util.spec_from_file_location(name, ROOT / directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_report(value):
    check = Check(name="trace_const_n4", value=value, expected=0.0, tolerance=1.0,
                  passed=True, provenance="paper")
    return ReportDocument(checks=(check,), environment={}, overall_pass=True)


def test_run_suite_leaves_no_file_for_a_non_finite_report(tmp_path, monkeypatch):
    script = load_script("run_suite")
    monkeypatch.setattr(script, "run_suite", lambda grid_size: fake_report(math.nan))
    out = tmp_path / "report.json"
    monkeypatch.setattr(sys, "argv", ["run_suite.py", "--out", str(out)])
    with pytest.raises(ValueError):
        script.main()
    assert not out.exists()


def test_run_suite_writes_the_whole_report(tmp_path, monkeypatch):
    script = load_script("run_suite")
    monkeypatch.setattr(script, "run_suite", lambda grid_size: fake_report(0.5))
    out = tmp_path / "report.json"
    monkeypatch.setattr(sys, "argv", ["run_suite.py", "--out", str(out)])
    assert script.main() == 0
    assert json.loads(out.read_text())["checks"][0]["value"] == 0.5


def test_benchmark_tracer_self_test_passes():
    # the benchmark's tracer wraps package functions by name and must restore
    # them; a refactor can break that while every other test passes
    assert load_script("tracing", "perfbench").self_test() == []
