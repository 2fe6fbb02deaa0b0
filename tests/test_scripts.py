import importlib.util
import json
import math
import subprocess
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


def test_run_suite_writes_the_whole_report(tmp_path, monkeypatch, capsys):
    script = load_script("run_suite")
    monkeypatch.setattr(script, "run_suite", lambda grid_size: fake_report(0.5))
    out = tmp_path / "report.json"
    monkeypatch.setattr(sys, "argv", ["run_suite.py", "--out", str(out)])
    assert script.main() == 0
    assert json.loads(out.read_text())["checks"][0]["value"] == 0.5
    # the margin to the gate, tolerance 1 - |0.5 - 0|, is printed next to the value
    row = next(line for line in capsys.readouterr().out.splitlines() if "trace_const_n4" in line)
    assert "value=+5.000000000e-01  margin=+5.00e-01" in row


def test_check_margin_of_an_interval_is_the_distance_to_its_nearer_bound():
    for expected, margin in (((None, 2.0), 0.5), ((0.0, None), 1.5), ((1.0, 3.0), 0.5),
                             ((2.0, None), -0.5)):
        check = Check(name="b", value=1.5, expected=expected, tolerance=0.0,
                      passed=margin >= 0, provenance="derived")
        assert check.margin == margin


def test_benchmark_tracer_self_test_passes():
    # the benchmark's tracer wraps package functions by name and must restore
    # them; a refactor can break that while every other test passes
    assert load_script("tracing", "perfbench").self_test() == []


def test_kernel_matrix_reports_every_kernel_and_fails_on_a_failing_test_or_check(monkeypatch, capsys):
    script = load_script("kernel_matrix")
    runs = []

    def child(kernel, argv):
        # no child process: one test fails under one kernel, the check under
        # another
        runs.append((kernel, argv[0]))
        if argv == script.TIER1:
            if kernel == "Haswell":
                return subprocess.CompletedProcess(
                    argv, 1, "FAILED tests/test_a.py::test_b - assert\n1 failed, 596 passed\n", "")
            return subprocess.CompletedProcess(argv, 0, "...\n597 passed in 12.0s\n", "")
        value = 0.5 if kernel != "Prescott" else 1.5
        check = Check(name="trace_const_n4", value=value, expected=0.0, tolerance=1.0,
                      passed=value <= 1.0, provenance="paper")
        report = ReportDocument(checks=(check,), environment={}, overall_pass=check.passed)
        doc = script.suite_document(report, "Katmai")
        return subprocess.CompletedProcess(argv, 0, json.dumps(doc) + "\n", "")

    monkeypatch.setattr(script, "run_child", child)
    monkeypatch.setattr(script.subprocess, "run", None)
    assert script.main() == 1
    assert runs == [(kernel, arg) for kernel in script.KERNELS for arg in ("-m", "-c")]
    out = capsys.readouterr().out
    assert out.count("597 passed in 12.0s") == 3 and "Prescott (Katmai)" in out
    assert "Haswell: Tier-1 FAILED: 1 failed, 596 passed\n    FAILED tests/test_a.py::test_b" in out
    row = next(line for line in out.splitlines() if line.startswith("trace_const_n4"))
    assert row.split()[1:4] == ["+5.0000000000e-01", "+5.00e-01", "ok"]
    assert row.split()[-3:] == ["+1.5000000000e+00", "-5.00e-01", "FAIL"]
    assert out.rstrip().endswith("overall: FAIL")
