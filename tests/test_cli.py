import contextlib
import csv
import hashlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conformal_zeta.cli import main
from conformal_zeta.fieldio import write_field
from conformal_zeta.params import MAX_DIMENSION
from conformal_zeta.zonal import MAX_GRID_SIZE, constant_field, make_grid


@pytest.fixture(scope="module")
def small_grid():
    return make_grid(4, 32)


@pytest.fixture()
def ones_file(tmp_path, small_grid):
    path = tmp_path / "const1.json"
    write_field(path, constant_field(small_grid, 1.0))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_constants_command(capsys):
    code, out = run_cli(capsys, "constants", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["a_n"] == pytest.approx(1 / 6)
    assert doc["c_n"] == pytest.approx(1 / (96 * math.pi**2), rel=1e-14)
    assert doc["variant"] == "paper"


def test_constants_rejects_odd_dimension(capsys):
    code, _ = run_cli(capsys, "constants", "--n", "5")
    assert code == 2


def test_zeta_command(capsys):
    code, out = run_cli(capsys, "zeta", "--n", "4", "--space", "sphere")
    assert code == 0
    doc = json.loads(out)
    assert doc["finite_part"] == pytest.approx(-1 / 9, abs=1e-12)
    assert abs(doc["residue"]) < 1e-10
    code, out = run_cli(capsys, "zeta", "--n", "4", "--space", "projective")
    assert json.loads(out)["finite_part"] == pytest.approx(1 / 36, abs=1e-12)


def test_trace_command(capsys, ones_file):
    code, out = run_cli(capsys, "trace", "--n", "4", "--grid-n", "32",
                        "--profile", ones_file)
    assert code == 0
    assert json.loads(out)["trace"] == pytest.approx(-1 / 18, abs=1e-12)


def test_trace_does_not_mutate_input(capsys, ones_file):
    before = hashlib.sha256(open(ones_file, "rb").read()).hexdigest()
    run_cli(capsys, "trace", "--n", "4", "--grid-n", "32", "--profile", ones_file)
    after = hashlib.sha256(open(ones_file, "rb").read()).hexdigest()
    assert before == after


def test_functional_command(capsys, ones_file):
    code, out = run_cli(capsys, "functional", "--n", "4", "--grid-n", "32",
                        "--profile", ones_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["trace"] == pytest.approx(
        doc["mass_functional"] * doc["volume"] ** 0.5, abs=1e-10)
    assert doc["sobolev_gap"] == pytest.approx(0.0, abs=1e-10)


def test_functional_with_mass_field(capsys, tmp_path, small_grid, ones_file):
    from conformal_zeta.zonal import ZonalField

    mnor = ZonalField(small_grid, 0.01 * np.exp(-small_grid.theta**2))
    mpath = tmp_path / "mnor.json"
    write_field(mpath, mnor)
    code, out = run_cli(capsys, "functional", "--n", "4", "--grid-n", "32",
                        "--profile", ones_file, "--mass-field", str(mpath))
    assert code == 0
    doc = json.loads(out)
    # positive mass data raises the functional above the orbit value
    base = json.loads(run_cli(capsys, "functional", "--n", "4", "--grid-n", "32",
                              "--profile", ones_file)[1])
    assert doc["mass_functional"] > base["mass_functional"]


def test_optimize_command(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code, _ = run_cli(capsys, "optimize", "--n", "4", "--grid-n", "64",
                      "--tol", "1e-8", "--seed", "3", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["converged"] is True
    assert doc["residual"] < 1e-8
    assert doc["u_star"]["grid"]["N"] == 64


def test_optimize_non_convergence_exit_code(capsys, tmp_path):
    # a tolerance below working precision cannot be met
    out_path = tmp_path / "r.json"
    code, out = run_cli(capsys, "optimize", "--n", "4", "--grid-n", "64",
                        "--tol", "1e-30", "--out", str(out_path))
    assert code == 1
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["converged"] is False
    assert doc["stop_reason"] == "polish_stalled"
    assert math.isfinite(doc["residual"])
    assert len(doc["u_star"]["values"]) == 64


def test_sweep_command(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _ = run_cli(capsys, "sweep", "--n", "4", "--grid-n", "64",
                      "--alphas", "0.05:0.3:5", "--epsilon", "0.3",
                      "--out", str(out_path))
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha", "M_psi", "sphere_value", "margin", "mu"]
    assert len(rows) == 6
    assert float(rows[1][0]) == pytest.approx(0.05)
    # margins nonpositive without mass data
    assert all(float(r[3]) <= 1e-9 for r in rows[1:])


def test_sweep_rejects_bad_alphas(capsys, tmp_path):
    code, _ = run_cli(capsys, "sweep", "--n", "4", "--alphas", "nope",
                      "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_rates_command(capsys):
    code, out = run_cli(capsys, "rates", "--n", "6", "--k", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["exponent_fit"] == pytest.approx(2.0, abs=0.05)
    assert doc["log_factor_detected"] is False
    assert doc["predicted"] == "k_plus_2"


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["zeta", "--n", "4", "--space", "sphere", "--frobnicate"])
    assert err.value.code == 2


def test_missing_file_is_usage_error(capsys):
    code, _ = run_cli(capsys, "trace", "--n", "4", "--profile", "/nonexistent.json")
    assert code == 2


def test_internal_consistency_failure_exit_code(capsys, ones_file, monkeypatch):
    from conformal_zeta.errors import ConsistencyError
    import conformal_zeta.cli as climod

    def broken(u, bg):
        raise ConsistencyError("forced for the exit-code contract")

    monkeypatch.setattr(climod.functionals, "functional_report", broken)
    code, _ = run_cli(capsys, "functional", "--n", "4", "--grid-n", "32",
                      "--profile", ones_file)
    assert code == 3


def test_stray_config_environment_is_ignored(capsys, tmp_path, monkeypatch):
    # the CLI reads no configuration file: its settings come from the flags alone
    cfg = tmp_path / "cfg"
    cfg.write_text("variant=weird\ntol=nan\n")
    monkeypatch.setenv("CONFORMAL_ZETA_CONFIG", str(cfg))
    code, out = run_cli(capsys, "zeta", "--n", "4", "--space", "sphere")
    assert code == 0
    assert json.loads(out)["finite_part"] == pytest.approx(-1 / 9, abs=1e-12)


def test_suite_subset_deterministic(capsys):
    argv = ["suite", "--checks", "finite_part_sphere_n4", "trace_const_n4"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("generated_at"), doc2.pop("generated_at")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
    assert [c["name"] for c in doc1["checks"]] == ["finite_part_sphere_n4", "trace_const_n4"]


def test_suite_reports_failure_exit_code(capsys, tmp_path, monkeypatch):
    import dataclasses

    import conformal_zeta.zeta as zetamod

    genuine = zetamod.spectral_zeta_at_one

    def shifted(query, *args, **kwargs):
        lv = genuine(query, *args, **kwargs)
        if query.space != "projective":
            return lv
        return dataclasses.replace(lv, finite_part=lv.finite_part + 1e-3)

    # every registered check passes, so a failure is supplied on purpose:
    # the projective finite part is pushed off its target, the sphere is not
    monkeypatch.setattr(zetamod, "spectral_zeta_at_one", shifted)
    out_path = tmp_path / "report.json"
    code, out = run_cli(capsys, "suite", "--checks", "finite_part_*",
                        "--out", str(out_path))
    assert code == 1
    doc = json.loads(out_path.read_text())
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["finite_part_sphere_n4"]["pass"] is True
    assert by_name["finite_part_projective_n4"]["pass"] is False
    assert doc["overall_pass"] is False
    assert all(c["provenance"] in {"paper", "derived", "trivial"} for c in doc["checks"])


def test_suite_unmatched_check_name_is_usage_error(capsys):
    code = main(["suite", "--checks", "trace_const_n4", "nope"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'nope'" in captured.err


@pytest.mark.parametrize("n", ["0", "3", "-2"])
def test_rates_rejects_unsupported_dimension(capsys, n):
    code, out = run_cli(capsys, "rates", "--n", n, "--k", "2")
    assert code == 2
    assert out == ""


def test_non_finite_output_leaves_stdout_empty(capsys):
    # nan is not JSON; the document is rejected whole, not written in part
    code, out = run_cli(capsys, "rates", "--n", "4", "--k", "nan")
    assert code == 2
    assert out == ""


def test_zeta_dimension_overflow_is_usage_error(capsys):
    code, out = run_cli(capsys, "zeta", "--n", "200", "--space", "sphere")
    assert code == 2
    assert out == ""


def test_constants_dimension_overflow_is_usage_error(capsys):
    code, out = run_cli(capsys, "constants", "--n", "400")
    assert code == 2
    assert out == ""


def test_floating_point_error_exit_code(capsys, monkeypatch):
    import conformal_zeta.cli as climod

    def diverged(bg, cfg):
        raise FloatingPointError("forced for the exit-code contract")

    monkeypatch.setattr(climod.optimize, "maximize_mass_functional", diverged)
    code, out = run_cli(capsys, "optimize", "--n", "4", "--grid-n", "32")
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("flag, argv", [
    ("--k", ["rates", "--n", "4", "--k", "nan"]),
    ("--cap", ["rates", "--n", "4", "--k", "0", "--cap", "inf"]),
    ("--epsilon", ["sweep", "--n", "4", "--grid-n", "32", "--alphas", "0.05:0.3:5",
                   "--epsilon", "nan"]),
    ("--tol", ["optimize", "--n", "4", "--grid-n", "32", "--tol=-inf"]),
    ("--alphas", ["sweep", "--n", "4", "--grid-n", "32", "--alphas", "0.1:inf:3"]),
    ("--alphas", ["sweep", "--n", "4", "--grid-n", "32", "--alphas", "nan:1:3"]),
    ("--alphas", ["sweep", "--n", "4", "--grid-n", "32", "--alphas", "0.1:1e400:3"]),
])
def test_non_finite_float_flag_is_usage_error(capsys, tmp_path, flag, argv):
    if argv[0] == "sweep":
        argv = argv + ["--out", str(tmp_path / "sweep.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert flag in captured.err
    assert caught == []
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_with_vanishing_bubble_names_its_cause(capsys, tmp_path):
    # at n=104 no node of a 32-node grid lies inside the cap theta < 0.6
    out_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--n", "104", "--grid-n", "32", "--alphas", "0.05:0.3:3",
                 "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    for part in ("--grid-n", "n=104", "alpha=0.05", "zero at every node"):
        assert part in captured.err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["functional", "--n", "4", "--grid-n", "32", "--profile", "{tiny}"],
    ["functional", "--n", "4", "--grid-n", "32", "--profile", "{huge}"],
    ["functional", "--n", "6", "--grid-n", "32", "--profile", "{tiny}"],
    ["functional", "--n", "6", "--grid-n", "32", "--profile", "{huge}"],
    ["sweep", "--n", "4", "--grid-n", "32", "--alphas", "1e-300:1e-299:2", "--out", "{csv}"],
], ids=["functional_n4_tiny", "functional_n4_huge", "functional_n6_tiny",
        "functional_n6_huge", "sweep_tiny"])
def test_norm_outside_float_range_is_usage_error(capsys, tmp_path, argv):
    # ||u||_p^2 underflows to 0 (or overflows) before any functional divides by it
    grid = make_grid(int(argv[2]), 32)
    write_field(tmp_path / "tiny.json", constant_field(grid, 1e-300))
    write_field(tmp_path / "huge.json", constant_field(grid, 1e300))
    argv = [a.format(tiny=tmp_path / "tiny.json", huge=tmp_path / "huge.json",
                     csv=tmp_path / "s.csv") for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "norm" in captured.err
    assert not (tmp_path / "s.csv").exists()


def test_trace_of_a_tiny_field_is_zero(capsys, tmp_path, small_grid):
    # T is 2-homogeneous, so a field of 1e-300 has trace -0.0 in float64
    field = tmp_path / "u.json"
    write_field(field, constant_field(small_grid, 1e-300))
    code, out = run_cli(capsys, "trace", "--n", "4", "--grid-n", "32", "--profile", str(field))
    assert code == 0
    assert json.loads(out) == {"trace": -0.0}


def test_trace_of_a_huge_field_is_usage_error(capsys, tmp_path, small_grid):
    # int u^2 of a field of 1e300 overflows, so the trace is refused by name
    field = tmp_path / "u.json"
    write_field(field, constant_field(small_grid, 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        code = main(["trace", "--n", "4", "--grid-n", "32", "--profile", str(field)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "trace" in captured.err


def test_rates_overflow_names_flags_and_limit(capsys):
    code = main(["rates", "--n", "104", "--k", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--n/--k" in captured.err
    assert f"{math.log(np.finfo(float).max):.1f}" in captured.err


@pytest.mark.parametrize("argv", [
    ["suite", "--checks", "zeta_residue_sphere_n4", "--out"],
    ["sweep", "--n", "4", "--grid-n", "32", "--alphas", "0.05:0.3:3", "--out"],
])
def test_out_file_is_replaced_whole_or_not_at_all(capsys, tmp_path, monkeypatch, argv):
    import os

    target = tmp_path / "result.out"
    target.write_text("earlier result\n")

    def fail(src, dst):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", fail)
        code = main(argv + [str(target)])
    capsys.readouterr()
    assert code == 2
    assert target.read_text() == "earlier result\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["result.out"]

    assert main(argv + [str(target)]) == 0
    capsys.readouterr()
    assert target.read_text() != "earlier result\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["result.out"]


def test_grid_size_above_bound_is_usage_error(capsys, refuse_grid_build):
    code, out = run_cli(capsys, "optimize", "--n", "4", "--grid-n", str(MAX_GRID_SIZE + 1))
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["trace", "--n", "4", "--grid-n", "0"],
    ["suite", "--checks", "trace_const_n4", "--grid-n", "0"],
], ids=["trace", "suite"])
def test_grid_size_zero_is_usage_error(capsys, ones_file, refuse_grid_build, argv):
    if argv[0] == "trace":
        argv = argv + ["--profile", ones_file]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "got 0" in captured.err


def test_dimension_above_bound_is_usage_error(capsys, tmp_path, refuse_grid_build):
    profile = tmp_path / "f.json"
    profile.write_text(json.dumps(
        {"n": 4, "grid": {"kind": "gauss-jacobi", "N": 16}, "values": [1.0] * 16}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["trace", "--n", "20000", "--grid-n", "16", "--profile", str(profile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "n=20000" in captured.err and str(MAX_DIMENSION) in captured.err
    assert "RuntimeWarning" not in captured.err
    assert not any(issubclass(w.category, RuntimeWarning) for w in caught)


# --- bounded fuzz of the argument grammar ------------------------------------

# repeated entries weight the draws toward n=4, N=32 runs that match the field files
FUZZ_DIMENSIONS = [4, 4, 4, -2, 0, 3, MAX_DIMENSION, MAX_DIMENSION + 2, 10**6]
FUZZ_GRID_SIZES = [32, 32, None, -1, 0, 15, 16, MAX_GRID_SIZE + 1]
FUZZ_FLOATS = ["nan", "inf", "-inf", "0", "-1"]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory, small_grid):
    """n=4, N=32 profile files (one ordinary, two whose L^p norms leave the float
    range) and a mass-field file, plus a directory for outputs."""
    from conformal_zeta.zonal import ZonalField

    root = tmp_path_factory.mktemp("fuzz")
    write_field(root / "profile.json", constant_field(small_grid, 1.0))
    write_field(root / "tiny.json", constant_field(small_grid, 1e-300))
    write_field(root / "huge.json", constant_field(small_grid, 1e300))
    write_field(root / "mnor.json",
                ZonalField(small_grid, 0.02 * np.exp(-small_grid.theta**2 / 0.1)))
    return root


@st.composite
def cli_arguments(draw, root):
    command = draw(st.sampled_from(
        ["constants", "zeta", "trace", "functional", "optimize", "sweep", "rates", "suite"]))
    argv = [command]

    def maybe(flag, values):
        value = draw(st.sampled_from([None, *values]))
        if value is not None:
            argv.append(f"{flag}={value}")  # "=" keeps "-inf" a value, not a flag

    if command == "suite":
        argv += ["--checks", "trace_const_n4"]
        maybe("--grid-n", FUZZ_GRID_SIZES)
        maybe("--out", [root / "report.json"])
        return argv
    argv.append(f"--n={draw(st.sampled_from(FUZZ_DIMENSIONS))}")
    if command == "zeta":
        argv.append(f"--space={draw(st.sampled_from(['sphere', 'projective']))}")
        return argv
    if command == "rates":
        argv.append(f"--k={draw(st.sampled_from([*FUZZ_FLOATS, '2']))}")
        maybe("--cap", [*FUZZ_FLOATS, "2.5"])
        return argv
    maybe("--variant", ["paper", "calibrated"])
    if command != "constants":
        grid_n = draw(st.sampled_from(FUZZ_GRID_SIZES))
        if grid_n is not None:
            argv.append(f"--grid-n={grid_n}")
        if command in ("trace", "functional"):
            profile = draw(st.sampled_from(["profile.json", "tiny.json", "huge.json"]))
            argv += ["--profile", str(root / profile)]
        if command != "trace":
            maybe("--mass-field", [root / "mnor.json"])
        if command == "optimize":
            maybe("--tol", [*FUZZ_FLOATS, "1e-8"])
            maybe("--seed", [0, 3])
            maybe("--out", [root / "optimize.json"])
        if command == "sweep":
            argv += ["--alphas", draw(st.sampled_from(
                        ["0.05:0.3:3", "0.3:0.05:3", "nope", "0.1:inf:3", "nan:1:3",
                         "0.1:1e400:3", "1e-300:1e-299:2"])),
                     "--out", str(root / "sweep.csv")]
            maybe("--epsilon", [*FUZZ_FLOATS, "0.3"])
    return argv


@settings(max_examples=100)
@given(data=st.data())
def test_fuzz_exit_codes_and_stdout(fuzz_files, data):
    argv = data.draw(cli_arguments(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    event(f"{argv[0]} exit {code}")  # shown by --hypothesis-show-statistics
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    text = out.getvalue()
    if text:
        assert text.endswith("\n"), argv
        json.loads(text)  # exactly one complete document
    if argv[0] == "sweep" and code == 0:
        with open(fuzz_files / "sweep.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows and all(math.isfinite(float(v)) for r in rows for v in r), argv


def test_rates_grammar_raises_no_warning(capsys):
    # every rates input the fuzz can draw: refused ones exit 2 without a
    # numpy RuntimeWarning on the way, including the t^(n+k-1) overflow
    for n in sorted(set(FUZZ_DIMENSIONS)):
        for k in [*FUZZ_FLOATS, "2"]:
            for cap in [None, *FUZZ_FLOATS, "2.5"]:
                argv = ["rates", f"--n={n}", f"--k={k}"] + ([] if cap is None else [f"--cap={cap}"])
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main(argv)
                captured = capsys.readouterr()
                assert code in (0, 2), argv
                assert (captured.out == "") == (code == 2), argv
