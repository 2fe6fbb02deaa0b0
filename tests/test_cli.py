import csv
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from conformal_zeta.cli import main
from conformal_zeta.fieldio import write_field
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


def test_config_file_precedence(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg"
    cfg.write_text("variant=calibrated\n")
    monkeypatch.setenv("CONFORMAL_ZETA_CONFIG", str(cfg))
    _, out = run_cli(capsys, "constants", "--n", "4")
    assert json.loads(out)["variant"] == "calibrated"
    # explicit flag wins over the config file
    _, out = run_cli(capsys, "constants", "--n", "4", "--variant", "paper")
    assert json.loads(out)["variant"] == "paper"


def test_bad_config_file(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg"
    cfg.write_text("variant=weird\n")
    monkeypatch.setenv("CONFORMAL_ZETA_CONFIG", str(cfg))
    code, _ = run_cli(capsys, "constants", "--n", "4")
    assert code == 2


def test_non_finite_config_tol_is_usage_error(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg"
    cfg.write_text("tol=nan\n")
    monkeypatch.setenv("CONFORMAL_ZETA_CONFIG", str(cfg))
    code, out = run_cli(capsys, "constants", "--n", "4")
    assert code == 2
    assert out == ""


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
    assert not any(issubclass(w.category, IntegrationWarning) for w in caught)
    assert not (tmp_path / "sweep.csv").exists()


def test_grid_size_above_bound_is_usage_error(capsys, refuse_grid_build):
    code, out = run_cli(capsys, "optimize", "--n", "4", "--grid-n", str(MAX_GRID_SIZE + 1))
    assert code == 2
    assert out == ""
