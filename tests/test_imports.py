"""No command loads scipy or mpmath: their imports cost more than most of the
commands compute.  scipy is a test-only dependency, and only the Hurwitz zeta
fallback for s < -1.5 needs mpmath.  Only ``suite`` loads the acceptance
registry."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json
import sys
from conformal_zeta import cli
from conformal_zeta.fieldio import write_field
from conformal_zeta.zonal import constant_field, make_grid

ones = "ones.json"
write_field(ones, constant_field(make_grid(4, 32), 1.0))
grid = ["--n", "4", "--grid-n", "32"]
commands = [
    ["constants", "--n", "4"],
    ["zeta", "--n", "4", "--space", "sphere"],
    ["zeta", "--n", "4", "--space", "projective"],
    ["trace", *grid, "--profile", ones],
    ["functional", *grid, "--profile", ones, "--mass-field", ones],
    ["sweep", *grid, "--alphas", "0.05:0.3:3", "--out", "sweep.csv"],
    ["optimize", *grid, "--out", "optimize.json"],
    ["rates", "--n", "6", "--k", "0"],
    ["suite", "--checks", "rate_*", "optimizer_*", "flat_*"],
]
codes = [cli.main(argv) for argv in commands[:-1]]
before_suite = "conformal_zeta.acceptance" in sys.modules
codes.append(cli.main(commands[-1]))
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath"))
print(json.dumps({"codes": codes, "loaded": loaded, "acceptance_before_suite": before_suite,
                  "acceptance_after_suite": "conformal_zeta.acceptance" in sys.modules}))
"""


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path_factory.mktemp("cli"),
                         env=env, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 9
    return result


def test_cli_commands_load_no_scipy(cli_run):
    assert cli_run["loaded"] == []


def test_only_suite_loads_acceptance(cli_run):
    assert not cli_run["acceptance_before_suite"]
    assert cli_run["acceptance_after_suite"]
