"""No command loads scipy or mpmath: their imports cost more than most of the
commands compute.  scipy is a test-only dependency, and only the Hurwitz zeta
fallback for s < -1.5 needs mpmath.  Only ``suite`` loads the acceptance
registry.  Each command imports only the modules it runs: ``constants`` and
``zeta`` load no numpy, and ``trace`` loads no optimizer, bubbles or zeta
engine, and ``rates`` loads no grid or operator layer.  The package resolves
its public names on first access."""

import importlib
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


# one command mix in a fresh interpreter: exit codes and the modules left loaded
FOOTPRINT = """
import json
import sys
from conformal_zeta import cli

codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def _fresh_interpreter(script, cwd, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _footprint(cwd, *commands):
    result = _fresh_interpreter(FOOTPRINT, cwd, json.dumps(commands))
    assert result["codes"] == [0] * len(commands)
    return set(result["modules"])


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    result = _fresh_interpreter(SCRIPT, tmp_path_factory.mktemp("cli"))
    assert result["codes"] == [0] * 9
    return result


def test_cli_commands_load_no_scipy(cli_run):
    assert cli_run["loaded"] == []


def test_only_suite_loads_acceptance(cli_run):
    assert not cli_run["acceptance_before_suite"]
    assert cli_run["acceptance_after_suite"]


def test_constants_and_zeta_load_no_numpy(tmp_path):
    loaded = _footprint(tmp_path, ["constants", "--n", "4"],
                        ["zeta", "--n", "4", "--space", "sphere"],
                        ["zeta", "--n", "4", "--space", "projective"])
    assert "conformal_zeta.zeta" in loaded
    assert {m.split(".")[0] for m in loaded} & {"numpy", "mpmath"} == set()
    assert "conformal_zeta.zonal" not in loaded


def test_trace_loads_only_the_grid_and_operator_layers(tmp_path):
    from conformal_zeta.fieldio import write_field
    from conformal_zeta.zonal import constant_field, make_grid

    write_field(tmp_path / "ones.json", constant_field(make_grid(4, 32), 1.0))
    loaded = _footprint(tmp_path, ["trace", "--n", "4", "--grid-n", "32", "--profile", "ones.json"])
    assert "conformal_zeta.functionals" in loaded
    for name in ("bubbles", "optimize", "zeta", "acceptance"):
        assert f"conformal_zeta.{name}" not in loaded


def test_rates_loads_no_grid_or_operator_layer(tmp_path):
    loaded = _footprint(tmp_path, ["rates", "--n", "6", "--k", "0"])
    assert "conformal_zeta.bubbles" in loaded
    for name in ("zonal", "background", "laws", "functionals"):
        assert f"conformal_zeta.{name}" not in loaded


def test_public_names_resolve_to_their_home_modules():
    import conformal_zeta

    for name in conformal_zeta.__all__:
        value = getattr(conformal_zeta, name)
        assert value.__module__.startswith("conformal_zeta."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    namespace = {}
    exec("from conformal_zeta import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(conformal_zeta.__all__)
    assert set(conformal_zeta.__all__) <= set(dir(conformal_zeta))
    with pytest.raises(AttributeError, match="no_such_name"):
        conformal_zeta.no_such_name
    assert not hasattr(conformal_zeta, "no_such_name")
