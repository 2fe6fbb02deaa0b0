import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conformal_zeta.errors import SchemaError
from conformal_zeta.fieldio import (field_document, parse_field, read_field, result_document,
                                    write_field)
from conformal_zeta.zonal import ZonalField, make_grid, random_zonal


@pytest.fixture(scope="module")
def grid():
    return make_grid(4, 32)


def test_roundtrip_bit_identical(tmp_path, grid):
    f = random_zonal(grid, 5, 10, 1.0 / 3.0, 0.1)
    path = tmp_path / "field.json"
    write_field(path, f)
    back = read_field(path, grid)
    assert np.array_equal(back.values, f.values)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=32, max_size=32))
def test_roundtrip_arbitrary_floats(values):
    grid = make_grid(4, 32)
    f = ZonalField(grid, np.asarray(values))
    doc = json.loads(json.dumps(field_document(f)))
    back = parse_field(doc, grid)
    assert np.array_equal(back.values, f.values)


def test_coefficient_form_constant(grid):
    doc = {"n": 4, "grid": {"kind": "gauss-jacobi", "N": 32}, "coeffs": [1.0]}
    f = parse_field(doc, grid)
    assert np.abs(f.values - f.values[0]).max() < 1e-15
    assert f.values[0] > 0


def test_mismatched_size_rejected(grid):
    doc = {"n": 4, "grid": {"kind": "gauss-jacobi", "N": 64}, "values": [0.0] * 64}
    with pytest.raises(SchemaError) as err:
        parse_field(doc, grid)
    assert "grid.N" in str(err.value)


def test_oversized_grid_rejected_before_allocating(refuse_grid_build):
    doc = {"n": 4, "grid": {"kind": "gauss-jacobi", "N": 10**7}, "values": [1.0]}
    with pytest.raises(SchemaError):
        parse_field(doc)


def test_wrong_dimension_rejected(grid):
    doc = {"n": 6, "grid": {"kind": "gauss-jacobi", "N": 32}, "values": [0.0] * 32}
    with pytest.raises(SchemaError) as err:
        parse_field(doc, grid)
    assert ".n" in str(err.value)


def test_nan_rejected(grid):
    doc = {"n": 4, "grid": {"kind": "gauss-jacobi", "N": 32},
           "values": [0.0] * 31 + [float("nan")]}
    with pytest.raises(SchemaError) as err:
        parse_field(doc, grid)
    assert "values[31]" in str(err.value)


def test_values_and_coeffs_mutually_exclusive(grid):
    doc = {"n": 4, "grid": {"kind": "gauss-jacobi", "N": 32},
           "values": [0.0] * 32, "coeffs": [1.0]}
    with pytest.raises(SchemaError):
        parse_field(doc, grid)
    with pytest.raises(SchemaError):
        parse_field({"n": 4, "grid": {"kind": "gauss-jacobi", "N": 32}}, grid)


def test_unknown_keys_reported(grid):
    doc = {"n": 4, "grid": {"kind": "gauss-jacobi", "N": 32},
           "values": [0.0] * 32, "extra": 1}
    with pytest.raises(SchemaError) as err:
        parse_field(doc, grid)
    assert "extra" in str(err.value)


def test_grid_kind_checked(grid):
    doc = {"n": 4, "grid": {"kind": "uniform", "N": 32}, "values": [0.0] * 32}
    with pytest.raises(SchemaError) as err:
        parse_field(doc, grid)
    assert "kind" in str(err.value)


def test_malformed_json_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        read_field(path)


def test_write_rejects_nonfinite(tmp_path, grid):
    f = ZonalField(grid, np.full(32, math.inf))
    with pytest.raises(SchemaError):
        write_field(tmp_path / "inf.json", f)


def test_field_document_refuses_stacks(grid):
    stack = random_zonal(grid, np.arange(3), 10, 1.0, 0.1)
    with pytest.raises(SchemaError) as err:
        field_document(stack)
    assert "(3, 32)" in str(err.value)


def test_result_document_keys(grid):
    from conformal_zeta.background import round_sphere_background
    from conformal_zeta.optimize import OptimizerConfig, maximize_mass_functional
    from conformal_zeta.zonal import constant_field

    bg = round_sphere_background(4, grid)
    res = maximize_mass_functional(bg, OptimizerConfig(), start=constant_field(grid, 1.0))
    doc = result_document(res)
    assert set(doc) == {"value", "lambda", "residual", "mass_mean", "mass_reldev",
                        "iterations", "ascent_steps", "backtracks", "polish_steps",
                        "converged", "stop_reason", "u_star"}
    assert doc["iterations"] == doc["ascent_steps"] + doc["polish_steps"]
    assert doc["converged"] is True
    assert doc["stop_reason"] == "tolerance_met"
    json.dumps(doc, allow_nan=False)  # serializable without NaN escapes
