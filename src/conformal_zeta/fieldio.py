"""JSON field files and optimizer-result serialization.

Field schema (one of ``values`` / ``coeffs``, never both):

    {"n": int, "grid": {"kind": "gauss-jacobi", "N": int}, "values": [floats]}
    {"n": int, "grid": {"kind": "gauss-jacobi", "N": int}, "coeffs": [floats]}

``coeffs`` are orthonormal Gegenbauer coefficients (degree-ascending).  Floats
round-trip bit-identically: they are serialized through Python's shortest
repr, which encodes every double exactly in at most 17 significant digits.
NaN/Inf are rejected on both paths.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

import numpy as np

from .errors import SchemaError
from .optimize import OptimizerResult
from .zonal import ZonalField, ZonalGrid, make_grid, synthesize

GRID_KIND = "gauss-jacobi"


def _expect(cond: bool, message: str, path: str):
    if not cond:
        raise SchemaError(message, path)


def _finite_list(raw: Any, path: str) -> list[float]:
    _expect(isinstance(raw, list) and raw, "expected a non-empty array of numbers", path)
    out = []
    for i, v in enumerate(raw):
        _expect(isinstance(v, (int, float)) and not isinstance(v, bool),
                "expected a number", f"{path}[{i}]")
        v = float(v)
        _expect(math.isfinite(v), "NaN/Inf not allowed", f"{path}[{i}]")
        out.append(v)
    return out


def parse_field(doc: Any, grid: ZonalGrid | None = None, path: str = "$") -> ZonalField:
    """Validate a parsed JSON document and build the field.

    When ``grid`` is given the document must match its (n, N); otherwise a
    fresh grid of the document's size is built.
    """
    _expect(isinstance(doc, dict), "expected a JSON object", path)
    unknown = set(doc) - {"n", "grid", "values", "coeffs"}
    _expect(not unknown, f"unknown keys {sorted(unknown)}", path)
    _expect(isinstance(doc.get("n"), int), "missing integer 'n'", f"{path}.n")
    gspec = doc.get("grid")
    _expect(isinstance(gspec, dict), "missing 'grid' object", f"{path}.grid")
    _expect(gspec.get("kind") == GRID_KIND,
            f"grid kind must be {GRID_KIND!r}", f"{path}.grid.kind")
    _expect(isinstance(gspec.get("N"), int), "missing integer grid size 'N'", f"{path}.grid.N")
    n, size = doc["n"], gspec["N"]

    has_values = "values" in doc
    has_coeffs = "coeffs" in doc
    _expect(has_values != has_coeffs,
            "exactly one of 'values' / 'coeffs' must be present", path)

    if grid is None:
        try:
            grid = make_grid(n, size)
        except ValueError as exc:
            raise SchemaError(str(exc), path) from exc
    else:
        _expect(grid.n == n, f"field is for n={n}, expected n={grid.n}", f"{path}.n")
        _expect(grid.size == size,
                f"field has N={size}, expected N={grid.size}", f"{path}.grid.N")

    if has_values:
        vals = _finite_list(doc["values"], f"{path}.values")
        _expect(len(vals) == grid.size,
                f"{len(vals)} values for a grid of size {grid.size}", f"{path}.values")
        return ZonalField(grid, np.asarray(vals))
    coeffs = _finite_list(doc["coeffs"], f"{path}.coeffs")
    _expect(len(coeffs) <= grid.size,
            f"{len(coeffs)} coefficients exceed grid resolution {grid.size}", f"{path}.coeffs")
    return synthesize(grid, np.asarray(coeffs))


def field_document(f: ZonalField) -> dict:
    if f.values.ndim != 1:
        raise SchemaError(f"a document holds one field, got a stack of shape {f.values.shape}",
                          "$.values")
    if not np.all(np.isfinite(f.values)):
        raise SchemaError("field contains NaN/Inf", "$.values")
    return {
        "n": f.grid.n,
        "grid": {"kind": GRID_KIND, "N": f.grid.size},
        "values": [float(v) for v in f.values],
    }


def read_field(path: str | os.PathLike, grid: ZonalGrid | None = None) -> ZonalField:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON ({exc})", "$") from exc
    return parse_field(doc, grid)


def write_field(path: str | os.PathLike, f: ZonalField):
    with open(path, "w") as fh:
        json.dump(field_document(f), fh, allow_nan=False)
        fh.write("\n")


def result_document(res: OptimizerResult) -> dict:
    """Optimizer result as a JSON-ready dict with the field inlined."""
    return {
        "value": res.value,
        "lambda": res.lam,
        "residual": res.residual,
        "mass_mean": res.mass_mean,
        "mass_reldev": res.mass_reldev,
        "iterations": res.iterations,
        "ascent_steps": res.ascent_steps,
        "backtracks": res.backtracks,
        "polish_steps": res.polish_steps,
        "converged": res.converged,
        "stop_reason": res.stop_reason,
        "u_star": field_document(res.u_star),
    }
