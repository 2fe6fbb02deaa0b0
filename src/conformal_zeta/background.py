"""Conformal background data: the round S^n carrying normalized-mass data.

The normalized mass field is the stored primitive (it is the conformally
covariant object); the scalar curvature is the round constant n(n-1), and the
plain mass field is reconstructed on demand as m = m_nor - b_n n(n-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .params import DimensionParams, dim_params
from .zonal import ZonalField, ZonalGrid, constant_field

ROUND_SPHERE_TOL = 1e-13


@dataclass(frozen=True)
class ConformalBackground:
    params: DimensionParams
    grid: ZonalGrid
    mnor: ZonalField

    def __post_init__(self):
        if self.params.n != self.grid.n:
            raise GridMismatchError(
                f"params are for n={self.params.n} but grid has n={self.grid.n}"
            )
        if not self.mnor.grid.compatible(self.grid):
            raise GridMismatchError(f"mnor lives on {self.mnor.grid}, expected {self.grid}")

    def mass_field(self) -> ZonalField:
        """m = m_nor - b_n n(n-1)."""
        n = self.params.n
        return ZonalField(self.grid, self.mnor.values - self.params.b_n * (n * (n - 1)))

    def is_round_sphere(self) -> bool:
        """True when the normalized mass vanishes."""
        return float(np.abs(self.mnor.values).max(initial=0.0)) <= ROUND_SPHERE_TOL


def round_sphere_background(
    n: int, grid: ZonalGrid, variant: str = "paper", mnor: ZonalField | None = None
) -> ConformalBackground:
    """Round unit S^n carrying the normalized mass ``mnor`` (zero by default)."""
    if mnor is None:
        mnor = constant_field(grid, 0.0)
    return ConformalBackground(params=dim_params(n, variant), grid=grid, mnor=mnor)
