"""The spectrum of the order-(n-2) conformal operator on round S^n and RP^n.

On the round n-sphere the degree-l spherical harmonics are joint
eigenfunctions: the Laplacian acts by l(l+n-1) and the order-(n-2)
conformally covariant operator factorizes into shifted Laplacians whose
product telescopes to (l+1)(l+2)...(l+n-2).  Real projective space keeps the
even degrees only (odd harmonics are not antipodally invariant).  The
degree-l multiplicity C(n+l, n) - C(n+l-2, n) equals 2x eig(l) / (n-1)! with
x = l + (n-1)/2, which is how ``zeta`` sums it.

The product formula is classical rather than package-derived, so the test
suite validates it in-repo: for n=4 against the explicit conformal Laplacian
on discretized zonal harmonics, and for n=6 against the factored operator
(D+6)(D+4) applied through the grid calculus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import check_dimension

SPACES = ("sphere", "projective")


@dataclass(frozen=True)
class SpectrumQuery:
    space: str
    n: int

    def __post_init__(self):
        if self.space not in SPACES:
            raise ValueError(f"space must be one of {SPACES}, got {self.space!r}")
        check_dimension(self.n)

    @property
    def step(self) -> int:
        """Degree step of the spectrum: projective space keeps the even degrees."""
        return 2 if self.space == "projective" else 1


def subcritical_eigenvalue(n: int, l: int) -> int:
    """(l+1)(l+2)...(l+n-2), strictly positive from l = 0 on."""
    return math.perm(l + n - 2, n - 2)

