"""Exact eigenvalue/multiplicity streams on round S^n and RP^n.

On the round n-sphere the degree-l spherical harmonics are joint
eigenfunctions: the Laplacian acts by l(l+n-1) and the order-(n-2)
conformally covariant operator factorizes into shifted Laplacians whose
product telescopes to (l+1)(l+2)...(l+n-2).  Real projective space keeps the
even degrees only (odd harmonics are not antipodally invariant).

The product formula is classical rather than package-derived, so the test
suite validates it in-repo: for n=4 against the explicit conformal Laplacian
on discretized zonal harmonics, and for n=6 against the factored operator
(D+6)(D+4) applied through the grid calculus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

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
        """Degree step of the stream: projective space keeps the even degrees."""
        return 2 if self.space == "projective" else 1


@dataclass(frozen=True)
class SpectrumTerm:
    degree: int
    eigenvalue: float
    multiplicity: int


def harmonic_multiplicity(n: int, l: int) -> int:
    """dim of degree-l spherical harmonics: (2l+n-1) (l+n-2)! / ((n-1)! l!)."""
    if l == 0:
        return 1
    num = (2 * l + n - 1) * math.factorial(l + n - 2)
    return num // (math.factorial(n - 1) * math.factorial(l))


def subcritical_eigenvalue(n: int, l: int) -> int:
    """(l+1)(l+2)...(l+n-2), strictly positive from l = 0 on."""
    return math.perm(l + n - 2, n - 2)


def spectrum_stream(query: SpectrumQuery) -> Iterator[SpectrumTerm]:
    """Lazy (eigenvalue, multiplicity) stream; consumers truncate explicitly."""
    l = 0
    while True:
        yield SpectrumTerm(degree=l, eigenvalue=float(subcritical_eigenvalue(query.n, l)),
                           multiplicity=harmonic_multiplicity(query.n, l))
        l += query.step
