"""Grid, quadrature and spectral calculus for rotationally symmetric fields on S^n.

A zonal (rotationally symmetric) function on the unit n-sphere is a function of
the polar angle theta alone.  With x = cos(theta), the sphere measure pushes
forward to omega_{n-1} (1-x^2)^{(n-2)/2} dx on (-1, 1), so Gauss-Jacobi nodes
with alpha = beta = (n-2)/2 integrate it exactly, and the Gegenbauer family
C_l^{(n-1)/2} diagonalizes the Laplace-Beltrami operator with eigenvalues
l(l+n-1).

The basis tables are built in longdouble and rounded once to float64, and
each transform is one float64 BLAS product per parity block, with float64
coefficients after it.  That is enough: every registered check passes at
N = 256, 512 and 1024 (``covariance_yamabe`` 2.65e-10, 1.83e-10 and 3.02e-10
against a 1e-8 gate), and the tests bound each product by 8 float64 eps of
|T| |v| against a longdouble reference.  So the transforms do not depend on
the platform's long double, which is 80-bit on x86-64 Linux but plain
float64 elsewhere; only the grid build (the node polish, the weights, the
recurrence and the tables) uses it.

The nodes start from the Golub-Welsch eigenvalue problem (Golub and Welsch,
Math. Comp. 23, 1969) in float64 and are then polished to longdouble accuracy
by a Newton step on C_N^lam:

* the symmetric Jacobi matrix of the weight (1-x^2)^a has a zero diagonal,
  so reordering its rows and columns even-then-odd turns it into
  [[0, B], [B^T, 0]]; its eigenvalues, the nodes, are +-sigma for the
  singular values sigma of the ceil(N/2) x floor(N/2) bidiagonal block B,
  plus 0 when N is odd.  The node set is exactly symmetric about 0;
* one longdouble Newton step takes the float64 start to longdouble accuracy.
  Its single recurrence pass ends with C_{N-1} and C_N, and
  (1-x^2) C_N' = (N+2 lam-1) C_{N-1} - N x C_N gives the derivative.

The grid is mirror-symmetric: the nodes come in pairs +-y_j, the weights of a
pair are equal, and C_l(-x) = (-1)^l C_l(x).  So every table is two
K x K blocks, K = ceil(N/2), one for the even and one for the odd degrees, on
the nonnegative nodes y_j alone (the equatorial fold of fast spherical
harmonic transforms; Schaeffer, G^3 14, 2013).  With v_P and v_M a field's
values at y_j and at -y_j:

* analysis: the even degrees see v_P + v_M, the odd ones v_P - v_M.  The
  centre node of an odd N is its own mirror, so its column carries half its
  weight;
* synthesis: with E and O the sums over the even and the odd degrees at y_j,
  the field is E + O at y_j and E - O at -y_j.

The recurrence, the weights, the norms and the tables all run on the K
nonnegative nodes; ``nodes`` and ``weights`` are mirrored copies.  The grid
holds two tables, analysis and synthesis, both built with it.

The derivative needs no table of its own.  The Gegenbauer identity
C_{l+1}' - C_{l-1}' = 2 (l+lam) C_l (DLMF section 18.9) gives
C_j' = sum_{l = j-1, j-3, ...} 2 (l+lam) C_l, so a field with orthonormal
coefficients c (the basis C_l / h_l, h_l = ||C_l||) has the derivative with
orthonormal coefficients b_l = 2 (l+lam) h_l sum_{j = l+1, l+3, ...} c_j / h_j:
two suffix sums, one per parity, in float64.  ``differentiate`` is the
analysis, this map, and a synthesis.

Each transform is one kernel product:

* at build time the (N, K) longdouble basis is rounded once into the table's
  two K x K float64 blocks, one per parity;
* each input row is rounded to float64 and scaled by its own power of two
  2^-e, which brings its largest value to [1/2, 1), so that a field near the
  float range does not overflow inside the GEMM; the product is 2^e times
  the GEMM's;
* the analysis folds the node pairs, the synthesis sorts the degrees by
  parity, and each block takes one GEMM of the rows;
* a synthesis whose coefficients are zero from degree L on, in every row of
  a stack, reads only the table rows of its first ceil(L/2) degree pairs (the
  degree truncation of fast transforms), so a band-limited field's L < N
  coefficients and the zero tail the analysis filter leaves cost nothing.
  The rows are a view of each block.  The cut is taken while they are at
  most a third of the table: a cut past that would still pay, but it sums
  the GEMM in another order than the full table does, and the suite's bump
  optimizer then stops at another point (constant-mass deviation 9.6e-8, no
  polish step, against 7.0e-9 after one);
* the product is scaled back by 2^e in float64, so ``analyze`` returns
  float64 coefficients and the coefficient sums of the callers (the spectral
  forms, the derivative's suffix sums, the multipliers) run in float64; a
  synthesis (``synthesize_ld``, and the last step of ``apply_multiplier``
  and ``differentiate``) returns float64 values;
* a transform that computes a value past the float range raises
  OverflowError naming the value and the range (``_FloatRange``), in place
  of numpy's overflow warning and an inf: a coefficient of a field within a
  few times the float maximum (|c_l| <= ||v||_2 <= sqrt(omega_n) max |v|), a
  multiplied or derivative coefficient, or a synthesized value.

A stack of B fields on one grid, values of shape (B, N), goes through the same
code as one field: every row gets its own exponent e and its own filter
floor, and the B rows become the rows of each block's GEMM.  A single field,
(N,) or (1, N), is the stack of one.  BLAS may sum a one-row product in
another order than a row of a wider GEMM, so a stacked result agrees with
the per-field one within float64 rounding, not bit for bit.

Coefficients and field values exposed to callers are plain float64.

A grid depends on (n, N) alone, so ``make_grid`` builds each one once per
process and hands the same object to every later request for that (n, N).
A grid is complete once built: no transform adds to it.  The memo keeps the
_GRID_MEMO_SIZE most recently used grids of at most _GRID_MEMO_MAX_NODES
nodes and has no setting; a larger grid is built on every call.  Since
callers share a grid, its nodes, weights and tables are read-only.
``ZonalGrid(n, N)`` builds a fresh grid outside the memo.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import GridMismatchError
from .params import DEFAULT_GRID_SIZE, check_dimension, sphere_volume

_LD = np.longdouble

# Analysis coefficients with |c_l| at or below _FILTER_FLOOR * ||c||_2 are
# discarded before any spectral multiplier is applied; they are quadrature
# roundoff, and the multiplier l(l+n-1) would otherwise amplify them.  The
# floor is 1024 eps of an 80-bit long double, fixed so that it does not
# depend on the platform's long double.
_FILTER_FLOOR = 2.0**-53

MIN_GRID_SIZE = 16
# The grid holds two tables, each as two K x K float64 parity blocks,
# K = ceil(N/2): 8 N^2 bytes, 8.4 MB at N=1024 and 34 MB at N=2048.  Building
# the grid peaks at 16.2 N^2 bytes of traced allocations at N = 1024 and 16.1
# at 2048: two (N, K) longdouble arrays, the basis and its scaled copy for the
# weights, then the basis and both tables.  No transform allocates a table
# after that.  Larger sizes are refused.
MAX_GRID_SIZE = 2048
# ``make_grid`` keeps the grids of this many (n, N), the least recently used
# evicted first: a suite run needs two, a CLI command one.  Grids of more than
# _GRID_MEMO_MAX_NODES nodes are built afresh on each call, since a kept grid
# holds on to its 8 N^2 bytes of tables: one N = 1024 grid keeps 8.8 MB
# resident, one N = 2048 grid 35 MB, the tables alone.
_GRID_MEMO_SIZE = 4
_GRID_MEMO_MAX_NODES = 512


class _FloatRange(np.errstate):
    """A block whose float64 overflow raises OverflowError naming ``what`` and
    the float range, in place of numpy's warning and the inf it leaves."""

    def __init__(self, what: str):
        super().__init__(over="raise")
        self.what = what

    def __exit__(self, kind, exc, tb):
        super().__exit__(kind, exc, tb)
        if kind is FloatingPointError:
            raise OverflowError(f"{self.what} exceeds the float maximum "
                                f"{np.finfo(float).max:.4g}") from None


def _gegenbauer_rows(x: np.ndarray, lam, rows: int):
    """Yield C_l^lam(x) for l = 0..rows-1 via the three-term recurrence (longdouble).

    The recurrence runs in three buffers, so a yielded row is overwritten two
    steps later; copy it to keep it.
    """
    prev = np.ones(x.shape[0], dtype=_LD)
    yield prev
    if rows < 2:
        return
    cur = 2 * lam * x
    yield cur
    two_x, nxt = 2 * x, np.empty_like(cur)
    for l in range(2, rows):
        np.multiply(two_x, l + lam - 1, out=nxt)
        nxt *= cur
        nxt -= (l + 2 * lam - 2) * prev
        nxt /= _LD(l)
        prev, cur, nxt = cur, nxt, prev
        yield cur


def _gegenbauer_table(x: np.ndarray, lam, rows: int) -> np.ndarray:
    """C_l^lam(x) for l = 0..rows-1 as a (rows, len(x)) longdouble table."""
    out = np.empty((rows, x.shape[0]), dtype=_LD)
    for l, row in enumerate(_gegenbauer_rows(x, lam, rows)):
        out[l] = row
    return out


def _newton_step(x: np.ndarray, lam, size: int) -> np.ndarray:
    """One Newton step toward the zeros of C_size^lam, from one recurrence pass.

    The pass ends with C_{N-1} and C_N, and
    (1-x^2) C_N' = (N+2 lam-1) C_{N-1} - N x C_N gives the derivative.
    """
    below, top = deque(_gegenbauer_rows(x, lam, size + 1), maxlen=2)
    return x - top * (1 - x * x) / ((size + 2 * lam - 1) * below - size * x * top)


def _jacobi_nodes(size: int, a: float) -> np.ndarray:
    """Gauss-Jacobi nodes for the weight (1-x^2)^a, ascending, float64-accurate.

    Golub-Welsch with the even-odd reduction (module docstring): the monic
    recurrence p_{k+1} = x p_k - beta_k p_{k-1} has
    beta_k = k (k+2a) / ((2k+2a+1)(2k+2a-1)), and the Jacobi matrix couples
    rows k-1 and k by sqrt(beta_k).  Row i of B holds the couplings of the
    Jacobi row 2i to the rows 2i+1 (column i) and 2i-1 (column i-1).
    """
    k = np.arange(1, size, dtype=float)
    off = np.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1)))
    rows, cols = (size + 1) // 2, size // 2
    block = np.zeros((rows, cols))
    block[np.arange(cols), np.arange(cols)] = off[0::2]
    block[np.arange(1, rows), np.arange(rows - 1)] = off[1::2]
    sigma = np.linalg.svd(block, compute_uv=False)  # descending
    return np.concatenate([-sigma, np.zeros(size % 2), sigma[::-1]])


def _gauss_nodes(n: int, size: int) -> np.ndarray:
    """The grid's ceil(N/2) nonnegative Gauss-Jacobi nodes in longdouble,
    ascending: the float64 Golub-Welsch start, polished by one Newton step."""
    start = _jacobi_nodes(size, (n - 2) / 2.0)[size // 2:].astype(_LD)
    return _newton_step(start, _LD(n - 1) / 2, size)


def _mirror(half: np.ndarray, size: int, sign: int = 1) -> np.ndarray:
    """A node-order array of length ``size`` from its values on the nonnegative
    nodes: ``sign`` times the values at the mirrored nodes, then the values."""
    return np.concatenate([sign * half[::-1][: size - half.shape[0]], half])


def _by_parity(rows: np.ndarray, pairs: int) -> np.ndarray:
    """(B, L) values of degrees 0..L-1 as (2, B, pairs), L <= 2 pairs: the even
    degrees, then the odd ones.  A view, or for L < 2 pairs a zero-padded copy."""
    if rows.shape[1] < 2 * pairs:
        padded = np.zeros((rows.shape[0], 2 * pairs))
        padded[:, : rows.shape[1]] = rows
        rows = padded
    return rows.reshape(rows.shape[0], pairs, 2).transpose(2, 0, 1)


class _Table(NamedTuple):
    """A spectral table in parity blocks (``_split_table``)."""

    blocks: np.ndarray  # (2, K, K): block p, input-major
    nodes_in: bool  # inputs are nodes (analysis), else degrees (synthesis)


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: a memoized grid is shared by all its callers."""
    array.flags.writeable = False
    return array


def _split_table(basis: np.ndarray, nodes_in: bool) -> _Table:
    """The (N, K) longdouble ``basis`` (degrees by nonnegative nodes), rounded
    once to float64 parity blocks, input-major: entry [p, i, o] carries input
    i to output o in block p.  Block p holds the rows basis[p::2] as they are
    (synthesis, degree inputs) or transposed (analysis, node inputs); an odd N
    leaves the odd block's last degree zero.
    """
    half = basis.shape[1]
    blocks = np.zeros((2, half, half))
    by_degree = blocks.transpose(0, 2, 1) if nodes_in else blocks
    for block, rows in zip(by_degree, (basis[0::2], basis[1::2])):
        block[: len(rows)] = rows
    return _Table(_read_only(blocks), nodes_in)


class ZonalGrid:
    """Gauss-Jacobi collocation grid for zonal fields on S^n.

    Attributes
    ----------
    n        : sphere dimension (even, 4..MAX_DIMENSION)
    size     : number of nodes N
    nodes    : x_i = cos(theta_i), strictly increasing in (-1, 1)
    weights  : positive quadrature weights, sum = omega_n
    laplacian_eigenvalues : l(l+n-1) for l = 0..N-1, float64 (exact integers)
    """

    def __init__(self, n: int, size: int = DEFAULT_GRID_SIZE):
        check_dimension(n)
        if size < MIN_GRID_SIZE:
            raise ValueError(f"grid needs at least {MIN_GRID_SIZE} nodes, got {size}")
        if size > MAX_GRID_SIZE:
            raise ValueError(f"grid allows at most {MAX_GRID_SIZE} nodes, got {size}")
        self.n = n
        self.size = size
        lam = _LD(n - 1) / 2
        # everything is built on the ceil(N/2) nonnegative nodes y; the nodes
        # and weights at the mirrored nodes are copies (module docstring)
        y = _gauss_nodes(n, size)

        # Quadrature weights via the Christoffel function of the orthonormal
        # system.  Norms are needed only up to an l-independent factor, which
        # the sum-rule rescaling to omega_n removes:
        #   ||C_l||^2  propto  (l+1)(l+2)...(l+n-2) / (l + (n-1)/2).
        ells = np.arange(size, dtype=_LD)
        q = np.ones(size, dtype=_LD)
        for j in range(1, n - 1):
            q *= ells + j
        q /= ells + lam
        basis = _gegenbauer_table(y, lam, size)
        work = basis / np.sqrt(q)[:, None]
        w = 1.0 / np.square(work, out=work).sum(axis=0)
        w *= _LD(sphere_volume(n)) / _mirror(w, size).sum()
        # the weight of each node pair's column: the centre node of an odd
        # grid is its own mirror, so its column counts it once, at half weight
        pair_w = w.copy()
        if size % 2:
            pair_w[0] /= 2

        # Orthonormal basis (rows l, cols y_j), split into its synthesis
        # table basis^T, then, weighted in place, into its analysis table
        # basis * w.
        norms = np.sqrt(2 * (np.multiply(basis, basis, out=work) @ pair_w))
        del work
        basis /= norms[:, None]
        self._synthesis = _split_table(basis, nodes_in=False)
        basis *= pair_w
        self._analysis = _split_table(basis, nodes_in=True)
        # the norms h_l and the factors 2 (l+lam) h_l of ``differentiate``
        self._norms = _read_only(norms.astype(float))
        self._deriv_scale = _read_only((2 * (ells + lam) * norms).astype(float))
        self.laplacian_eigenvalues = _read_only(np.arange(size) * (np.arange(size) + n - 1.0))

        self.nodes = _read_only(_mirror(y, size, -1).astype(float))
        self.weights = _read_only(_mirror(w, size).astype(float))

    # -- representation helpers -------------------------------------------------

    @property
    def theta(self) -> np.ndarray:
        """Polar angles arccos(x_i), decreasing along the node order."""
        return np.arccos(self.nodes)

    def compatible(self, other: "ZonalGrid") -> bool:
        return self is other or (self.n == other.n and self.size == other.size)

    def __repr__(self):
        return f"ZonalGrid(n={self.n}, size={self.size})"

    # -- spectral kernel --------------------------------------------------------

    def _product(self, table: _Table, vec) -> tuple[np.ndarray, np.ndarray]:
        """``table @ vec`` as (p, e), the product being 2^e p: p is the float64
        product of the input scaled by 2^-e (module docstring).

        ``vec`` is one vector (N,) or a stack (B, N), rounded to float64; each
        row has its own e, which brings its largest value to [1/2, 1).  A
        synthesis also takes L < N coefficients, (L,) or (B, L), and reads
        only the table rows of the degree pairs up to the last nonzero
        coefficient of any row, while they are at most a third of the table.
        Each parity block takes one GEMM of the folded (an analysis) or
        parity-sorted (a synthesis) rows; a lone field is a stack of one.
        ``p`` has N values per row, and ``e`` broadcasts against it.
        """
        blocks, nodes_in = table
        vec = np.asarray(vec)
        n, k = self.size, blocks.shape[-1]
        rows = vec.reshape(-1, vec.shape[-1]).astype(float, copy=False)
        e = np.frexp(np.abs(rows).max(axis=-1, keepdims=True))[1]
        if nodes_in:
            # fold the node pairs: y_j and its mirror
            x = np.ldexp(rows, -e)
            pos, neg = x[:, n - k:], x[:, k - 1::-1]
            parts = np.empty((2,) + pos.shape)
            np.add(pos, neg, out=parts[0])
            np.subtract(pos, neg, out=parts[1])
        else:
            # read the degree pairs up to the last nonzero coefficient alone,
            # while they are at most a third of the table (module docstring)
            pairs = k
            if not rows[:, 2 * (k // 3):].any():
                nonzero = np.flatnonzero(rows.any(axis=0))
                pairs = (nonzero[-1] + 2) // 2 if nonzero.size else 1
            parts = np.ldexp(_by_parity(rows[:, : 2 * pairs], pairs), -e)
            blocks = blocks[:, :pairs]
        out = parts @ blocks  # block, field, output
        if nodes_in:
            # block p holds the degrees of parity p: interleave them
            res = out.transpose(1, 2, 0).reshape(-1, 2 * k)[:, :n]
        else:
            # the blocks give the even and the odd part of the output: their
            # sum at y_j, their difference at -y_j
            even_fn, odd_fn = out
            res = np.empty((rows.shape[0], n))
            np.subtract(even_fn, odd_fn, out=res[:, k - 1::-1])
            np.add(even_fn, odd_fn, out=res[:, n - k:])
        shape = vec.shape[:-1]
        return res.reshape(shape + (n,)), e.reshape(shape + (1,))

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Orthonormal Gegenbauer coefficients of sampled values (float64).

        ``values`` is one field (N,) or a stack (B, N).  Coefficients at the
        quadrature-roundoff level of their own row are zeroed (see _FILTER_FLOOR).
        A coefficient past the float range raises OverflowError.
        """
        scaled, e = self._product(self._analysis, values)
        with _FloatRange("a Gegenbauer coefficient of the field"):
            coeffs = np.ldexp(scaled, e)
        # the filter is scale-free, so it runs on the scaled product; each
        # row's norm is its own dot product s @ s, as for a single field (a
        # stack of 1 x N by N x 1 products; an einsum would sum in another
        # order and move filter decisions)
        norms = np.sqrt(scaled[..., None, :] @ scaled[..., None]).reshape(np.shape(e))
        coeffs[np.abs(scaled) <= _FILTER_FLOOR * norms] = 0.0
        return coeffs

    def _synthesize(self, coeffs) -> np.ndarray:
        scaled, e = self._product(self._synthesis, coeffs)
        with _FloatRange("a synthesized value"):
            return np.ldexp(scaled, e)

    def synthesize_ld(self, coeffs: np.ndarray) -> np.ndarray:
        """Values at the nodes of the orthonormal coefficients ``coeffs``, (L,) or
        (B, L) with 1 <= L <= N; the degrees from L on are zero."""
        return self._synthesize(coeffs)

    def apply_multiplier(self, values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
        c = self.analyze(values)
        with _FloatRange("a multiplied coefficient"):
            c = multiplier * c
        return self._synthesize(c)

    def differentiate(self, values: np.ndarray) -> np.ndarray:
        """d/dx of the Gegenbauer interpolant, at the nodes: the analysis, the
        coefficient map c -> b of the module docstring, and a synthesis."""
        c = self.analyze(values)
        # b_0..b_{m-1} come from c_1..c_m: m is the last nonzero degree of any
        # row, at least 1
        m = np.flatnonzero(c.reshape(-1, self.size).any(axis=0)).max(initial=1)
        # c_j / h_j from degree m down, padded to an even count: each column of
        # the reshape is one parity, and its running sums are the suffix sums,
        # which b_0..b_{m-1} read back in degree order (all in place)
        q = np.zeros(c.shape[:-1] + (m + m % 2,))
        with _FloatRange("a derivative coefficient"):
            np.divide(c[..., m:0:-1], self._norms[m:0:-1], out=q[..., :m])
            pairs = q.reshape(q.shape[:-1] + (-1, 2))
            np.cumsum(pairs, axis=-2, out=pairs)
            b = q[..., m - 1::-1]
            np.multiply(self._deriv_scale[:m], b, out=b)
        return self._synthesize(b)


@dataclass(frozen=True)
class ZonalField:
    """Samples of a zonal function at the grid nodes.

    ``values`` is one field (N,) or a stack of B fields (B, N) on the same
    grid; the pointwise product broadcasts a single field against a stack.
    """

    grid: ZonalGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim not in (1, 2) or vals.shape[-1] != self.grid.size or vals.size == 0:
            raise GridMismatchError(
                f"field has {vals.shape} values for a grid of size {self.grid.size}"
            )
        object.__setattr__(self, "values", vals)

    # the pointwise product, on shared grids
    def _match(self, other):
        if isinstance(other, ZonalField):
            if not self.grid.compatible(other.grid):
                raise GridMismatchError(f"{self.grid} vs {other.grid}")
            return other.values
        return other

    def __mul__(self, other):
        return ZonalField(self.grid, self.values * self._match(other))

    def coefficients(self) -> np.ndarray:
        """Orthonormal Gegenbauer coefficients (float64)."""
        return self.grid.analyze(self.values)


@lru_cache(maxsize=_GRID_MEMO_SIZE)
def _memo_grid(n: int, size: int) -> ZonalGrid:
    return ZonalGrid(n, size)


def make_grid(n: int, size: int = DEFAULT_GRID_SIZE) -> ZonalGrid:
    """The grid of (n, size), built on the first request of a process and
    shared after that, up to _GRID_MEMO_MAX_NODES nodes (module docstring);
    ``ZonalGrid(n, size)`` builds a fresh one."""
    if size > _GRID_MEMO_MAX_NODES:
        return ZonalGrid(n, size)
    return _memo_grid(n, size)


def constant_field(grid: ZonalGrid, value: float) -> ZonalField:
    return ZonalField(grid, np.full(grid.size, float(value)))


def synthesize(grid: ZonalGrid, coeffs) -> ZonalField:
    """Field with the given orthonormal Gegenbauer coefficients of degrees
    0..L-1, L <= N; the degrees from L on are zero, and for L up to about
    N/3 the kernel reads only the table rows of the first ceil(L/2) degree
    pairs (module docstring).

    ``coeffs`` is one coefficient vector or a (B, L) stack of them.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1] > grid.size:
        raise ValueError(f"{coeffs.shape[-1]} coefficients exceed the grid's {grid.size} modes")
    if not coeffs.shape[-1]:
        return ZonalField(grid, np.zeros(coeffs.shape[:-1] + (grid.size,)))
    return ZonalField(grid, grid.synthesize_ld(coeffs))


def _per_field(sums: np.ndarray):
    """A float for one field, an array of B values for a stack."""
    return float(sums) if sums.ndim == 0 else sums


def integrate(f: ZonalField):
    """Integral of f over S^n with the round measure (per field of a stack)."""
    return _per_field(f.values @ f.grid.weights)


def inner(f: ZonalField, g: ZonalField):
    """L^2 inner product (per field of a stack); inf where it leaves the float
    range, for the caller to refuse."""
    if not f.grid.compatible(g.grid):
        raise GridMismatchError(f"{f.grid} vs {g.grid}")
    with np.errstate(over="ignore"):
        return _per_field((f.values * g.values) @ f.grid.weights)


def lp_norm(f: ZonalField, q: float):
    """(integral of |f|^q)^{1/q}, per field of a stack."""
    if q < 1.0:
        raise ValueError(f"lp_norm needs q >= 1, got q={q}")
    # np.power, not **: for one field the sum is a numpy scalar, whose ** can
    # differ from the ufunc a stack goes through in the last bit
    return _per_field(np.power(np.abs(f.values) ** q @ f.grid.weights, 1.0 / q))


def laplacian(f: ZonalField) -> ZonalField:
    """Laplace-Beltrami operator (positive spectrum convention l(l+n-1))."""
    g = f.grid
    return ZonalField(g, g.apply_multiplier(f.values, g.laplacian_eigenvalues))


def gradient_pairing(f: ZonalField, g: ZonalField) -> ZonalField:
    """<df, dg> for zonal fields: (1-x^2) f'(x) g'(x) with spectral derivatives."""
    if not f.grid.compatible(g.grid):
        raise GridMismatchError(f"{f.grid} vs {g.grid}")
    grid = f.grid
    df = grid.differentiate(f.values)
    dg = df if g is f else grid.differentiate(g.values)
    return ZonalField(grid, (1.0 - grid.nodes**2) * df * dg)


def _normals(seed, count: int) -> np.ndarray:
    """``count`` standard normals from ``default_rng(seed)``; for an array of
    seeds, one such row per seed, each from its own generator."""
    rows = [np.random.default_rng(s).standard_normal(count) for s in np.ravel(seed).tolist()]
    return np.reshape(rows, np.shape(seed) + (count,))


def random_zonal_coefficients(seed, l_max: int) -> np.ndarray:
    """The coefficients of ``random_zonal``: degrees 0..``l_max`` drawn with a
    mild (1+l)^-1 decay, one row per seed of an array of seeds.  They depend on
    no grid, so one draw can be synthesized on several (``floored_field``)."""
    return _normals(seed, l_max + 1) / (1.0 + np.arange(l_max + 1))


def floored_field(grid: ZonalGrid, coeffs, amplitude: float, floor: float) -> ZonalField:
    """The field of ``coeffs``, scaled by ``amplitude`` and shifted so its
    minimum sits exactly at ``floor`` (a constant shift only moves the degree-0
    coefficient, so the band limit survives; clipping would not preserve it).
    A (B, L) stack of coefficients gives the stack of fields."""
    if floor <= 0:
        raise ValueError("floor must be positive")
    rough = synthesize(grid, coeffs).values
    shifted = floor + amplitude * (rough - rough.min(axis=-1, keepdims=True))
    return ZonalField(grid, shifted)


def random_zonal(grid: ZonalGrid, seed, l_max: int, amplitude: float, floor: float) -> ZonalField:
    """Seeded random band-limited field bounded below by ``floor``: the
    ``floored_field`` of ``random_zonal_coefficients(seed, l_max)``.  An array
    of seeds gives the stack of the per-seed fields, synthesized together.

    Float64 limit: at n = 104 the synthesized field reaches about 1e33 at the
    poles, so after the shift to ``floor`` degree 0 dominates and the samples
    lose their l >= 1 content (``int u D u`` off by up to 3.8e-3 relative for
    l_max = 32 at N = 256, 1.8e-8 for l_max = 16).  No registered check draws
    these fields there.
    """
    if l_max >= grid.size:
        raise ValueError(f"l_max={l_max} exceeds grid resolution {grid.size - 1}")
    return floored_field(grid, random_zonal_coefficients(seed, l_max), amplitude, floor)


def random_band_limited(grid: ZonalGrid, seed, l_max: int, amplitude: float) -> ZonalField:
    """Seeded smooth random field, sup-normalized to ``amplitude``.

    Gaussian coefficient decay exp(-(l/5)^2) keeps products and
    exponentials of these fields resolvable on the grid; used by the
    conformal-identity checks.  An array of seeds gives the stack of the
    per-seed fields; a field that synthesizes to zero stays zero.
    """
    ells = np.arange(l_max + 1)
    coeffs = _normals(seed, l_max + 1) * np.exp(-((ells / 5.0) ** 2))
    rough = synthesize(grid, coeffs).values
    top = np.abs(rough).max(axis=-1, keepdims=True)
    top[top == 0.0] = np.inf  # a zero field stays zero
    return ZonalField(grid, amplitude * rough / top)
