"""Grid, quadrature and spectral calculus for rotationally symmetric fields on S^n.

A zonal (rotationally symmetric) function on the unit n-sphere is a function of
the polar angle theta alone.  With x = cos(theta), the sphere measure pushes
forward to omega_{n-1} (1-x^2)^{(n-2)/2} dx on (-1, 1), so Gauss-Jacobi nodes
with alpha = beta = (n-2)/2 integrate it exactly, and the Gegenbauer family
C_l^{(n-1)/2} diagonalizes the Laplace-Beltrami operator with eigenvalues
l(l+n-1).

The basis tables are built in longdouble, and each transform gets that
accuracy from float64 BLAS products by error-free splitting (Ozaki, Ogita,
Oishi and Rump, Numer. Algorithms 59, 2012).  The registered checks pass
without it: one float64 GEMM per block against T_0 + T_1 gave
``covariance_yamabe`` 2.65e-10, 1.83e-10 and 3.02e-10 at N = 256, 512 and
1024, against 2.49e-10 with the split at N = 256 and a 1e-8 gate.  The split
keeps the extended-precision contract that these tests pin, and whether that
stays is open: test_kernel_matches_longdouble_reference,
test_single_value_round_trips, test_stacked_transforms_match_row_by_row,
test_coefficient_form_is_the_grid_form and
test_sobolev_gap_of_a_stack_matches_per_field.

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

The recurrence, the weights, the norms and the splits all run on the K
nonnegative nodes; ``nodes`` and ``weights`` are mirrored copies.  The grid
holds two tables, analysis and synthesis, both built with it.

The derivative needs no table of its own.  The Gegenbauer identity
C_{l+1}' - C_{l-1}' = 2 (l+lam) C_l (DLMF section 18.9) gives
C_j' = sum_{l = j-1, j-3, ...} 2 (l+lam) C_l, so a field with orthonormal
coefficients c (the basis C_l / h_l, h_l = ||C_l||) has the derivative with
orthonormal coefficients b_l = 2 (l+lam) h_l sum_{j = l+1, l+3, ...} c_j / h_j:
two suffix sums, one per parity, in longdouble.  ``differentiate`` is the
analysis, this map, and a synthesis.

Each transform is split as follows:

* at build time each table T is scaled by powers of two, per input (a node
  pair or a degree), and split per output as T = T_0 + T_1: T_0 holds
  integers of at most _TABLE_BITS bits on a grid set by the output's largest
  entry, T_1 the float64 remainder, below 2^-_TABLE_BITS of that entry.  A
  node pair has one scale (as an input) or one grid (as an output) in both
  blocks;
* each input vector v, scaled to max |v| < 1, is split as v = d + w the same
  way: d holds integers of at most _VECTOR_BITS bits on the grid
  2^-_VECTOR_BITS, w the remainder.  The analysis then folds d, w and v over
  the node pairs; d_P +- d_M stays exact, an integer of _VECTOR_BITS + 1 bits
  on the same grid;
* per block, one batched GEMM of d with T_0 gives T_0 d, which is exact in
  float64 because _TABLE_BITS + _VECTOR_BITS + 1 + log2(N/2) <= 52, and a
  second, of [w | v] with [T_0 ; T_1], gives T_0 w + T_1 v, which is at most
  2^-20 of |T| |v|, so its float64 roundoff stays below the longdouble
  roundoff of the whole product.  The lead never meets T_1.  A synthesis
  whose coefficients are zero from degree L on, in every row of a stack,
  reads only the table rows of its first ceil(L/2) degree pairs (the degree
  truncation of fast transforms), so a band-limited field's L < N
  coefficients and the zero tail the analysis filter leaves cost nothing.
  Those rows are copied out of the table, which pays while they are at most
  a third of it: past that, a single field's product ran slower than over
  the whole table at N = 256 and 1024.  A synthesis adds the two blocks'
  leads at each node pair, which is exact too: both lie on the pair's grid,
  at most 2^51 units each;
* ``analyze`` adds the two products in longdouble, in O(N); a synthesis
  product (``synthesize_ld``, and the last step of ``apply_multiplier`` and
  ``differentiate``) adds them in float64, since it returns float64 values.

A stack of B fields on one grid, values of shape (B, N), goes through the same
code as one field: every row gets its own exponent e, its own split and its own
filter floor, and the B rows become the rows of both GEMMs of each block.  A
single field, (N,) or (1, N), is the B = 1 case: it runs as one GEMM per
block of its rows [w | v] and [d | 0].  BLAS would sum a one-row product (a
GEMV) in another order than a row of a stack's GEMM, and at one row the
cost is the table's memory traffic, which one GEMM pays once.  The leading
products are exact either way, but BLAS may sum the remainder column in
another order inside a wider GEMM, so a stacked result agrees with the
per-field one within float64 rounding, not bit for bit.

Field values exposed to callers are plain float64.

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
# The grid holds two tables, each as two parity blocks of two K x K float64
# halves, K = ceil(N/2): 16 N^2 bytes, 17 MB at N=1024 and 67 MB at N=2048.
# Building the grid peaks at 28.2 N^2 bytes of traced allocations at N = 1024
# and 2048: the longdouble basis, both tables and one rounding buffer of the
# split.  No transform allocates a table after that.  Larger sizes are
# refused, and the bit budget below is sized for this bound.
MAX_GRID_SIZE = 2048
# ``make_grid`` keeps the grids of this many (n, N), the least recently used
# evicted first: a suite run needs two, a CLI command one.  Grids of more than
# _GRID_MEMO_MAX_NODES nodes are built afresh on each call, since a kept grid
# holds on to its 16 N^2 bytes of tables and, with glibc's allocator, to
# freed build temporaries beside them: one N = 1024 grid keeps 21 MB resident
# for 17 MB of tables, one N = 2048 grid 82 MB for 67 MB.
_GRID_MEMO_SIZE = 4
_GRID_MEMO_MAX_NODES = 512

# Widths of the error-free leading parts: the N/2 <= MAX_GRID_SIZE/2 products of
# a _TABLE_BITS-bit integer and a folded (_VECTOR_BITS + 1)-bit one sum
# exactly in float64, since
# _TABLE_BITS + _VECTOR_BITS + 1 + ceil(log2(MAX_GRID_SIZE / 2)) <= 52.
_TABLE_BITS = 21
_VECTOR_BITS = 20


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
    """A spectral table in parity blocks, split for the kernel (``_split_table``)."""

    halves: np.ndarray  # (2, 2K, K): block p is [T_0 ; T_1], input-major
    col_scale: np.ndarray  # (N,) the inputs' powers of two, in input order
    nodes_in: bool  # inputs are nodes (analysis), else degrees (synthesis)


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: a memoized grid is shared by all its callers."""
    array.flags.writeable = False
    return array


def _split_table(basis: np.ndarray, size: int, nodes_in: bool) -> _Table:
    """The (N, K) longdouble ``basis`` (degrees by nonnegative nodes) split
    into float64 halves [T_0 ; T_1] per parity block, input-major: entry
    [p, i, o] carries input i to output o in block p.  Block p holds the rows
    basis[p::2] as they are (synthesis, degree inputs) or transposed
    (analysis, node inputs); an odd N leaves the odd block's last degree zero.

    Each input is scaled by the power of two that brings its largest entry to
    [1/2, 1).  Output o of T_0 is the scaled entries rounded to the grid
    2^(E_o - _TABLE_BITS), where max |entry| <= 2^E_o; T_1 is the rest, good
    to 2^(E_o - 74).  A node pair has one scale (as an input) or one grid (as
    an output) across both blocks, which keeps the fold exact; each degree has
    its own.  The exact float64 pairs hi + lo of the entries go straight into
    the T_0 and T_1 slots, so the split runs in float64 and copies no table.
    """
    half = basis.shape[1]
    halves = np.zeros((2, 2 * half, half))
    t0, t1 = halves[:, :half], halves[:, half:]
    # hi = fl(T) in T_0's slot and lo = fl(T - hi) in T_1's
    hi, lo = (t0.transpose(0, 2, 1), t1.transpose(0, 2, 1)) if nodes_in else (t0, t1)
    for hi_p, lo_p, rows in zip(hi, lo, (basis[0::2], basis[1::2])):
        hi_p[: len(rows)] = rows
        np.subtract(rows, hi_p[: len(rows)], out=lo_p[: len(rows)], casting="same_kind")
    in_axes, out_axes = ((0, 2), 1) if nodes_in else (2, (0, 1))
    _, exp = np.frexp(np.maximum(t0.max(axis=in_axes, keepdims=True),
                                 -t0.min(axis=in_axes, keepdims=True)))
    scale = np.ldexp(1.0, exp)
    t0 /= scale
    t1 /= scale
    _, exp = np.frexp(np.maximum(t0.max(axis=out_axes, keepdims=True),
                                 -t0.min(axis=out_axes, keepdims=True)))
    unit = np.ldexp(1.0, exp - _TABLE_BITS)
    rounded = t0 / unit
    np.rint(rounded, out=rounded)
    rounded *= unit
    # hi - T_0 is exact (both lie on hi's grid); lo lies below hi's last bit
    t1 += np.subtract(t0, rounded, out=t0)
    t0[...] = rounded
    # the inputs' scales in node order (mirrored) or degree order (interleaved)
    scale = _mirror(scale.ravel(), size) if nodes_in else scale[..., 0].T.ravel()[:size]
    return _Table(_read_only(halves), _read_only(scale), nodes_in)


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
        self._synthesis = _split_table(basis, size, nodes_in=False)
        basis *= pair_w
        self._analysis = _split_table(basis, size, nodes_in=True)
        # the norms h_l and the factors 2 (l+lam) h_l of ``differentiate``
        self._norms = _read_only(norms)
        self._deriv_scale = _read_only(2 * (ells + lam) * norms)
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

    def _product(self, table: _Table, vec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``table @ vec`` as 2^e (lead + rest): ``lead`` = T_0 d exactly, ``rest`` the
        float64 product of the parts, at most 2^-20 of |T| |vec| (module docstring).

        ``vec`` is one vector (N,) or a stack (B, N), float64 or longdouble;
        each row enters as its exact float64 pair, scaled by the table's input
        powers of two and then by its own 2^-e.  A synthesis also takes
        L < N coefficients, (L,) or (B, L), and reads only the table rows of
        the degree pairs up to the last nonzero coefficient of any row, while
        they are at most a third of the table.  ``lead`` and ``rest`` have N
        values per row; ``e`` broadcasts against them.  For a stack, each
        parity block p takes two batched GEMMs over the fields: d_p with T_0,
        and [w_p | hi_p] with [T_0 ; T_1].  A lone field takes one, of its
        rows [w_p | hi_p] and [d_p | 0] (module docstring).
        """
        halves, col_scale, nodes_in = table
        vec = np.asarray(vec)
        n, k = self.size, halves.shape[-1]
        rows = vec.reshape(-1, vec.shape[-1])
        hi = rows.astype(float)
        # the low half of the pair; zero, and skipped, for float64 input
        lo = (rows - hi).astype(float) if rows.dtype != hi.dtype else None
        pairs = k
        if not nodes_in and not hi[:, 2 * (k // 3):].any():
            # every row is zero past the first third of the degree pairs (lo
            # is zero where hi is): read the pairs up to the last nonzero
            # coefficient alone, their table rows copied out below (module
            # docstring)
            nonzero = np.flatnonzero(hi.any(axis=0))
            pairs = (nonzero[-1] + 2) // 2 if nonzero.size else 1
            hi = hi[:, : 2 * pairs]
            lo = None if lo is None else lo[:, : 2 * pairs]
        b, size = hi.shape
        hi *= col_scale[:size]
        if lo is not None:
            lo *= col_scale[:size]
        e = np.frexp(np.abs(hi).max(axis=-1, keepdims=True))[1]
        # per block and field, the GEMM rows [w_p | hi_p] and d_p (a lone field: [d_p | 0])
        parts = np.empty((2, b, 3 + (b == 1), pairs))
        if nodes_in:
            # split in node order, then fold the node pairs
            x = np.empty((b, 3, n))
        else:
            # sort the degrees by parity first; the split is elementwise
            hi = _by_parity(hi, pairs)
            lo = None if lo is None else _by_parity(lo, pairs)
            x = parts[:, :, :3]
        w, h, d = x[..., 0, :], x[..., 1, :], x[..., 2, :]
        np.ldexp(hi, -e, out=h)
        # d: h on the grid 2^-_VECTOR_BITS (exact); w: the rest
        np.divide(np.rint(h * 2.0**_VECTOR_BITS), 2.0**_VECTOR_BITS, out=d)
        np.subtract(h, d, out=w)
        if lo is not None:
            w += np.ldexp(lo, -e)
        if nodes_in:
            # node y_j and its mirror share a scale, so d_P +- d_M is exact
            pos, neg = x[..., n - k:], x[..., k - 1::-1]
            np.add(pos, neg, out=parts[0, :, :3])
            np.subtract(pos, neg, out=parts[1, :, :3])
        if pairs < k:
            # the rows of T_0 and T_1 for the first ``pairs`` degree pairs
            halves = np.concatenate((halves[:, :pairs], halves[:, k:k + pairs]), axis=1)
        out = np.empty((2, 2, b, k))  # block, (rest, lead), field, output
        if b > 1:
            np.matmul(parts[:, :, :2].reshape(2, b, 2 * pairs), halves, out=out[:, 0])
            np.matmul(parts[:, :, 2], halves[:, :pairs], out=out[:, 1])
        else:
            parts[..., 3, :] = 0.0
            np.matmul(parts.reshape(2, 2, 2 * pairs), halves, out=out.reshape(2, 2, k))
        if nodes_in:
            # block p holds the degrees of parity p: interleave them
            res = out.transpose(1, 2, 3, 0).reshape(2, b, 2 * k)[..., :n]
        else:
            # the blocks give the even and the odd part of the output: their
            # sum at y_j, their difference at -y_j.  Both leads lie on the
            # node's grid, so these sums are exact
            even_fn, odd_fn = out
            res = np.empty((2, b, n))
            np.subtract(even_fn, odd_fn, out=res[..., k - 1::-1])
            np.add(even_fn, odd_fn, out=res[..., n - k:])
        shape = vec.shape[:-1]
        rest, lead = res.reshape((2,) + shape + (n,))
        return lead, rest, e.reshape(shape + (1,))

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Orthonormal Gegenbauer coefficients of sampled values (longdouble).

        ``values`` is one field (N,) or a stack (B, N).  Coefficients at the
        quadrature-roundoff level of their own row are zeroed (see _FILTER_FLOOR).
        """
        lead, rest, e = self._product(self._analysis, values)
        coeffs = lead.astype(_LD)
        coeffs += rest
        coeffs *= np.ldexp(_LD(1), e)
        # the filter is scale-free, so it runs on the float64 sum before scaling;
        # each row's norm is its own dot product s @ s, as for a single field
        # (a stack of 1 x N by N x 1 products; an einsum would sum in another
        # order and move filter decisions)
        scaled = lead + rest
        norms = np.sqrt(scaled[..., None, :] @ scaled[..., None]).reshape(np.shape(e))
        coeffs[np.abs(scaled) <= _FILTER_FLOOR * norms] = 0.0
        return coeffs

    def _synthesize(self, coeffs) -> np.ndarray:
        lead, rest, e = self._product(self._synthesis, coeffs)
        return np.ldexp(lead + rest, e)

    def synthesize_ld(self, coeffs: np.ndarray) -> np.ndarray:
        """Values at the nodes of the orthonormal coefficients ``coeffs``, (L,) or
        (B, L) with 1 <= L <= N; the degrees from L on are zero."""
        return self._synthesize(coeffs)

    def apply_multiplier(self, values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
        c = self.analyze(values)
        return self._synthesize(np.asarray(multiplier).astype(_LD) * c)

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
        q = np.zeros(c.shape[:-1] + (m + m % 2,), dtype=_LD)
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
        """Orthonormal Gegenbauer coefficients (float64 view)."""
        return np.asarray(self.grid.analyze(self.values), dtype=float)


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
