import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scipy.special import roots_jacobi

from conformal_zeta import zonal
from conformal_zeta.errors import GridMismatchError
from conformal_zeta.params import sphere_volume
from conformal_zeta.zonal import (_FILTER_K, _TABLE_BITS, _VECTOR_BITS, MAX_GRID_SIZE,
                                  ZonalField, _gauss_nodes, _gegenbauer_table, _jacobi_nodes,
                                  _newton_step, constant_field,
                                  field_from_function, grad_sq, integrate, inner, laplacian,
                                  lp_norm, make_grid, random_band_limited, random_zonal,
                                  synthesize)
from oracles import fd_laplacian, zonal_moment


def test_grid_invariants(grid4):
    assert np.all(np.diff(grid4.nodes) > 0)
    assert np.all(grid4.weights > 0)
    assert grid4.weights.sum() == pytest.approx(sphere_volume(4), rel=1e-12)


@pytest.mark.parametrize("n", [4, 6, 104])
@pytest.mark.parametrize("size", [16, 17, 256, 1024])
def test_jacobi_nodes_match_scipy(n, size):
    a = (n - 2) / 2.0
    want = roots_jacobi(size, a, a)[0]
    got = _jacobi_nodes(size, a)
    assert np.abs(got - want).max() <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("size", [16, 17, 256])
def test_grid_nodes_are_antisymmetric(size):
    x = make_grid(4, size).nodes
    assert np.array_equal(x, -x[::-1])


@pytest.mark.parametrize("n", [4, 6, 104])
@pytest.mark.parametrize("size", [16, 97, 256, 2048])
def test_one_newton_step_reaches_longdouble_accuracy(n, size, monkeypatch):
    # C_N is summed from terms of order 1, so a node is good to an absolute,
    # not a relative, longdouble unit; a further step must stay within one
    monkeypatch.setattr(zonal, "_gegenbauer_table", functools.partial(pytest.fail, "table built"))
    x = _gauss_nodes(n, size)
    again = _newton_step(x, np.longdouble(n - 1) / 2, size)
    assert x.dtype == np.longdouble
    assert np.abs(again - x).max() <= np.finfo(np.longdouble).eps


def test_derivative_table_is_built_on_first_differentiate(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _gegenbauer_table(*args)

    monkeypatch.setattr(zonal, "_gegenbauer_table", counted)
    grid = make_grid(4, 64)
    assert len(calls) == 1
    f = field_from_function(grid, np.cos)
    grid.analyze(f.values)
    laplacian(f)
    grid.apply_multiplier(f.values, grid.laplacian_eigenvalues)
    assert len(calls) == 1
    first = grid.differentiate(f.values)
    assert len(calls) == 2 and calls[1] == calls[0] + 1  # C^{lam+1}
    assert np.array_equal(grid.differentiate(f.values), first)
    assert len(calls) == 2


def test_rejects_small_grid():
    with pytest.raises(ValueError):
        make_grid(4, 8)


def test_rejects_odd_dimension():
    with pytest.raises(ValueError):
        make_grid(5, 64)


def test_integrate_constant_n4():
    grid = make_grid(4, 64)
    # closed form omega_4 = 2 pi^{5/2} / Gamma(5/2) = 8 pi^2 / 3
    assert integrate(constant_field(grid, 1.0)) == pytest.approx(8 * math.pi**2 / 3, rel=1e-12)


def test_integrate_odd_function_vanishes():
    grid = make_grid(4, 64)
    f = ZonalField(grid, grid.nodes.copy())  # cos(theta)
    assert abs(integrate(f)) < 1e-13


def test_integrate_converged_in_resolution():
    vals = []
    for size in (64, 128):
        grid = make_grid(6, size)
        vals.append(integrate(field_from_function(grid, lambda th: np.exp(np.cos(th)))))
    assert abs(vals[0] - vals[1]) < 1e-12


def test_quadrature_exact_to_degree_2n_minus_1():
    grid = make_grid(4, 64)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(2 * 64 - 1)  # degree 2N-2 polynomial in x
    poly = np.polynomial.polynomial.polyval(grid.nodes, coeffs)
    got = float(poly @ grid.weights)
    surface = sphere_volume(3)
    want = surface * math.fsum(c * zonal_moment(4, j) for j, c in enumerate(coeffs))
    assert got == pytest.approx(want, rel=1e-12)


def test_second_moment_beta_oracle():
    grid = make_grid(4, 64)
    f = ZonalField(grid, grid.nodes**2)
    # 2 pi^2 * int x^2 (1-x^2) dx = omega_4 / 5
    assert integrate(f) == pytest.approx(sphere_volume(4) / 5, rel=1e-13)


def test_lp_norm_constant(grid4):
    p = 4.0
    assert lp_norm(constant_field(grid4, 1.0), p) == pytest.approx(
        sphere_volume(4) ** (1 / p), rel=1e-14)


@given(c=st.floats(min_value=-100, max_value=100, allow_nan=False).filter(lambda v: abs(v) > 1e-6),
       q=st.floats(min_value=1.0, max_value=6.0))
def test_lp_norm_homogeneous(c, q):
    grid = make_grid(4, 16)
    f = ZonalField(grid, 1.0 + 0.5 * grid.nodes)
    assert lp_norm(ZonalField(grid, c * f.values), q) == pytest.approx(
        abs(c) * lp_norm(f, q), rel=1e-12)


def test_lp_norm_rejects_q_below_one(grid4):
    with pytest.raises(ValueError):
        lp_norm(constant_field(grid4, 1.0), 0.5)


def test_laplacian_kills_constants(grid4):
    out = laplacian(constant_field(grid4, 3.7))
    assert np.abs(out.values).max() < 1e-13


def test_laplacian_degree_one_eigenvalue(grid4):
    f = ZonalField(grid4, grid4.nodes.copy())
    out = laplacian(f)
    assert np.abs(out.values - 4.0 * grid4.nodes).max() < 1e-12


def test_laplacian_degree_two_eigenvalue_n6(grid6):
    f = synthesize(grid6, [0.0, 0.0, 1.0])
    out = laplacian(f)
    assert np.abs(out.values - 14.0 * f.values).max() < 1e-12


def test_laplacian_matches_finite_differences(grid4):
    fn = lambda th: np.exp(np.cos(th)) * np.cos(th)
    field = field_from_function(grid4, fn)
    spectral = laplacian(field)
    # compare at the grid's own interior nodes so no interpolation error enters
    keep = np.abs(grid4.nodes) < 0.95
    theta = np.arccos(grid4.nodes[keep])
    errs = []
    for h in (2e-3, 1e-3):
        fd = fd_laplacian(fn, theta, 4, h)
        errs.append(np.abs(fd - spectral.values[keep]).max())
    order = math.log2(errs[0] / errs[1])
    assert errs[1] < 1e-4
    assert order > 1.9


def test_grad_sq_constant_is_zero(grid4):
    assert np.abs(grad_sq(constant_field(grid4, 2.0)).values).max() < 1e-14


def test_grad_sq_cos_theta(grid4):
    f = ZonalField(grid4, grid4.nodes.copy())
    want = 1.0 - grid4.nodes**2  # symbolic: |d cos|^2 = sin^2
    assert np.abs(grad_sq(f).values - want).max() < 1e-12


def test_integration_by_parts(grid4):
    rng = np.random.default_rng(5)
    f = synthesize(grid4, rng.standard_normal(40) / (1 + np.arange(40.0)))
    lhs = integrate(grad_sq(f))
    rhs = inner(f, laplacian(f))
    assert abs(lhs - rhs) < 1e-10


def test_parseval(grid4):
    rng = np.random.default_rng(7)
    f = synthesize(grid4, rng.standard_normal(50))
    assert inner(f, f) == pytest.approx(float((f.coefficients() ** 2).sum()), abs=1e-10)


def test_roundtrip_band_limited(grid4):
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(64)
    f = synthesize(grid4, coeffs)
    back = f.coefficients()[:64]
    assert np.abs(back - coeffs).max() < 1e-12


def test_random_zonal_deterministic(grid4):
    a = random_zonal(grid4, 42, 16, 0.5, 1e-3)
    b = random_zonal(grid4, 42, 16, 0.5, 1e-3)
    assert np.array_equal(a.values, b.values)


def test_random_zonal_respects_floor(grid4):
    f = random_zonal(grid4, 1, 16, 2.0, 0.25)
    assert f.values.min() >= 0.25 - 1e-15


def test_random_zonal_band_limited(grid4):
    f = random_zonal(grid4, 3, 12, 1.0, 0.1)
    assert np.abs(f.coefficients()[13:]).max() < 1e-12


def test_monotone_on_nonnegative(grid4):
    f = random_zonal(grid4, 8, 10, 1.0, 0.2)
    assert integrate(f) > 0


# -- the sliced float64 kernel against a longdouble reference ------------------

LD = np.longdouble
EPS_LD = float(np.finfo(LD).eps)


def _reference_tables(n, size):
    """The grid's analysis, synthesis and derivative tables as dense longdouble
    matrices, built directly from the three-term recurrence."""
    lam = LD(n - 1) / 2
    x = roots_jacobi(size, (n - 2) / 2.0, (n - 2) / 2.0)[0].astype(LD)
    for _ in range(4):
        val = _gegenbauer_table(x, lam, size + 1)[size]
        der = 2 * lam * _gegenbauer_table(x, lam + 1, size)[size - 1]
        x = x - val / der
    ells = np.arange(size, dtype=LD)
    q = np.ones(size, dtype=LD)
    for j in range(1, n - 1):
        q *= ells + j
    q /= ells + lam
    table = _gegenbauer_table(x, lam, size)
    w = 1.0 / np.square(table / np.sqrt(q)[:, None]).sum(axis=0)
    w *= LD(sphere_volume(n)) / w.sum()
    norms = np.sqrt((table * table) @ w)
    basis = table / norms[:, None]
    deriv = np.zeros((size, size), dtype=LD)
    deriv[1:] = 2 * lam * _gegenbauer_table(x, lam + 1, size - 1) / norms[1:, None]
    return basis * w, basis.T, deriv.T


def _filtered(coeffs):
    floor = _FILTER_K * EPS_LD * float(np.sqrt(float((coeffs * coeffs).sum())))
    return np.where(np.abs(coeffs) <= floor, LD(0), coeffs)


def _within(got, want, scale, k=8.0):
    """|got - want| <= k eps_ld max(scale), plus float64 rounding of a float64 result."""
    err = np.abs(np.asarray(got, dtype=LD) - np.asarray(want, dtype=LD))
    rounding = np.spacing(np.abs(np.asarray(want, dtype=float))) if got.dtype == float else 0.0
    return bool(np.all(err <= k * EPS_LD * np.max(scale) + rounding))


def _check_kernel_against_reference(n, size):
    grid = make_grid(n, size)
    analysis, synthesis, derivative = _reference_tables(n, size)
    eigs = grid.laplacian_eigenvalues
    for fn in (lambda th: np.exp(np.cos(th)), lambda th: 1.0 / (1.05 - np.cos(th))):
        v = fn(grid.theta)
        vl = v.astype(LD)
        coeffs = _filtered(analysis @ vl)
        # the scale of each product: |table| |vector|, the bound of its roundoff
        c_scale = np.abs(analysis) @ np.abs(vl)
        assert _within(grid.analyze(v), coeffs, c_scale)
        assert _within(grid.synthesize_ld(coeffs), synthesis @ coeffs,
                       np.abs(synthesis) @ np.abs(coeffs))
        mult = eigs.astype(LD)
        assert _within(grid.apply_multiplier(v, eigs), synthesis @ (mult * coeffs),
                       np.abs(synthesis) @ (mult * (np.abs(coeffs) + c_scale)))
        assert _within(grid.differentiate(v), derivative @ coeffs,
                       np.abs(derivative) @ (np.abs(coeffs) + c_scale))


@pytest.mark.parametrize("n", [4, 104])
def test_kernel_matches_longdouble_reference(n):
    # the odd grid has a centre node, its own mirror in the fold
    for size in (256, 97):
        _check_kernel_against_reference(n, size)


def test_slice_bit_budget_makes_leading_products_exact():
    # the analysis folds each node pair, d_P + d_M, into one integer of
    # _VECTOR_BITS + 1 bits, and sums MAX_GRID_SIZE / 2 products of them
    half = MAX_GRID_SIZE // 2
    assert _TABLE_BITS + (_VECTOR_BITS + 1) + math.ceil(math.log2(half)) <= 52
    rng = np.random.default_rng(3)
    # worst case: every entry at its largest magnitude, signs random
    row = rng.choice([-1, 1], half) * 2**_TABLE_BITS
    for vec in (row // 2**(_TABLE_BITS - _VECTOR_BITS - 1),  # every product positive
                rng.choice([-1, 1], half) * 2**(_VECTOR_BITS + 1)):
        exact = sum(int(a) * int(b) for a, b in zip(row, vec))
        # on their grids, as the kernel holds them
        got = np.ldexp(row, -40).astype(float) @ np.ldexp(vec, -_VECTOR_BITS).astype(float)
        assert np.ldexp(got, 40 + _VECTOR_BITS) == exact
    # a synthesis adds the two blocks' leads, each of half products with
    # unfolded _VECTOR_BITS-bit slices, on the shared grid of a node pair
    for sign in (1, -1):
        rows = np.stack([row, sign * row])
        vecs = np.stack([row // 2**(_TABLE_BITS - _VECTOR_BITS)] * 2)
        exact = sum(int(a) * int(b) for a, b in zip(rows.ravel(), vecs.ravel()))
        leads = np.einsum("ij,ij->i", np.ldexp(rows, -40), np.ldexp(vecs, -_VECTOR_BITS))
        assert np.ldexp(leads[0] + leads[1], 40 + _VECTOR_BITS) == exact


@pytest.mark.parametrize("size", [97, 256])
def test_tables_take_24_n_squared_bytes(size):
    grid = make_grid(4, size)
    grid.differentiate(np.ones(size))  # builds the derivative table too
    tables = (grid._analysis, grid._synthesis, grid._derivative)
    used = sum(t.halves.nbytes + t.col_scale.nbytes for t in tables)
    assert used <= 24 * size**2 + 128 * size


@pytest.mark.parametrize("n", [4, 104])
def test_zero_vector_round_trips(n):
    grid = make_grid(n, 64)
    zero = np.zeros(grid.size)
    assert not np.any(grid.analyze(zero))
    assert not np.any(grid.synthesize_ld(zero))
    assert not np.any(grid.apply_multiplier(zero, grid.laplacian_eigenvalues))
    assert not np.any(grid.differentiate(zero))


@pytest.mark.parametrize("n", [4, 104])
def test_single_coefficient_round_trips(n):
    grid = make_grid(n, 64)
    for i in (0, grid.size // 2, grid.size - 1):
        mode = np.zeros(grid.size)
        mode[i] = 3.0
        back = np.asarray(grid.analyze(grid.synthesize_ld(mode)), dtype=float)
        assert np.abs(back - mode).max() < 1e-15


def test_single_value_round_trips(grid4_small):
    grid = grid4_small
    for i in (0, grid.size // 2, grid.size - 1):
        spike = np.zeros(grid.size)
        spike[i] = 3.0
        assert np.abs(grid.synthesize_ld(grid.analyze(spike)) - spike).max() < 1e-15


# -- stacks of fields: one GEMM per transform ----------------------------------

_SMOOTH = (lambda th: np.exp(np.cos(th)), lambda th: 1.0 / (1.05 - np.cos(th)))


@functools.lru_cache(maxsize=None)
def _grid_and_tables(n, size=256):
    return make_grid(n, size), _reference_tables(n, size)


def _stack(grid, count):
    """The reference test's two smooth fields, then seeded random ones."""
    smooth = [fn(grid.theta) for fn in _SMOOTH]
    return np.vstack(smooth + [random_zonal(grid, np.arange(count), 48, 1.0, 0.05).values])[:count]


def _transforms(grid):
    eigs = grid.laplacian_eigenvalues
    return {
        "analyze": grid.analyze,
        "synthesize": grid.synthesize_ld,
        "multiplier": lambda v: grid.apply_multiplier(v, eigs),
        "differentiate": grid.differentiate,
    }


@pytest.mark.parametrize("n", [4, 104])
@pytest.mark.parametrize("count", [1, 3, 100])
def test_stacked_transforms_match_row_by_row(n, count):
    for size in (256, 97):  # the odd grid has a centre node
        _check_stack_row_by_row(n, size, count)


def _check_stack_row_by_row(n, size, count):
    grid, (analysis, synthesis, derivative) = _grid_and_tables(n, size)
    values = _stack(grid, count)
    coeffs = grid.analyze(values)
    mult = grid.laplacian_eigenvalues.astype(LD)
    stacked = {name: fn(coeffs if name == "synthesize" else values)
               for name, fn in _transforms(grid).items()}
    for r in range(count):
        v, c = values[r].astype(LD), coeffs[r]
        c_scale = np.abs(analysis) @ np.abs(v)
        scales = {
            "analyze": c_scale,
            "synthesize": np.abs(synthesis) @ np.abs(c),
            "multiplier": np.abs(synthesis) @ (mult * (np.abs(c) + c_scale)),
            "differentiate": np.abs(derivative) @ (np.abs(c) + c_scale),
        }
        for name, fn in _transforms(grid).items():
            row = fn(c if name == "synthesize" else values[r])
            assert _within(stacked[name][r], row, scales[name]), (size, name, r)
        # each row is filtered against its own floor, as it would be alone
        assert np.array_equal(coeffs[r] == 0, grid.analyze(values[r]) == 0)


@pytest.mark.parametrize("n", [4, 104])
def test_single_row_stack_is_bit_identical(n):
    grid, _ = _grid_and_tables(n)
    for v in (fn(grid.theta) for fn in _SMOOTH):
        c = grid.analyze(v)
        for name, fn in _transforms(grid).items():
            arg = c if name == "synthesize" else v
            assert np.array_equal(fn(arg[None])[0], fn(arg)), name


@pytest.mark.parametrize("shape", [(3, 95), (3, 97), (2, 3, 96), (0, 96), ()])
def test_field_rejects_bad_stack_shapes(grid4_small, shape):
    with pytest.raises(GridMismatchError):
        ZonalField(grid4_small, np.ones(shape))


def test_stack_broadcasts_against_a_field(grid4_small):
    grid = grid4_small
    stack = random_zonal(grid, np.arange(3), 16, 1.0, 0.1)
    one = constant_field(grid, 2.0)
    assert np.array_equal((stack * one).values, 2.0 * stack.values)
    assert integrate(stack).shape == inner(stack, one).shape == lp_norm(stack, 4.0).shape == (3,)
    for r in range(3):
        row = ZonalField(grid, stack.values[r])
        assert integrate(stack)[r] == pytest.approx(integrate(row), rel=1e-14)
        assert inner(stack, one)[r] == pytest.approx(inner(row, one), rel=1e-14)
        assert lp_norm(stack, 4.0)[r] == pytest.approx(lp_norm(row, 4.0), rel=1e-14)


@pytest.mark.parametrize("make", [lambda g, s: random_zonal(g, s, 16, 0.5, 1e-3),
                                  lambda g, s: random_band_limited(g, s, 16, 0.3)])
def test_seed_array_matches_per_seed_fields(grid4, make):
    seeds = np.array([5, 17, 4000])
    stack = make(grid4, seeds).values
    assert stack.shape == (3, grid4.size)
    for row, seed in zip(stack, seeds):
        one = make(grid4, int(seed)).values
        assert np.abs(row - one).max() <= 1e-15 * np.abs(one).max()


def test_int_seed_fields_keep_their_arithmetic(grid4):
    # the per-field recipes, written out: an int seed must reproduce them bit for bit
    coeffs = np.random.default_rng(42).standard_normal(17) / (1.0 + np.arange(17))
    rough = synthesize(grid4, coeffs).values
    assert np.array_equal(random_zonal(grid4, 42, 16, 0.5, 1e-3).values,
                          1e-3 + 0.5 * (rough - rough.min()))
    coeffs = np.random.default_rng(42).standard_normal(17) * np.exp(-((np.arange(17) / 5.0) ** 2))
    rough = synthesize(grid4, coeffs).values
    assert np.array_equal(random_band_limited(grid4, 42, 16, 0.3).values,
                          0.3 * rough / np.abs(rough).max())


def test_band_limited_zeroes_only_zero_rows(grid4_small, monkeypatch):
    draw = zonal._normals

    def with_zero_row(seed, count):
        out = draw(seed, count)
        out[1] = 0.0
        return out

    monkeypatch.setattr(zonal, "_normals", with_zero_row)
    stack = random_band_limited(grid4_small, np.arange(3), 16, 0.3).values
    assert not np.any(stack[1])
    assert np.all(np.isfinite(stack))
    for r in (0, 2):
        assert np.abs(stack[r]).max() == pytest.approx(0.3, rel=1e-15)
