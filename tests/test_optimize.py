import dataclasses
import math

import numpy as np
import pytest

import conformal_zeta.optimize as optimize
from conformal_zeta.background import round_sphere_background
from conformal_zeta.functionals import dilation_factor, mass_functional
from conformal_zeta.optimize import (OptimizerConfig, constant_mass_check,
                                     euler_lagrange_residual, fit_dilation_orbit,
                                     maximize_mass_functional, maximize_stack)
from conformal_zeta.zonal import ZonalField, constant_field, random_zonal


@pytest.fixture(scope="module")
def sphere4(grid4):
    return round_sphere_background(4, grid4, variant="paper")


@pytest.fixture(scope="module")
def bump4(grid4):
    mnor = ZonalField(grid4, 0.02 * np.exp(-grid4.theta**2 / 0.1))
    return round_sphere_background(4, grid4, variant="paper", mnor=mnor)


def sphere_value(bg):
    return -bg.params.b_n * bg.params.yamabe_sphere


def test_constant_start_needs_no_iterations(grid4, sphere4):
    res = maximize_mass_functional(sphere4, start=constant_field(grid4, 1.0))
    assert res.converged
    assert res.iterations <= 1
    assert res.residual < 1e-10
    assert res.value == pytest.approx(sphere_value(sphere4), rel=1e-12)


def test_perturbed_start_recovers_orbit(grid4, sphere4):
    start = ZonalField(grid4, 1.0 + 0.3 * grid4.nodes)
    res = maximize_mass_functional(sphere4, start=start)
    assert res.converged
    assert res.value == pytest.approx(sphere_value(sphere4), rel=1e-6)
    t_hat, gap = fit_dilation_orbit(res.u_star, sphere4)
    assert gap < 1e-4


@pytest.mark.parametrize("t0", [-2.0, 0.3, 1.7])
def test_orbit_fit_recovers_a_dilation(grid4, sphere4, t0):
    t_hat, gap = fit_dilation_orbit(dilation_factor(t0, grid4), sphere4)
    assert abs(t_hat - t0) <= 1e-8
    assert gap <= 1e-12


def test_seed_independence(sphere4):
    values = [maximize_mass_functional(sphere4, OptimizerConfig(seed=s)).value
              for s in range(3)]
    target = sphere_value(sphere4)
    for v in values:
        assert v == pytest.approx(target, rel=1e-6)


def test_positive_mass_data_raises_value(grid4, bump4):
    res = maximize_mass_functional(bump4, OptimizerConfig(seed=1))
    assert res.converged
    assert res.value > sphere_value(bump4) + 1e-4
    assert res.mass_reldev < 1e-6
    # consistency: mass mean equals -Lambda at unit p-norm
    assert res.mass_mean == pytest.approx(-res.lam, rel=1e-8)


def test_history_monotone_within_stages(grid4, sphere4):
    start = ZonalField(grid4, 1.0 + 0.25 * grid4.nodes)
    res = maximize_mass_functional(sphere4, start=start)
    assert len(res.history) > 1  # the start and at least one accepted step
    assert np.all(np.diff(np.asarray(res.history)) >= 0)
    assert res.value >= res.history[0] - 1e-15


def test_non_convergence_is_reported(grid4, sphere4):
    start = ZonalField(grid4, 1.0 + 0.3 * grid4.nodes)
    cfg = OptimizerConfig(tol_residual=1e-30)  # below working precision
    res = maximize_mass_functional(sphere4, cfg, start=start)
    assert not res.converged
    assert math.isfinite(res.residual)
    assert res.stop_reason == "polish_stalled"


@pytest.mark.parametrize("cap, reason", [("_MAX_ITERS", "max_iters"),
                                         ("_MAX_POLISH", "max_polish")])
def test_stop_reason_names_the_cap(grid4, sphere4, monkeypatch, cap, reason):
    monkeypatch.setattr(optimize, cap, 1)
    start = ZonalField(grid4, 1.0 + 0.3 * grid4.nodes)
    res = maximize_mass_functional(sphere4, OptimizerConfig(tol_residual=1e-30), start=start)
    assert not res.converged
    assert res.stop_reason == reason


def test_rejects_nonpositive_start(grid4, sphere4):
    with pytest.raises(ValueError):
        maximize_mass_functional(sphere4, start=ZonalField(grid4, grid4.nodes.copy()))


def test_el_residual_on_constants(grid4, sphere4):
    lam, residual = euler_lagrange_residual(constant_field(grid4, 1.0), sphere4)
    assert lam == pytest.approx(2.0 * sphere4.params.c_n, rel=1e-12)
    assert lam == pytest.approx(1 / (48 * math.pi**2), rel=1e-12)
    assert residual < 1e-12


def test_el_residual_on_dilations(grid4, sphere4):
    for t in (0.5, 1.0, 2.0):
        _, residual = euler_lagrange_residual(dilation_factor(t, grid4), sphere4)
        assert residual < 1e-8


def test_el_residual_generic_field_is_reported(grid4, sphere4):
    u = random_zonal(grid4, 55, 10, 1.0, 0.3)
    lam, residual = euler_lagrange_residual(u, sphere4)
    assert math.isfinite(lam)
    assert residual > 0  # generic non-solution; magnitude reported, not bounded


def test_el_residual_rejects_nonpositive(grid4, sphere4):
    with pytest.raises(ValueError):
        euler_lagrange_residual(ZonalField(grid4, grid4.nodes.copy()), sphere4)


def test_constant_mass_check_on_constants(grid4, sphere4):
    mean, reldev = constant_mass_check(constant_field(grid4, 1.0), sphere4)
    b_n = sphere4.params.b_n
    assert mean == pytest.approx(-b_n * 12.0, rel=1e-12)
    assert reldev < 1e-12


def test_constant_mass_check_generic_field(grid4, sphere4):
    u = random_zonal(grid4, 56, 10, 1.0, 0.3)
    mean, reldev = constant_mass_check(u, sphere4)
    assert math.isfinite(mean)
    assert reldev > 1e-3  # generic fields are far from constant mass


def test_optimum_solves_critical_equation(grid4, bump4):
    res = maximize_mass_functional(bump4, OptimizerConfig(seed=2))
    lam, residual = euler_lagrange_residual(res.u_star, bump4)
    assert residual < 1e-8
    assert lam == pytest.approx(res.lam, rel=1e-10)
    # the achieved value beats the start and matches the functional recomputed
    assert res.value == pytest.approx(mass_functional(res.u_star, bump4), rel=1e-12)


def _scalars(res):
    """Every field of a result but the optimum itself, which is an array."""
    return dataclasses.replace(res, u_star=None)


def test_one_row_stack_is_the_single_run(grid4, bump4):
    start = optimize.seeded_start(grid4, 5)
    single = maximize_mass_functional(bump4, start=start)
    (row,) = maximize_stack(bump4, ZonalField(grid4, start.values[None]))
    assert _scalars(row) == _scalars(single)
    assert np.array_equal(row.u_star.values, single.u_star.values)
    assert single.iterations == single.ascent_steps + single.polish_steps
    assert single.ascent_steps > 0 and single.backtracks > 0


def test_stack_rows_keep_their_own_stage(grid4, sphere4, monkeypatch):
    # the constant start is exact; alone, the mild start converges in 4 ascent
    # steps and the steep one in 19, so the steep one runs into the ascent cap
    # and, with no polish steps allowed, stops there
    monkeypatch.setattr(optimize, "_MAX_ITERS", 10)
    monkeypatch.setattr(optimize, "_MAX_POLISH", 0)
    x = grid4.nodes
    starts = np.stack([np.ones(grid4.size), 1.0 + 1e-6 * x * x, 1.0 + 0.3 * x])
    const, mild, steep = maximize_stack(sphere4, ZonalField(grid4, starts))
    assert const.stop_reason == "tolerance_met" and const.iterations <= 1
    assert mild.stop_reason == "tolerance_met" and 1 <= mild.ascent_steps < 10
    assert steep.stop_reason == "max_polish"
    assert (steep.ascent_steps, steep.polish_steps) == (10, 0)
    assert const.converged and mild.converged and not steep.converged
    for res in (const, mild, steep):
        assert res.iterations == res.ascent_steps + res.polish_steps
        assert len(res.history) == res.ascent_steps + 1  # every line search found an increase
        assert np.all(np.diff(res.history) >= 0)
        assert res.converged == (res.residual <= 1e-8)


def test_stack_rows_meet_their_tolerance(grid4, sphere4):
    results = maximize_stack(sphere4, optimize.seeded_start(grid4, np.arange(4)))
    for res, seed in zip(results, range(4)):
        assert res.converged and res.stop_reason == "tolerance_met"
        assert res.residual < 1e-8
        assert res.value == pytest.approx(sphere_value(sphere4), rel=1e-6)
        single = maximize_mass_functional(sphere4, OptimizerConfig(seed=seed))
        assert res.value == pytest.approx(single.value, rel=1e-12)


def test_stack_rejects_a_nonpositive_row(grid4, sphere4):
    starts = np.stack([np.ones(grid4.size), grid4.nodes])
    with pytest.raises(ValueError):
        maximize_stack(sphere4, ZonalField(grid4, starts))


def test_orbit_fit_on_a_stack(grid4, sphere4):
    t0 = np.array([-2.0, 0.3, 1.7])
    t_hat, gap = fit_dilation_orbit(dilation_factor(t0[:, None], grid4), sphere4)
    assert t_hat.shape == gap.shape == (3,)
    assert np.all(np.abs(t_hat - t0) <= 1e-8)
    assert np.all(gap <= 1e-12)


def test_certificates_on_a_stack_match_row_by_row(grid4, bump4):
    stack = random_zonal(grid4, np.arange(60, 63), 10, 1.0, 0.3)
    rows = [ZonalField(grid4, v) for v in stack.values]
    for check in (euler_lagrange_residual, constant_mass_check):
        stacked = check(stack, bump4)
        singles = [check(u, bump4) for u in rows]
        for got, want in zip(stacked, zip(*singles)):
            assert got.shape == (3,)
            np.testing.assert_allclose(got, want, rtol=1e-12)
    np.testing.assert_allclose(mass_functional(stack, bump4),
                               [mass_functional(u, bump4) for u in rows], rtol=1e-12)


def test_certificates_refuse_a_stack_with_one_bad_row(grid4, bump4):
    stack = random_zonal(grid4, np.arange(60, 63), 10, 1.0, 0.3).values.copy()
    stack[1, 7] = 0.0
    for check in (euler_lagrange_residual, constant_mass_check):
        with pytest.raises(ValueError):
            check(ZonalField(grid4, stack), bump4)
    stack[1] = 0.0
    with pytest.raises(ValueError):
        mass_functional(ZonalField(grid4, stack), bump4)


def test_rejected_first_trials_back_off(grid4, sphere4, monkeypatch):
    # a first step far too long: the opening line search backtracks before
    # any row has accepted a step
    monkeypatch.setattr(optimize, "_STEP0", 1e6)
    start = ZonalField(grid4, 1.0 + 0.3 * grid4.nodes)
    res = maximize_mass_functional(sphere4, start=start)
    assert res.converged and res.backtracks >= 10
    assert res.value == pytest.approx(sphere_value(sphere4), rel=1e-6)
