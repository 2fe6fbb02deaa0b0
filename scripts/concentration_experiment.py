#!/usr/bin/env python3
"""Concentration experiment: how localized mass data tilts the variational problem.

Sweeps the glued-bubble family against three backgrounds on S^4 (bare sphere,
a positive normalized-mass bump at the pole, a constant field), runs the
maximizer on each, and prints margins relative to the orbit value
-b_n Y(S^n).  A compact demonstration of the machinery end to end.
"""

import argparse

import numpy as np

from conformal_zeta.background import round_sphere_background
from conformal_zeta.bubbles import concentration_sweep
from conformal_zeta.optimize import maximize_mass_functional, seeded_start
from conformal_zeta.params import DEFAULT_GRID_SIZE, OPTIMIZER_SEED_DEFAULT, SWEEP_EPSILON_DEFAULT
from conformal_zeta.zonal import ZonalField, make_grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--grid-n", type=int, default=DEFAULT_GRID_SIZE)
    ap.add_argument("--epsilon", type=float, default=SWEEP_EPSILON_DEFAULT)
    ap.add_argument("--seed", type=int, default=OPTIMIZER_SEED_DEFAULT)
    args = ap.parse_args()

    grid = make_grid(args.n, args.grid_n)
    theta = grid.theta
    backgrounds = {
        "bare sphere": None,
        "polar bump 0.02": ZonalField(grid, 0.02 * np.exp(-(theta**2) / 0.1)),
        "constant 0.05": ZonalField(grid, np.full(grid.size, 0.05)),
    }
    alphas = np.logspace(np.log10(0.02), np.log10(0.3), 10)

    for label, mnor in backgrounds.items():
        bg = round_sphere_background(args.n, grid, mnor=mnor)
        orbit_value = bg.params.sphere_value
        rows = concentration_sweep(alphas, args.epsilon, bg)
        best = max(rows, key=lambda r: r.margin)
        res = maximize_mass_functional(bg, seeded_start(grid, args.seed))
        print(f"\n== {label} ==")
        print(f"  orbit value          : {orbit_value:+.6e}")
        print(f"  best sweep margin    : {best.margin:+.3e} at alpha={best.alpha:.3f}")
        print(f"  maximizer value      : {res.value:+.6e} "
              f"(margin {res.value - orbit_value:+.3e})")
        print(f"  EL residual          : {res.residual:.2e}  converged={res.converged}")
        print(f"  constant-mass reldev : {res.mass_reldev:.2e}")


if __name__ == "__main__":
    main()
