"""Command-line interface.

Subcommands: constants, zeta, trace, functional, optimize, sweep, rates,
suite.  Structured output is JSON on stdout (17-significant-digit floats via
shortest repr), serialized in full before anything is written; sweeps write
CSV.  Exit codes: 0 success, 1 check failure, 2 usage error (including a
numeric flag out of range, a grid size outside 16..2048 nodes, an odd
dimension or one outside 4..104, more than 1024 sweep scales, and an input
that overflows a float), 3 numerical-consistency error or non-finite
optimizer state.

Each command imports only the modules it runs, inside its own branch of
``run``: ``constants`` and ``zeta`` compute in exact rational arithmetic in a
few milliseconds, and loading numpy and the grid code would cost them many
times that.  The parser's defaults come from the numpy-free ``params``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, astuple

from .errors import ConsistencyError, SchemaError, ZeroFieldError
from .params import (DEFAULT_GRID_SIZE, MAX_DIMENSION, OPTIMIZER_SEED_DEFAULT,
                     OPTIMIZER_TOL_DEFAULT, RATE_CAP_DEFAULT, SWEEP_EPSILON_DEFAULT, VARIANTS,
                     dim_params)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# The ranges of the numeric flags, each refused as a usage error naming it
# before any grid is built; --epsilon follows ``bubbles.check_cap_half_width``.
_FLAG_RANGES = {
    "k": ("a finite number", math.isfinite),
    "tol": ("a finite positive number", lambda value: 0 < value < math.inf),
    "cap": ("a finite positive number", lambda value: 0 < value < math.inf),
    "seed": ("a non-negative integer", lambda value: value >= 0),
}

# Largest sweep: the M bubbles go through the mass functional as one (M, N)
# stack, about 250 kB a bubble at N = 2048.  A 1024-scale sweep at N = 2048
# peaks at 376 MB resident, 161 MB of it the grid.
MAX_SWEEP_SCALES = 1024


def _emit(doc, path=None, indent=None):
    """Write ``doc`` as JSON to ``path`` or stdout, serializing it in full first."""
    text = json.dumps(doc, allow_nan=False, indent=indent) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    from .fieldio import write_text

    write_text(path, text)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="conformal-zeta", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, mass_field=False):
        p.add_argument("--n", type=int, required=True,
                       help=f"even sphere dimension in 4..{MAX_DIMENSION}")
        p.add_argument("--variant", choices=VARIANTS, default="paper")
        p.add_argument("--grid-n", type=int, default=DEFAULT_GRID_SIZE, help="collocation size N")
        if mass_field:
            p.add_argument("--mass-field", default=None,
                           help="field file with normalized-mass data on the round sphere")

    p = sub.add_parser("constants", help="print the dimensional constants")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=VARIANTS, default="paper")

    p = sub.add_parser("zeta", help="Laurent data of the spectral series at s=1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--space", choices=("sphere", "projective"), required=True)

    p = sub.add_parser("trace", help="sphere trace of a conformal factor from a field file")
    add_common(p)
    p.add_argument("--profile", required=True, help="field file for the conformal factor")

    p = sub.add_parser("functional", help="functional report for a conformal factor")
    add_common(p, mass_field=True)
    p.add_argument("--profile", required=True)

    p = sub.add_parser("optimize", help="maximize the mass functional")
    add_common(p, mass_field=True)
    p.add_argument("--tol", type=float, default=OPTIMIZER_TOL_DEFAULT)
    p.add_argument("--seed", type=int, default=OPTIMIZER_SEED_DEFAULT)
    p.add_argument("--out", default=None, help="write the result JSON here instead of stdout")

    p = sub.add_parser("sweep", help="mass functional along the glued-bubble family")
    add_common(p, mass_field=True)
    p.add_argument("--alphas", required=True, metavar="A:B:M",
                   help=f"M log-spaced concentration scales from A to B, 2 <= M <= "
                        f"{MAX_SWEEP_SCALES}")
    p.add_argument("--epsilon", type=float, default=SWEEP_EPSILON_DEFAULT)
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("rates", help="fit the second-moment decay branch")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--cap", type=float, default=RATE_CAP_DEFAULT)

    p = sub.add_parser("suite", help="run the acceptance checks")
    p.add_argument("--out", default=None, help="also write the report JSON here")
    p.add_argument("--checks", nargs="*", default=None,
                   help="restrict to these check names (trailing * for prefixes)")
    p.add_argument("--grid-n", type=int, default=DEFAULT_GRID_SIZE)
    return top


def _parse_alphas(raw: str):
    """The M log-spaced scales of ``A:B:M``, refused before anything is built."""
    try:
        lo, hi, count = raw.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
        if not (0 < lo < hi < math.inf) or not 2 <= count <= MAX_SWEEP_SCALES:
            raise ValueError
    except ValueError:
        raise SchemaError("expected A:B:M with finite 0 < A < B and integer "
                          f"2 <= M <= {MAX_SWEEP_SCALES}", "--alphas")
    import numpy as np

    return np.logspace(np.log10(lo), np.log10(hi), count)


def _background(args):
    from .background import round_sphere_background
    from .fieldio import read_field
    from .zonal import inner, make_grid

    grid = make_grid(args.n, args.grid_n)
    mnor = None
    if getattr(args, "mass_field", None):  # trace takes no mass field
        mnor = read_field(args.mass_field, grid)
        square = inner(mnor, mnor)
        if not math.isfinite(square):
            raise SchemaError(f"the integral of the squared field is {square!r}: its values "
                              "are too large for float64", "--mass-field")
    return round_sphere_background(args.n, grid, variant=args.variant, mnor=mnor)


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, (expected, holds) in _FLAG_RANGES.items():
        value = getattr(args, flag, None)
        if value is not None and not holds(value):
            raise SchemaError(f"expected {expected}, got {value}", f"--{flag}")

    if args.command == "constants":
        _emit(asdict(dim_params(args.n, args.variant)))
        return EXIT_OK

    if args.command == "zeta":
        from . import zeta
        from .spectra import SpectrumQuery

        _emit(asdict(zeta.spectral_zeta_at_one(SpectrumQuery(space=args.space, n=args.n))))
        return EXIT_OK

    if args.command in ("trace", "functional"):
        from . import fieldio, functionals

        bg = _background(args)
        u = fieldio.read_field(args.profile, bg.grid)
        if args.command == "trace":
            _emit({"trace": functionals.conformal_trace(u, bg)})
        else:
            _emit(asdict(functionals.functional_report(u, bg)))
        return EXIT_OK

    if args.command == "optimize":
        from . import fieldio, optimize

        bg = _background(args)
        opt_cfg = optimize.OptimizerConfig(tol_residual=args.tol, seed=args.seed)
        try:
            res = optimize.maximize_mass_functional(bg, opt_cfg)
        except FloatingPointError as exc:
            cause = "; the --mass-field values are too large for it" if args.mass_field else ""
            raise FloatingPointError(f"the optimizer left the float range ({exc}){cause}") from exc
        _emit(fieldio.result_document(res), args.out)
        return EXIT_OK if res.converged else EXIT_CHECK_FAILURE

    if args.command == "sweep":
        from . import bubbles, fieldio

        alphas = _parse_alphas(args.alphas)
        try:
            bubbles.check_cap_half_width(args.epsilon)
        except ValueError as exc:
            raise SchemaError(str(exc), "--epsilon") from exc
        bg = _background(args)
        try:
            rows = bubbles.concentration_sweep(alphas, args.epsilon, bg)
        except ZeroFieldError as exc:
            raise SchemaError(f"{exc}; use a larger grid", "--grid-n") from exc
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["alpha", "M_psi", "sphere_value", "margin", "mu"])
        for r in rows:
            writer.writerow([repr(v) for v in astuple(r)])
        fieldio.write_text(args.out, text.getvalue())
        return EXIT_OK

    if args.command == "rates":
        from . import bubbles

        try:
            fit = bubbles.decay_rate(args.n, args.k, args.cap)
        except OverflowError as exc:
            top = args.cap / float(bubbles.RATE_ALPHAS[0])
            raise SchemaError(
                f"the moment integrand t^(n+k-1) overflows at t = cap/alpha = {top:g} for "
                f"n={args.n}, k={args.k:g}: (n + k - 1) ln({top:g}) must stay below "
                f"{math.log(sys.float_info.max):.1f}", "--n/--k") from exc
        _emit({"n": args.n, **asdict(fit)})
        return EXIT_OK

    if args.command == "suite":
        from . import acceptance  # here, so the other commands skip its import

        report = acceptance.run_suite(names=args.checks, grid_size=args.grid_n)
        doc = report.to_json_dict()
        if args.out:
            _emit(doc, args.out, indent=2)
        _emit(doc)
        return EXIT_OK if report.overall_pass else EXIT_CHECK_FAILURE

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    try:
        return run(argv)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"numerical consistency error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OverflowError as exc:
        print(f"error: input outside the float range ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
