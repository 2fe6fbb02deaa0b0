"""Spans around the public functions of each conformal_zeta module, installed from outside.

The program has no tracing of its own.  ``Tracer.installed()`` replaces each
function named in ``TARGETS`` wherever callers look it up -- on the
``ZonalGrid`` class for grid methods, and in every ``conformal_zeta`` module
that holds the function object under some name (so ``from .zonal import
laplacian`` in ``laws`` and ``functionals`` is covered) -- and restores the
originals on exit.  Each call records a span: layer name, start, end, the span
that caused it, whether it raised, and optional work counters.  Spans stay in
memory; ``summary()`` folds them into per-layer calls, self time, failures and
counters.

Self time is the span's duration minus the part of it covered by its child
spans.  Spans that start on a worker thread with nothing open on that thread
are children of the outermost span open on the thread that created the tracer
(``acceptance.run_suite`` and its thread pool), so that span's self time is
the interval none of its workers' spans cover.

Only the standard library is imported here: ``trace_cli.py`` imports this
module before it times the package import.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import os
import sys
import threading
import time

PACKAGE = "conformal_zeta"

# (layer metric name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("zonal.grid_build", "zonal", "ZonalGrid.__init__"),
    ("zonal.analyze", "zonal", "ZonalGrid.analyze"),
    ("zonal.synthesize", "zonal", "ZonalGrid.synthesize_ld"),
    ("zonal.apply_multiplier", "zonal", "ZonalGrid.apply_multiplier"),
    ("zonal.differentiate", "zonal", "ZonalGrid.differentiate"),
    ("zonal.laplacian", "zonal", "laplacian"),
    ("laws.p_operator_apply", "laws", "p_operator_apply"),
    ("laws.yamabe_apply", "laws", "yamabe_apply"),
    ("laws.transformed_laplacian", "laws", "transformed_laplacian"),
    ("laws.mass_pushforward", "laws", "mass_pushforward"),
    ("laws.transform_background", "laws", "transform_background"),
    ("laws.mass_transport_ode", "laws", "mass_transport_ode"),
    ("functionals.mass_functional", "functionals", "mass_functional"),
    ("functionals.sobolev_gap", "functionals", "sobolev_gap"),
    ("functionals.conformal_trace", "functionals", "conformal_trace"),
    ("functionals.functional_report", "functionals", "functional_report"),
    ("optimize.maximize_mass_functional", "optimize", "maximize_mass_functional"),
    ("optimize.fit_dilation_orbit", "optimize", "fit_dilation_orbit"),
    ("bubbles.concentration_sweep", "bubbles", "concentration_sweep"),
    ("bubbles.capped_bubble", "bubbles", "capped_bubble"),
    ("bubbles.bubble_moment", "bubbles", "bubble_moment"),
    ("bubbles.fit_decay_rate", "bubbles", "fit_decay_rate"),
    ("zeta.spectral_zeta_at_one", "zeta", "spectral_zeta_at_one"),
    ("zeta.homogeneous_mass", "zeta", "homogeneous_mass"),
    ("fieldio.read_field", "fieldio", "read_field"),
    ("fieldio.result_document", "fieldio", "result_document"),
    ("acceptance.run_suite", "acceptance", "run_suite"),
)

# The four dense matvec transforms of the spectral kernel.  Each call does one
# N x N product of its own (apply_multiplier and differentiate get their
# analysis product from a nested analyze call, which is counted there).
TRANSFORMS = ("zonal.analyze", "zonal.synthesize", "zonal.apply_multiplier",
              "zonal.differentiate")
MAXIMIZE = "optimize.maximize_mass_functional"


def _grid_work(args, kwargs, result):
    return {"zonal.matvec_n2": args[0].size ** 2}


def _optimizer_work(args, kwargs, result):
    return {"optimize.iterations": result.iterations, "optimize.converged": int(result.converged)}


def _bytes_read(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"fieldio.read_field.bytes": os.path.getsize(path)}


COUNTERS = {name: _grid_work for name in TRANSFORMS}
COUNTERS[MAXIMIZE] = _optimizer_work
COUNTERS["fieldio.read_field"] = _bytes_read

class _Span:
    __slots__ = ("name", "start", "end", "parent", "failed", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.failed = False
        self.counts = None


class Tracer:
    def __init__(self):
        self.spans: list[_Span] = []
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._root: _Span | None = None

    def _call(self, name, fn, counter, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        on_owner = threading.get_ident() == self._owner
        if stack:
            parent = stack[-1]
        else:
            parent = None if on_owner else self._root
        span = _Span(name, parent)
        self.spans.append(span)
        if on_owner and not stack:
            self._root = span
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if self._root is span:
                self._root = None
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, counter, args, kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target where callers look it up; restore on exit."""
        patches = []
        try:
            for name, modname, attr in TARGETS:
                module = importlib.import_module(f"{PACKAGE}.{modname}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    patches.append((owner, meth, original))
                    setattr(owner, meth, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                traced = self._wrap(name, original)
                for modkey, mod in list(sys.modules.items()):
                    if mod is None or not (modkey == PACKAGE or modkey.startswith(PACKAGE + ".")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, original))
                            setattr(mod, key, traced)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def summary(self) -> collections.Counter:
        """Calls, self time, failures per target and the work counters, as totals."""
        out = collections.Counter()
        children: dict[int, list[_Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
        for span in self.spans:
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.fail"] += int(span.failed)
            out[f"{span.name}.self_s"] += span.end - span.start - _covered(
                span, children.get(id(span), ()))
            for key, value in (span.counts or {}).items():
                out[key] += value
            if span.name in TRANSFORMS and _inside(span, MAXIMIZE):
                out["optimize.transforms"] += 1
        return out


def _inside(span: _Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def _covered(span: _Span, kids) -> float:
    """Length of the union of the children's intervals, clipped to the span."""
    total = 0.0
    reach = span.start
    for kid in sorted(kids, key=lambda k: k.start):
        lo, hi = max(kid.start, reach), min(kid.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(totals: collections.Counter, operations: int) -> dict:
    """Per-operation averages of the summed totals, plus the derived ratios."""
    ops = max(operations, 1)
    keys = [f"{name}.{suffix}" for name, _, _ in TARGETS for suffix in ("calls", "self_s", "fail")]
    keys += ["zonal.matvec_n2", "optimize.iterations", "fieldio.read_field.bytes"]
    out = {key: totals[key] / ops for key in keys}
    iterations = totals["optimize.iterations"]
    out["optimize.transforms_per_iteration"] = (
        totals["optimize.transforms"] / iterations if iterations else 0.0)
    runs = totals[f"{MAXIMIZE}.calls"]
    out["optimize.converged_ratio"] = totals["optimize.converged"] / runs if runs else 0.0
    return out


def self_test() -> list[str]:
    """Check that spans see calls made inside the package; returns the problems found."""
    import numpy as np

    from conformal_zeta import functionals, laws, zonal
    from conformal_zeta.background import round_sphere_background

    problems = []
    grid = zonal.make_grid(4, 16)
    u = zonal.ZonalField(grid, 1.0 + 0.1 * np.cos(grid.theta))
    bg = round_sphere_background(4, grid)

    expectations = (
        ("zonal.laplacian", lambda: zonal.laplacian(u),
         {"zonal.laplacian.calls": 1, "zonal.analyze.calls": 1,
          "zonal.apply_multiplier.calls": 1}),
        # the P form and the Yamabe form each apply the Laplacian once
        ("functionals.mass_functional", lambda: functionals.mass_functional(u, bg),
         {"functionals.mass_functional.calls": 1, "laws.p_operator_apply.calls": 1,
          "laws.yamabe_apply.calls": 1, "zonal.laplacian.calls": 2,
          "zonal.analyze.calls": 2, "zonal.apply_multiplier.calls": 2}),
    )
    for label, call, want in expectations:
        tracer = Tracer()
        with tracer.installed():
            call()
        got = tracer.summary()
        for key, count in want.items():
            if got[key] != count:
                problems.append(f"{label}: {key} = {got[key]}, expected {count}")
    if any(hasattr(fn, "__wrapped__") for fn in (
            zonal.ZonalGrid.__dict__["analyze"], zonal.laplacian, laws.laplacian)):
        problems.append("originals were not restored")
    return problems
