"""Benchmark of conformal-zeta: the acceptance suite and the CLI.

    python3 perfbench/run.py --workload suite|cli|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The package is imported from ./src
as it stands; nothing is installed.  Every workload is a closed loop with one
caller and one operation in flight.  It runs in rounds (one ``run_suite()``
call, or one whole cycle of the ``cli`` mix) and starts a round only if a
round of the mean length so far ends within ``--seconds``.  Every operation's
output is checked; a check failure, an exception or a non-zero exit counts as a
failed operation.  Timing metrics are scaled to a nominal host speed (``HostSpeed``).

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs each operation untraced and then with the layer spans of
``tracing`` installed, checks that both give identical check values, and
reports the per-layer metrics (per traced operation) and the tracing overhead.
The last line of stdout is the JSON result; the line before it carries the
environment and the details behind the metrics.  Thread-count variables for
BLAS/OpenMP are capped at the number of usable CPUs for this process and its
children.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# The run's own set-up plus fresh processes doing the same, half of them before
# the timed loop and half after it, so the median spans the run's host phases.
SETUP_PROBES_BEFORE = SETUP_PROBES_AFTER = 2
TAIL_BEYOND = 10


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def close(value, target, rel=None, abs_=None):
    tol = abs_ if abs_ is not None else rel * abs(target)
    return isinstance(value, (int, float)) and math.isfinite(value) and abs(value - target) <= tol


def prepare_environment():
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            value = cap
        os.environ[var] = str(min(max(value, 1), cap))
    os.environ.pop("CONFORMAL_ZETA_CONFIG", None)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def environment_record() -> dict:
    import numpy as np
    import scipy

    info = np.finfo(np.longdouble)
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "longdouble_eps": float(info.eps), "longdouble_precision": int(info.precision),
        "platform": platform.platform(), "machine": platform.machine(), "cpu_model": cpu,
        "nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def covariance_residual() -> float:
    """Worst of the registry's three covariance-identity check values, computed by
    ``acceptance.run_suite`` itself (100 seeded pairs at N=256)."""
    from conformal_zeta import acceptance

    report = acceptance.run_suite(names=["covariance_*"], jobs=1)
    require(len(report.checks) == 3 and report.overall_pass,
            f"covariance checks: {[(c.name, c.value, c.passed) for c in report.checks]}")
    return max(c.value for c in report.checks)


class HostSpeed:
    """How fast the shared host runs, measured next to the operations.

    The host's speed drifts by tens of percent over minutes, far more than the
    benchmark's bounds.  So between operations the run does a fixed reference
    work that shares no code with the package: long-double 256x256
    matrix-vector products, straight and transposed, the kind of work the zonal
    transforms do.  It runs on as many Python threads as the workload's
    operation keeps busy (``reference_threads``).  Every timing metric is a
    wall time ``t`` scaled to the nominal speed, ``t * speed /
    NOMINAL_UNITS_PER_S``: seconds on a host that does the reference work at
    the nominal speed.
    """

    NOMINAL_UNITS_PER_S = 600.0  # about the median speed of the baseline's machine
    SIZE = 256
    SHARE = 0.1  # reference time before an operation, as a share of the last one

    def __init__(self, threads):
        import numpy as np

        rng = np.random.default_rng(0)
        self.mats = [rng.standard_normal((self.SIZE, self.SIZE)).astype(np.longdouble)
                     for _ in range(2)]
        self.vec = rng.standard_normal(self.SIZE).astype(np.longdouble)
        self.threads = threads
        self.units, self.seconds = 0, 0.0

    def _unit(self):
        for m in self.mats:
            m @ self.vec
            m.T @ self.vec

    def sample(self, seconds):
        """Run the reference work on every thread for ``seconds`` and add it to the totals."""
        counts = [0] * self.threads
        stop = threading.Event()

        def work(i):
            while not stop.is_set():
                self._unit()
                counts[i] += 1

        workers = [threading.Thread(target=work, args=(i,)) for i in range(self.threads)]
        start = time.perf_counter()
        for w in workers:
            w.start()
        time.sleep(seconds)
        stop.set()
        for w in workers:
            w.join()
        self.seconds += time.perf_counter() - start
        self.units += sum(counts)

    def speed(self) -> float:
        return self.units / self.seconds

    def scale(self, seconds) -> float:
        return seconds * self.speed() / self.NOMINAL_UNITS_PER_S


def timed_call(fn, tracer):
    """Run ``fn`` (with the spans installed when a tracer is given); time only the call."""
    if tracer is None:
        start = time.perf_counter()
        try:
            return fn(), time.perf_counter() - start, None
        except Exception as exc:  # every failure is counted, never dropped
            return None, time.perf_counter() - start, exc
    with tracer.installed():
        return timed_call(fn, None)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Suite:
    """Back-to-back ``acceptance.run_suite()`` with default arguments, as users run it:
    the program's 4-thread pool on every CPU the process may use."""

    # the pool's threads take turns with the GIL on every usable CPU
    reference_threads = len(os.sched_getaffinity(0))

    def __init__(self, seed, work):
        from conformal_zeta import acceptance

        self.acceptance = acceptance
        self.worst_identity = 0.0
        # warm-up: fills the zeta engine's caches and scipy's lazy imports
        acceptance.run_suite(names=["zeta_*", "rate_*"])

    def rounds(self):
        while True:
            yield ["run_suite"]

    def run(self, op, tracer):
        # looked up at call time, so the installed span wrapper is the one called
        out, seconds, error = timed_call(lambda: self.acceptance.run_suite(), tracer)
        summary = tracer.summary() if tracer is not None else None
        return out, seconds, error, summary

    def check(self, op, report):
        names = sorted(c.name for c in report.checks)
        require(names == sorted(self.acceptance.CHECK_NAMES), f"check names differ: {names}")
        failing = sorted(c.name for c in report.checks if not c.passed)
        require(failing == sorted(self.acceptance.KNOWN_DISPUTED_CHECKS),
                f"failing checks {failing}, expected only the known-disputed ones")
        self.worst_identity = max(self.worst_identity, max(
            c.value for c in report.checks if c.name.startswith("covariance_")))
        return tuple((c.name, c.value, c.passed) for c in report.checks)

    def identity_residual(self):
        return self.worst_identity


@dataclass
class CliResult:
    code: int
    stdout: bytes
    outfile: bytes | None
    rss_kb: int
    summary: dict | None


class Cli:
    """Sequential ``python -m conformal_zeta`` invocations over a fixed mix."""

    ALPHAS = "0.02:0.3:12"
    reference_threads = 1  # one single-threaded child at a time

    def __init__(self, seed, work):
        import numpy as np

        from conformal_zeta import fieldio, functionals, zonal
        from conformal_zeta.params import dim_params

        self.np = np
        self.work = work
        self.rng = random.Random(seed)
        self.env = dict(os.environ)
        self.rss_kb = []
        self.latency = {}  # subcommand -> untraced wall times
        p4, p6 = dim_params(4), dim_params(6)
        self.orbit = {4: -p4.b_n * p4.yamabe_sphere, 6: -p6.b_n * p6.yamabe_sphere}
        self.sphere_trace = {n: -p.c_n * n * (n - 2) / 4.0 * p.omega_n for n, p in ((4, p4), (6, p6))}

        self.files = {}
        self.reference = {}
        for n, size in ((4, 256), (6, 512), (4, 1024)):
            grid = zonal.make_grid(n, size)
            dil = functionals.dilation_factor(self.rng.uniform(0.2, 0.6), grid)
            self.files[f"dil{size}"] = self._write(fieldio, f"dil_n{n}_N{size}.json", dil)
            self.reference[f"dil{size}"] = self.orbit[n]
            if size == 256:
                self.files["one256"] = self._write(
                    fieldio, "one_n4_N256.json", zonal.constant_field(grid, 1.0))
                bump = zonal.ZonalField(grid, 0.02 * np.exp(-(grid.theta ** 2) / 0.1))
                self.files["bump256"] = self._write(fieldio, "bump_n4_N256.json", bump)
                # M(u) = int m_nor u^2 / ||u||_p^2 - b_n Y(u), and Y is the sphere's on dilations
                w, u = grid.weights, dil.values
                norm_sq = float((u ** p4.p) @ w) ** (2.0 / p4.p)
                self.reference["dil256"] += float((bump.values * u * u) @ w) / norm_sq

    def _write(self, fieldio, name, field):
        path = self.work / name
        fieldio.write_field(path, field)
        return str(path)

    def rounds(self):
        f = self.files
        while True:
            seed = str(self.rng.randrange(10 ** 6))
            yield [
                ("constants", ["constants", "--n", "4"], self._check_constants),
                ("zeta", ["zeta", "--n", "4", "--space", "sphere"], self._check_zeta(-1 / 9)),
                ("zeta", ["zeta", "--n", "6", "--space", "sphere"], self._check_zeta(-1 / 45)),
                # the exact-rational oracle's value, not the disputed registered 1/18
                ("zeta", ["zeta", "--n", "4", "--space", "projective"], self._check_zeta(1 / 36)),
                ("rates", ["rates", "--n", "6", "--k", "0"], self._check_rates),
                ("trace", ["trace", "--n", "4", "--grid-n", "256", "--profile", f["one256"]],
                 self._check_trace(-1 / 18, abs_=1e-12)),
                ("functional", ["functional", "--n", "4", "--grid-n", "256", "--profile", f["dil256"],
                                "--mass-field", f["bump256"]], self._check_functional("dil256")),
                ("trace", ["trace", "--n", "6", "--grid-n", "512", "--profile", f["dil512"]],
                 self._check_trace(self.sphere_trace[6], rel=1e-8)),
                ("functional", ["functional", "--n", "6", "--grid-n", "512", "--profile", f["dil512"]],
                 self._check_functional("dil512")),
                ("trace", ["trace", "--n", "4", "--grid-n", "1024", "--profile", f["dil1024"]],
                 self._check_trace(self.sphere_trace[4], rel=1e-8)),
                ("functional", ["functional", "--n", "4", "--grid-n", "1024", "--profile", f["dil1024"]],
                 self._check_functional("dil1024")),
                ("sweep", ["sweep", "--n", "4", "--grid-n", "256", "--alphas", self.ALPHAS,
                           "--epsilon", "0.3", "--mass-field", f["bump256"], "--out", "sweep.csv"],
                 self._check_sweep),
                ("optimize", ["optimize", "--n", "4", "--seed", seed, "--out", "optimize.json"],
                 self._check_optimize),
            ]

    def _invoke(self, argv, traced):
        outfile = next((argv[i + 1] for i, a in enumerate(argv) if a == "--out"), None)
        if outfile:
            (self.work / outfile).unlink(missing_ok=True)
        summary_path = self.work / "trace-summary.json"
        if traced:
            summary_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "trace_cli.py"), str(summary_path), *argv]
        else:
            cmd = [sys.executable, "-m", "conformal_zeta", *argv]
        with open(self.work / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=subprocess.PIPE,
                                    stderr=err)
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        data = (self.work / outfile).read_bytes() if outfile and (self.work / outfile).exists() else None
        summary = json.loads(summary_path.read_text()) if traced and summary_path.exists() else None
        return CliResult(proc.returncode, stdout, data, usage.ru_maxrss, summary)

    def run(self, op, tracer):
        name, argv, _ = op
        start = time.perf_counter()
        try:
            out = self._invoke(argv, traced=tracer is not None)
        except OSError as exc:
            return None, time.perf_counter() - start, exc, None
        seconds = time.perf_counter() - start
        if tracer is None:
            self.rss_kb.append(out.rss_kb)
            self.latency.setdefault(name, []).append(seconds)
        if out.code != 0:
            return out, seconds, CheckFailed(f"{' '.join(argv)}: exit code {out.code}"), out.summary
        return out, seconds, None, out.summary

    def check(self, op, res):
        name, argv, checker = op
        if "--out" not in argv:
            try:
                doc = json.loads(res.stdout)
            except ValueError as exc:
                raise CheckFailed(f"{' '.join(argv)}: stdout is not one JSON document ({exc})")
            require(isinstance(doc, dict) and res.stdout.endswith(b"\n"),
                    f"{' '.join(argv)}: incomplete JSON document on stdout")
            checker(doc)
        else:
            require(res.stdout == b"", f"{' '.join(argv)}: unexpected stdout with --out")
            require(res.outfile is not None, f"{' '.join(argv)}: no output file")
            checker(res.outfile)
        return (res.code, res.stdout, res.outfile)

    def _check_constants(self, doc):
        require(doc.get("n") == 4 and doc.get("variant") == "paper" and doc.get("p") == 4.0,
                f"constants: {doc}")
        require(close(doc.get("omega_n"), 8 * math.pi ** 2 / 3, rel=1e-14), f"constants: {doc}")

    def _check_zeta(self, target):
        def check(doc):
            require(close(doc.get("finite_part"), target, abs_=1e-9),
                    f"zeta finite part {doc.get('finite_part')} vs {target}")
            require(close(doc.get("residue"), 0.0, abs_=1e-10), f"zeta residue {doc.get('residue')}")
        return check

    def _check_rates(self, doc):
        require(close(doc.get("exponent_fit"), 2.0, abs_=0.05) and doc.get("predicted") == "k_plus_2"
                and doc.get("log_factor_detected") is False and doc.get("r2", 0) >= 0.999,
                f"rates: {doc}")

    def _check_trace(self, target, rel=None, abs_=None):
        def check(doc):
            require(close(doc.get("trace"), target, rel=rel, abs_=abs_),
                    f"trace {doc.get('trace')} vs {target}")
        return check

    def _check_functional(self, key):
        def check(doc):
            require(close(doc.get("mass_functional"), self.reference[key], rel=1e-6),
                    f"functional {doc.get('mass_functional')} vs {self.reference[key]}")
        return check

    def _check_sweep(self, data):
        rows = data.decode().splitlines()
        require(rows and rows[0] == "alpha,M_psi,sphere_value,margin,mu", "sweep: bad CSV header")
        require(len(rows) == 13, f"sweep: {len(rows) - 1} rows, expected 12")
        want = self.np.logspace(math.log10(0.02), math.log10(0.3), 12)
        for row, alpha in zip(rows[1:], want):
            values = [float(v) for v in row.split(",")]
            require(len(values) == 5 and all(math.isfinite(v) for v in values), f"sweep row {row}")
            require(close(values[0], alpha, rel=1e-12) and close(values[2], self.orbit[4], rel=1e-12),
                    f"sweep row {row}")

    def _check_optimize(self, data):
        doc = json.loads(data)
        require(doc["converged"] is True and doc["mass_reldev"] <= 1e-6
                and close(doc["value"], self.orbit[4], rel=1e-6), f"optimize: {doc['value']}")
        require(len(doc["u_star"]["values"]) == 256, "optimize: u_star has the wrong size")

    def identity_residual(self):
        return covariance_residual()


WORKLOADS = {"suite": Suite, "cli": Cli}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def tail(latencies):
    """Value with TAIL_BEYOND samples beyond it and its percentile; the maximum when
    no percentile above the median has that many samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n > 2 * TAIL_BEYOND:
        return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return xs[-1], 100.0


def measure(wl, seconds, trace, host=None):
    latencies, traced_latencies, problems = [], [], []
    attempted = failed = traced_ops = 0
    identical = True
    totals = collections.Counter()
    cli_import = []
    start = time.perf_counter()
    for done, ops in enumerate(wl.rounds()):
        # start a round only if a round of the mean length so far ends within the run
        elapsed = time.perf_counter() - start
        if done and elapsed * (done + 1) / done > seconds:
            break
        for op in ops:
            runs = [None, tracing.Tracer()] if trace else [None]
            values = []
            for tracer in runs:
                attempted += 1
                if host is not None:
                    host.sample(HostSpeed.SHARE * latencies[-1] if latencies else 0.3)
                out, dt, error, summary = wl.run(op, tracer)
                checked = None
                if error is None:
                    try:
                        checked = wl.check(op, out)
                    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
                        error = exc
                if error is not None:
                    failed += 1
                    problems.append(f"{type(error).__name__}: {error}"[:300])
                values.append(checked)
                if tracer is None:
                    latencies.append(dt)
                else:
                    traced_ops += 1
                    traced_latencies.append(dt)
                    if summary is not None:
                        if "cli.import_s" in summary:
                            cli_import.append(summary.pop("cli.import_s"))
                        totals.update(summary)
            if trace and None not in values and values[0] != values[1]:
                identical = False
                failed += 1
                problems.append(f"traced check values differ from untraced for {op!r}"[:300])
    return {
        "latencies": latencies, "attempted": attempted, "failed": failed, "problems": problems,
        "traced_latencies": traced_latencies, "traced_ops": traced_ops, "identical": identical,
        "totals": totals, "cli_import": cli_import,
    }


def load_spec():
    spec = json.loads(SPEC.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def setup_probe(args) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ), stdout=subprocess.PIPE, check=True)
    return json.loads(out.stdout.decode().splitlines()[-1])


def run_workload(args, work) -> int:
    end_to_end, per_layer = load_spec()
    wl = WORKLOADS[args.workload](args.seed, work)
    setup_s = time.perf_counter() - START
    probe = HostSpeed(wl.reference_threads)
    probe.sample(0.5)
    setup = {"setup_s": setup_s, "host_speed": probe.speed()}
    if args.setup_probe:
        print(json.dumps(setup))
        return 0
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": environment_record()}
    if args.trace:
        problems = tracing.self_test()
        details["wrapper_self_test"] = problems or "passed"
    else:
        problems = []
        setup_samples = [setup] + [setup_probe(args) for _ in range(SETUP_PROBES_BEFORE)]

    host = None if args.trace else HostSpeed(wl.reference_threads)
    res = measure(wl, args.seconds, args.trace, host)
    if not args.trace:
        setup_samples += [setup_probe(args) for _ in range(SETUP_PROBES_AFTER)]
        details["setup_samples"] = setup_samples
    lat = res["latencies"]
    attempted, failed = res["attempted"], res["failed"]
    details.update(operations=len(lat), fail_ratio=failed / attempted,
                   problems=res["problems"][:20])
    if args.trace:
        computed = tracing.layer_metrics(res["totals"], res["traced_ops"])
        untraced = sum(lat)
        computed["trace.overhead_ratio"] = sum(res["traced_latencies"]) / untraced if untraced else 0.0
        computed["cli.import_s"] = statistics.median(res["cli_import"]) if res["cli_import"] else 0.0
        for name in ("constants", "zeta", "rates", "trace", "functional", "sweep", "optimize"):
            samples = getattr(wl, "latency", {}).get(name)
            computed[f"cli.{name}.latency_s"] = statistics.median(samples) if samples else 0.0
        details.update(traced_operations=res["traced_ops"],
                       check_values_identical=res["identical"],
                       tracing_overhead=computed["trace.overhead_ratio"])
        units = per_layer
    else:
        tail_value, tail_pct = tail(lat)
        if args.workload == "cli":
            rss_kb = max(wl.rss_kb)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # wall times as measured; each set-up sample has its own process's host speed
        wall = {
            "setup_s": statistics.median(x["setup_s"] for x in setup_samples),
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail_value,
        }
        nominal = HostSpeed.NOMINAL_UNITS_PER_S
        computed = {
            "setup_s": statistics.median(x["setup_s"] * x["host_speed"] / nominal
                                         for x in setup_samples),
            "ops_per_s": wall["ops_per_s"] * nominal / host.speed(),
            "op_p50_s": host.scale(wall["op_p50_s"]),
            "op_tail_s": host.scale(tail_value),
            "peak_rss_mb": rss_kb / 1024.0,
            "identity_residual_max": wl.identity_residual(),
        }
        details.update(tail_percentile=tail_pct, tail_samples=len(lat),
                       tail_samples_beyond=sum(x > tail_value for x in lat), wall=wall,
                       host_speed=host.speed(), host_reference_s=host.seconds, latencies_s=lat)
        units = end_to_end

    metrics = {name: {"value": computed[name], "unit": unit} for name, unit in units.items()}
    correct = failed == 0 and not problems
    print(json.dumps({"details": details}))
    for name, m in metrics.items():
        print(f"# {args.workload:<9} {name:<44} {m['value']:<14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; print each metric and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        lines = proc.stdout.decode().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exit code {proc.returncode}", file=sys.stderr)
            status = status or proc.returncode or 1
            continue
        print("\n".join(ln for ln in lines[:-1] if ln.startswith("#")))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    if status == 0:
        print(json.dumps(combined))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "conformal_zeta" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a checkout of conformal-zeta: {SRC / 'conformal_zeta'} "
              f"or {SPEC.name} is missing", file=sys.stderr)
        return 2
    prepare_environment()
    if args.workload == "all":
        return run_all(args)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
