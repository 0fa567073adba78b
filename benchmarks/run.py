"""spottransit benchmark: closed-loop CLI workloads with checked answers.

Usage (from the repository root):

    python3 benchmarks/run.py --workload scenario-sweep --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of ``spottransit.cli.main(argv)`` calls
(one *pass*), run in-process by one client that starts each call after
the previous one returns.  Passes repeat until ``--seconds`` of
measuring is spent; a pass always completes, so every run sees whole
copies of the call mix.  All inputs are generated from ``--seed`` into
a temporary directory, every report is checked, and a wrong answer counts
as a failed operation.  The program is imported from ``src/`` of this
checkout and is not modified.

Workloads and why each exists:

* scenario-sweep -- static pricing across the 6 bundled IXPs x {iso, linear}
  (calibrate, static, worst-case, four sweeps) plus predict/static/sweep on
  a seeded synthetic trace: pricing, uncertainty, demand, welfare,
  calibration, traffic and export do all the work, mdp/simulate none.
* mdp-solve -- the five acceptance-table rate models with PI and RVI at
  K=100, PI at K=1000, and one PI at K=3000: dense-LU evaluation, the
  backup matrix and rate-grid construction each dominate at some size.
* simulate-long -- one K=100 simulate with horizon 5e5 (~1.2M transitions):
  the pure-Python event loop is nearly all of the time.

``--trace 0`` measures end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes; the traced ones wrap the
program's public functions from outside (see tracing.py) and yield the
per-layer metrics plus the tracing overhead.  Every run prints a table
with units and sample counts, writes a record (environment, all
metrics, spans) under benchmarks/out/, and ends with one JSON line.
peak_rss_mb is the process high-water mark, so under ``--workload all``
it carries over from one workload to the next.
"""

from __future__ import annotations

import os

# BLAS threads are pinned for the whole process; this must precede the
# first numpy import (timings with two OpenBLAS threads vary about 2x here).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import inputs
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "golden_static_linx.json"
OUT = BENCH / "out"

WORKLOADS = ["scenario-sweep", "mdp-solve", "simulate-long"]
SETUP_SAMPLES = 5

# The subsets printed in the final JSON line (BENCHMARK.json lists the same
# names).  Only metrics defined, and never zero, on every workload are gated
# end to end.  op_p90_ms is printed but not gated: on mdp-solve it is the tail
# of the RVI calls, whose run-to-run spread (12-21% over ten seeds on a 2-vCPU
# Xeon VM) nearly fills the largest bound allowed.  Per-layer busy time enters
# the line as a throughput (calls per busy second) because a layer a workload
# never calls would read 0 seconds.
GATED = ["setup_s", "wall_s", "peak_rss_mb", "rows_per_s", "op_p50_ms"]
PER_LAYER = [
    "pricing.optimize_price.calls", "pricing.profit_derivative.calls",
    "pricing.expected_profit.calls", "pricing.evals_per_solve",
    "pricing.optimize_price.per_s",
    "uncertainty.tail_probability.calls", "uncertainty.partial_overshoot.calls",
    "uncertainty.tail_probability.per_s", "uncertainty.partial_overshoot.per_s",
    "demand.demand.calls", "demand.slope.calls", "demand.per_s",
    "calibration.calibrate.calls", "calibration.warnings", "calibration.calibrate.per_s",
    "welfare.welfare_report.per_s",
    "traffic.load_series.rows_per_s", "traffic.prediction_errors.per_s",
    "traffic.percentile_95.per_s",
    "cli.load_scenario.per_s", "cli.export_report.s", "cli.export_report.bytes",
    "mdp.spec_build.per_s", "mdp.policy_iteration.per_s", "mdp.pi_iterations",
    "mdp.pi.k100.iterations_per_s", "mdp.pi.k1000.iterations_per_s",
    "mdp.pi.k3000.iterations_per_s",
    "mdp.relative_value_iteration.per_s", "mdp.rvi_sweeps", "mdp.rvi.sweeps_per_s",
    "mdp.verify_structure.per_s", "mdp.structure_violations",
    "simulate.simulate_policy.transitions_per_s", "simulate.transitions",
    "simulate.compare_to_analytic.per_s", "mdp.steady_state.per_s",
    "trace.overhead_s", "trace.overhead_pct",
]


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import the CLI from this checkout's src/ and read the golden answers."""
    if not (SRC / "spottransit" / "__init__.py").is_file():
        raise ProgramMissing(f"program source not found under {SRC}")
    if not GOLDEN.is_file():
        raise ProgramMissing(f"golden answers not found at {GOLDEN}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from spottransit import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ProgramMissing(f"imported spottransit from {cli.__file__}, not from {SRC}")
    return cli, json.loads(GOLDEN.read_text())


def environment() -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    try:
        commit = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


def measure_setup(samples: int) -> list:
    """Seconds to import spottransit and spottransit.cli in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import spottransit, spottransit.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


@dataclass
class OpResult:
    op: inputs.Op
    latency: float
    traced: bool
    spans: tuple               # [lo, hi) span indices of this call
    error: str | None = None
    facts: dict = field(default_factory=dict)
    report_bytes: int = 0
    warnings: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


class Runner:
    def __init__(self, cli, checks, work: Path, tracer: tracing.Tracer | None):
        self.cli, self.checks, self.tracer = cli, checks, tracer
        self.report_stem = work / "report"

    def run_op(self, op: inputs.Op, traced: bool) -> OpResult:
        argv = ["--out", str(self.report_stem), "--format", "json"] + op.argv
        captured = io.StringIO()
        error = None
        lo = self.tracer.mark() if self.tracer else 0
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            warnings.simplefilter("always")
            if traced:
                self.tracer.enabled = True
            t0 = perf_counter()
            try:
                rc = self.tracer.root(self.cli.main, argv) if traced else self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code
            except Exception:  # a crash is a failed operation; keep measuring
                rc, error = None, traceback.format_exc(limit=4)
            latency = perf_counter() - t0
            if self.tracer:
                self.tracer.enabled = False
        hi = self.tracer.mark() if self.tracer else 0
        res = OpResult(op, latency, traced, (lo, hi),
                       warnings=sum(w.filename.endswith("calibration.py") for w in caught))
        if error is not None or rc != 0:
            res.error = error or f"exit code {rc}: {captured.getvalue().strip()[-300:]}"
            return res
        path = self.report_stem.with_suffix(".json")
        try:
            res.report_bytes = path.stat().st_size
            with open(path) as fh:
                report = json.load(fh)
            res.error, res.facts = self.checks.check_op(op, report)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            res.error = f"report unreadable or malformed: {exc!r}"
        return res

    def run_pass(self, ops, traced: bool) -> list:
        gc.collect()  # start every pass from the same heap state
        results = [self.run_op(op, traced) for op in ops]
        for i, err in self.checks.cross_check(results).items():
            results[i].error = err
        return results


def measure(runner: Runner, ops, seconds: float, trace: bool) -> list:
    """Run whole passes until the time is spent; with trace, alternate untraced/traced."""
    passes = []
    t0 = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:  # wrappers exist only during traced passes
            runner.tracer.install()
        try:
            passes.append(runner.run_pass(ops, traced))
        finally:
            if traced:
                runner.tracer.uninstall()
        elapsed = perf_counter() - t0
        if trace and len(passes) < 2:
            continue
        # stop once another pass would end more than half a pass past the budget
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(passes, setup, rss_mb: float) -> dict:
    """name -> (value or None when the workload has no such call, unit, sample count)."""
    results = [r for p in passes for r in p]
    lat = [r.latency for r in results]
    walls = [sum(r.latency for r in p) for p in passes]
    failed = sum(not r.ok for r in results)
    solved = sum(r.facts.get("solved_rows", 0) for r in results)
    m = {
        "setup_s": (statistics.median(setup), "s", len(setup)) if setup else (None, "s", 0),
        # the timed phase per pass: a mean, since a shared host's speed can swing ~30%
        # for seconds at a time and a median of a few passes jumps between the levels
        "wall_s": (sum(walls) / len(walls), "s", len(walls)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "fail_ratio": (failed / len(results), "ratio", len(results)),
        "rows_per_s": (solved / sum(lat), "1/s", len(results)),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms", len(lat)),
        "op_p90_ms": (1e3 * _quantile(lat, 0.9), "ms", len(lat)),
    }
    for cls in ("pi_k100", "rvi_k100", "pi_k1000", "pi_k3000"):
        cls_lat = [r.latency for r in results if r.op.cls == cls]
        value = 1e3 * statistics.median(cls_lat) if cls_lat else None
        m[f"{cls}_ms"] = (value, "ms", len(cls_lat))
    sims = [r for r in results if r.op.cls == "simulate"]
    transitions = sum(r.facts.get("transitions", 0) for r in sims)
    m["transitions_per_s"] = (
        transitions / sum(r.latency for r in sims) if sims else None, "1/s", len(sims))
    return m


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def per_layer(passes, tracer: tracing.Tracer, truth: dict) -> dict:
    """name -> (value, unit, sample count) from the traced passes, per pass."""
    traced = [p for p in passes if p[0].traced]
    plain = [p for p in passes if not p[0].traced]
    n = len(traced)
    results = [r for p in traced for r in p]
    t = tracer.totals([r.spans for r in results])

    def per_pass(x):
        return x / n

    m = {}
    for name, agg in t.items():
        m[f"{name}.calls"] = (per_pass(agg["calls"]), "count", n)
        m[f"{name}.s"] = (per_pass(agg["s"]), "s", agg["calls"])
        m[f"{name}.self_s"] = (per_pass(agg["self_s"]), "s", agg["calls"])
        m[f"{name}.per_s"] = (_rate(agg["calls"], agg["s"]), "1/s", agg["calls"])

    solves = t["pricing.optimize_price"]["calls"]
    evals = t["pricing.profit_derivative"]["calls"] + t["pricing.expected_profit"]["calls"]
    m["pricing.evals_per_solve"] = (evals / solves if solves else 0.0, "evals/solve", solves)
    dem = ("demand.demand", "demand.slope")
    m["demand.s"] = (per_pass(sum(t[k]["s"] for k in dem)), "s", sum(t[k]["calls"] for k in dem))
    m["demand.per_s"] = (_rate(sum(t[k]["calls"] for k in dem), sum(t[k]["s"] for k in dem)),
                         "1/s", sum(t[k]["calls"] for k in dem))
    m["calibration.warnings"] = (per_pass(sum(r.warnings for r in results)), "count", n)
    rows_read = t["traffic.load_series"]["calls"] * (truth.get("slots", 0) - truth.get("gaps", 0))
    m["traffic.load_series.rows_per_s"] = (_rate(rows_read, t["traffic.load_series"]["s"]),
                                           "1/s", t["traffic.load_series"]["calls"])
    m["cli.export_report.bytes"] = (per_pass(sum(r.report_bytes for r in results)), "bytes", n)

    def fact_sum(key, cls_prefix=""):
        return sum(r.facts.get(key, 0) for r in results if r.op.cls.startswith(cls_prefix))

    m["mdp.pi_iterations"] = (per_pass(fact_sum("iterations", "pi_")), "count", n)
    m["mdp.rvi_sweeps"] = (per_pass(fact_sum("iterations", "rvi_")), "count", n)
    m["mdp.structure_violations"] = (per_pass(fact_sum("structure_violations")), "count", n)
    for cls in sorted({r.op.cls for r in results if "structure_violations" in r.facts}):
        m[f"mdp.structure_violations.{cls}"] = (
            per_pass(sum(r.facts["structure_violations"] for r in results if r.op.cls == cls)),
            "count", n)
    for k in ("k100", "k1000", "k3000"):
        ops = [r for r in results if r.op.cls == f"pi_{k}"]
        busy = tracer.totals([r.spans for r in ops])["mdp.policy_iteration"]["s"] if ops else 0.0
        iters = sum(r.facts.get("iterations", 0) for r in ops)
        m[f"mdp.pi.ms_per_iteration.{k}"] = (1e3 * busy / iters if iters else 0.0, "ms", iters)
        m[f"mdp.pi.{k}.iterations_per_s"] = (_rate(iters, busy), "1/s", iters)
    sweeps = fact_sum("iterations", "rvi_")
    rvi_s = t["mdp.relative_value_iteration"]["s"]
    m["mdp.rvi.ms_per_sweep"] = (1e3 * rvi_s / sweeps if sweeps else 0.0, "ms", sweeps)
    m["mdp.rvi.sweeps_per_s"] = (_rate(sweeps, rvi_s), "1/s", sweeps)
    transitions = fact_sum("transitions")
    m["simulate.transitions"] = (per_pass(transitions), "count", n)
    m["simulate.simulate_policy.transitions_per_s"] = (
        _rate(transitions, t["simulate.simulate_policy"]["s"]), "1/s", transitions)

    wall_traced = statistics.median(sum(r.latency for r in p) for p in traced)
    wall_plain = statistics.median(sum(r.latency for r in p) for p in plain)
    m["trace.overhead_s"] = (wall_traced - wall_plain, "s", len(passes))
    m["trace.overhead_pct"] = (100.0 * (wall_traced - wall_plain) / wall_plain, "%", len(passes))
    for name in m:  # a layer whose function no longer exists has no value, not zero
        if any(name.startswith(layer + ".") for layer in tracer.absent):
            m[name] = (None, m[name][1], 0)
    return m


def _print_table(title: str, metrics: dict, missing: str):
    print(title)
    print(f"  {'metric':44s} {'value':>14s}  {'unit':11s} {'n':>7s}")
    for name, (value, unit, count) in metrics.items():
        shown = missing if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>14s}  {unit:11s} {count:>7}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Generate inputs, warm up, measure, check; return the run's record."""
    cli, golden = load_program()
    import checks

    env = environment()
    setup = [] if trace else measure_setup(SETUP_SAMPLES)
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BENCH / ".work"))
    tracer = tracing.Tracer() if trace else None
    try:
        generated = inputs.generate(workload, seed, size, work, golden)
        runner = Runner(cli, checks, work, tracer)
        runner.run_pass(generated.warmup, traced=False)
        passes = measure(runner, generated.ops, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = [r for p in passes for r in p]
    failures = [{"op": r.op.name, "error": r.error} for r in results if not r.ok]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "environment": env, "passes": len(passes), "calls": len(results),
        "failures": failures,
        "end_to_end": end_to_end([p for p in passes if not p[0].traced], setup, rss_mb),
    }
    if tracer:
        record["per_layer"] = per_layer(passes, tracer, generated.facts)
        record["absent_layers"] = tracer.absent
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    if tracer:
        tracer.dump(stem.with_name(stem.name + "-spans.npz"))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    return record


def report(record: dict) -> dict:
    """Print the human-readable tables; return the final JSON line's object."""
    env = record["environment"]
    print(f"== {record['workload']}  seed={record['seed']}  size={record['size']}  "
          f"trace={record['trace']}  passes={record['passes']}  calls={record['calls']} ==")
    print("environment: " + json.dumps(env))
    e2e = record["end_to_end"]
    _print_table("end-to-end (untraced passes)", e2e, "n/a")
    for f in record["failures"][:10]:
        print(f"FAILED {f['op']}: {f['error']}")
    failed = len(record["failures"])
    if record["trace"]:
        layer = record["per_layer"]
        if record["absent_layers"]:
            print("absent layers (function no longer exists): " + ", ".join(record["absent_layers"]))
        _print_table("per-layer (traced passes; counts and seconds are per pass)",
                     dict(sorted(layer.items())), "absent")
        # the JSON line needs numbers: an absent layer reads 0 there
        chosen = {k: (layer[k][0] or 0.0,) + layer[k][1:] for k in PER_LAYER}
    else:
        chosen = {k: e2e[k] for k in GATED}
    return {"correct": failed == 0, "attempted": record["calls"], "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in chosen.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full",
                        help="problem size; 'tiny' is a smoke-test size")
    args = parser.parse_args(argv)
    try:
        for workload in WORKLOADS if args.workload == "all" else [args.workload]:
            record = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.size)
            print(json.dumps(report(record)))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
