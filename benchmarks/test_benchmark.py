"""Tests of the benchmark itself: metric names, answer checks, tracing.

Run from the repository root:  python3 -m pytest benchmarks -q
The runs here use the "tiny" size and one pass, so they take seconds.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# every end-to-end metric is computed on every workload
# (None where the workload makes no such call)
END_TO_END = ["setup_s", "wall_s", "peak_rss_mb", "fail_ratio", "rows_per_s", "op_p50_ms",
              "op_p90_ms", "pi_k100_ms", "rvi_k100_ms", "pi_k1000_ms", "pi_k3000_ms",
              "transitions_per_s"]
LAYER_TABLE = [
    "pricing.optimize_price.calls", "pricing.optimize_price.s",
    "pricing.profit_derivative.calls", "pricing.evals_per_solve",
    "pricing.expected_profit.calls", "uncertainty.tail_probability.calls",
    "uncertainty.tail_probability.s", "uncertainty.partial_overshoot.calls",
    "uncertainty.partial_overshoot.s", "demand.demand.calls", "demand.slope.calls", "demand.s",
    "calibration.calibrate.calls", "calibration.calibrate.s", "calibration.warnings",
    "welfare.welfare_report.s", "traffic.load_series.s", "traffic.load_series.rows_per_s",
    "traffic.prediction_errors.s", "traffic.percentile_95.s", "cli.load_scenario.s",
    "cli.export_report.s", "cli.export_report.bytes", "mdp.spec_build.s",
    "mdp.policy_iteration.s", "mdp.pi_iterations", "mdp.pi.ms_per_iteration.k100",
    "mdp.pi.ms_per_iteration.k1000", "mdp.pi.ms_per_iteration.k3000",
    "mdp.relative_value_iteration.s", "mdp.rvi_sweeps", "mdp.rvi.ms_per_sweep",
    "mdp.verify_structure.s", "mdp.structure_violations", "simulate.simulate_policy.s",
    "simulate.transitions", "simulate.compare_to_analytic.s", "mdp.steady_state.s",
    "trace.overhead_s", "trace.overhead_pct",
]


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_lists_the_emitted_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == run.GATED
    assert [m["name"] for m in BENCHMARK["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == run.WORKLOADS
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == next(
        m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace),
            "--size", "tiny"]
    assert run.main(argv) == 0
    line = _last_line(capsys)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())

    record = json.loads((run.OUT / f"{workload}-seed7-trace{trace}.json").read_text())
    assert list(record["end_to_end"]) == END_TO_END
    assert record["end_to_end"]["fail_ratio"][0] == 0.0
    if trace:
        assert set(LAYER_TABLE) <= set(record["per_layer"])
        assert record["absent_layers"] == []


def test_self_times_partition_the_call_time(tmp_path):
    cli, golden = run.load_program()
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(golden["scenario"]))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        rc = tracer.root(cli.main, ["--out", str(tmp_path / "report"),
                                    "--scenario", str(scenario), "static"])
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert rc == 0
    totals = tracer.totals([(0, tracer.mark())])
    root_s = totals[tracing.ROOT]["s"]
    assert totals["pricing.optimize_price"]["calls"] == 3
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root_s, rel=1e-9)
    assert all(t["self_s"] >= -1e-9 for t in totals.values())


def test_uninstall_restores_names_and_missing_targets_are_absent(monkeypatch):
    run.load_program()
    from spottransit import cli, mdp, simulate
    from spottransit.demand import IsoElasticDemand

    before = (cli.simulate_policy, simulate.steady_state, mdp.steady_state,
              IsoElasticDemand.__dict__["demand"], mdp.MdpSpec.__dict__["from_config"])
    monkeypatch.setitem(tracing.TARGETS, "pricing.gone", ["spottransit.pricing:no_such_function"])
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.absent == ["pricing.gone"]
    assert cli.simulate_policy is simulate.simulate_policy is not before[0]
    assert simulate.steady_state is mdp.steady_state is not before[1]
    tracer.uninstall()
    after = (cli.simulate_policy, simulate.steady_state, mdp.steady_state,
             IsoElasticDemand.__dict__["demand"], mdp.MdpSpec.__dict__["from_config"])
    assert all(a is b for a, b in zip(after, before))


def _corrupt_mdp(scale, algorithm, capacity=None):
    """Wrap cli.cmd_mdp so that matching calls report J* * scale."""
    from spottransit import cli

    original = cli.cmd_mdp

    def cmd_mdp(config_path, alg, tol):
        meta, rows, columns, spec, sol = original(config_path, alg, tol)
        if alg == algorithm and capacity in (None, spec.capacity):
            meta = dict(meta, j_star=meta["j_star"] * scale)
        return meta, rows, columns, spec, sol

    return cmd_mdp


def _flip_passed():
    from spottransit import cli

    original = cli.cmd_simulate

    def cmd_simulate(*args):
        meta, rows, columns = original(*args)
        return dict(meta, passed=not meta["passed"]), rows, columns

    return cmd_simulate


def _perturb_static(rel):
    from spottransit import cli

    original = cli.cmd_static

    def cmd_static(scn):
        meta, rows, columns = original(scn)
        return meta, [dict(r, p_star=r["p_star"] * (1 + rel)) for r in rows], columns

    return cmd_static


@pytest.mark.parametrize("workload, attr, make, failed_op", [
    # the one K=1000-class PI call: J* no longer equals the policy's average revenue
    ("mdp-solve", "cmd_mdp", lambda: _corrupt_mdp(1.02, "pi", capacity=150), "0.3p-pi-k150"),
    # RVI J* within 1% of the reference but off PI by 1e-5: the cross-check catches it
    ("mdp-solve", "cmd_mdp", lambda: _corrupt_mdp(1 + 1e-5, "rvi"), "0.3p-rvi-k100"),
    ("simulate-long", "cmd_simulate", _flip_passed, "simulate-h20000.0"),
    # every static row moves by 1e-8; only the golden rows are known that precisely
    ("scenario-sweep", "cmd_static", lambda: _perturb_static(1e-8), "golden-static"),
])
def test_corrupted_answer_counts_as_failed(workload, attr, make, failed_op, monkeypatch, capsys):
    cli, _ = run.load_program()
    monkeypatch.setattr(cli, attr, make())
    monkeypatch.setattr(run, "measure_setup", lambda samples: [0.5])
    record = run.run_workload(workload, 7, 0, False, "tiny")
    assert [f["op"] for f in record["failures"]] == [failed_op]
    line = run.report(record)
    assert not line["correct"] and line["failed"] == 1
    assert record["end_to_end"]["fail_ratio"][0] == pytest.approx(1 / line["attempted"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "mdp-solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "error" in proc.stderr
