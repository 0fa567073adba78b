import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spottransit import cli
from spottransit.cli import (
    SWEEP_DEFAULTS,
    cmd_calibrate,
    cmd_mdp,
    cmd_predict,
    cmd_simulate,
    cmd_static,
    cmd_sweep,
    cmd_worst_case,
    export_report,
    load_scenario,
    main,
)
from spottransit.mdp import MdpSpec, policy_iteration, policy_rates
from spottransit.traffic import load_series, prediction_errors

LINX_SCENARIO = {"ixp": "linx", "kind": "iso", "beta": [0.2, 0.5, 0.7]}


def test_load_scenario_variants(tmp_path):
    scn = load_scenario(LINX_SCENARIO)
    assert scn.inp.p_bar == 7.5
    assert scn.inp.d_bar == pytest.approx(1080.0)
    assert scn.inp.label == "LINX"
    assert scn.inp.demand_source == "0.9*peak proxy"

    explicit = load_scenario({"p_bar": 10.0, "d_bar": 500.0, "mu": 1.0, "theta": 20.0})
    assert explicit.inp.p_bar == 10.0
    assert explicit.betas == pytest.approx([0.2, 0.3, 0.4, 0.5, 0.6, 0.7])

    region = load_scenario({"region": "hongkong", "d_bar": 160.0, "beta": 0.4})
    assert region.inp.p_bar == 22.0 and region.betas == [0.4]

    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"region": "newyork", "d_bar": 185.0, "theta": 26.0}))
    assert load_scenario(path).inp.p_bar == 7.0

    # IXP presets take overrides: explicit demand keeps the IXP noise
    nix = load_scenario({"ixp": "nix", "d_bar": 200.0, "region": "hongkong"})
    assert nix.inp.d_bar == 200.0 and nix.inp.demand_source == "explicit"
    assert nix.inp.p_bar == 22.0 and nix.inp.theta == 30.2338


def test_load_scenario_requires_one_source():
    with pytest.raises(ValueError, match="demand-scale"):
        load_scenario({"region": "london"})
    with pytest.raises(ValueError, match="demand-scale"):
        load_scenario({"region": "london", "d_bar": 100.0, "trace": "x.csv"})
    with pytest.raises(ValueError, match="p_bar"):
        load_scenario({"d_bar": 100.0})
    with pytest.raises(ValueError, match="positive"):
        load_scenario({"region": "london", "d_bar": 100.0, "r_ratio": -1.0})


def test_load_scenario_from_trace(tmp_path):
    n = 2 * 2016
    t = np.arange(n) * 300.0
    vals = 100.0 + 40.0 * np.sin(2 * np.pi * (t % 604800.0) / 86400.0)
    noise = np.random.default_rng(8).normal(0.0, 0.5, n)
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(f"{int(ts)},{v:.6f}" for ts, v in zip(t, vals + noise)) + "\n")
    scn = load_scenario({"region": "london", "trace": str(path), "beta": 0.5})
    assert scn.inp.d_bar == pytest.approx(140.0, abs=1.0)  # p95 of the sinusoid
    assert scn.inp.demand_source.startswith("trace p95")
    assert scn.inp.theta == pytest.approx(np.sqrt(2.0) * 0.5, rel=0.1)
    # the noise is the residual moments of the Q-Q report, without computing its Q-Q data
    report = prediction_errors(load_series(path))
    assert (scn.inp.mu, scn.inp.theta) == (report.residual_mean, report.residual_sd)

    # a noiseless trace has zero residual sd: no noise model, rejected at load
    path.write_text("\n".join(f"{int(ts)},{v:.6f}" for ts, v in zip(t, vals)) + "\n")
    with pytest.raises(ValueError, match="theta"):
        load_scenario({"region": "london", "trace": str(path), "beta": 0.5})


def test_zero_elastic_share_rejected():
    scn = load_scenario({"ixp": "linx", "beta": 0.0})
    with pytest.raises(ValueError, match="beta"):
        cmd_static(scn)


def test_cmd_static_rows():
    meta, rows, columns = cmd_static(load_scenario(LINX_SCENARIO))
    assert meta["command"] == "static"
    assert "dollar" in meta["dollar_note"]
    assert [r["beta"] for r in rows] == [0.2, 0.5, 0.7]
    for row in rows:
        assert list(row) == columns
        # welfare accounting and the improvement flags
        assert row["p_star"] < row["p_bar"]
        assert row["profit_improvement_pct"] > 0
        assert row["surplus_improvement_pct"] > 0
        assert row["discount_pct"] == pytest.approx(100 * (1 - row["price_ratio"]), rel=1e-12)
        assert row["welfare_spot"] > row["welfare_regular"]
        assert row["welfare_spot"] == pytest.approx(
            row["surplus_spot"] + row["expected_profit"], rel=1e-9
        )
    # price rises with the elastic share
    p_stars = [r["p_star"] for r in rows]
    assert p_stars == sorted(p_stars)


def test_cmd_calibrate_rows():
    meta, rows, columns = cmd_calibrate(load_scenario(LINX_SCENARIO))
    assert [r["beta"] for r in rows] == [0.2, 0.5, 0.7]
    for row in rows:
        assert list(row) == columns
        assert row["r_bar"] == pytest.approx(3.75)
        assert row["capacity"] == pytest.approx((0.4 + row["beta"]) * 1080.0)
        assert row["theta_scaled"] == pytest.approx(row["beta"] * 174.8157)


def test_sweep_r_ratio_monotone():
    scn = load_scenario({"ixp": "linx", "kind": "iso", "beta": [0.3, 0.6]})
    meta, rows, _ = cmd_sweep(scn, "r_ratio")
    assert len(rows) == len(SWEEP_DEFAULTS["r_ratio"]) * 2
    assert all(meta["monotonicity"].values())
    for beta in (0.3, 0.6):
        ps = [r["p_star"] for r in rows if r["beta"] == beta]
        assert all(b >= a - 1e-9 for a, b in zip(ps, ps[1:]))


def test_sweep_keys_each_beta_by_its_repr():
    # two betas that print alike at 6 digits keep a monotonicity entry each
    scn = load_scenario({"ixp": "linx", "kind": "iso", "beta": [0.3, 0.3000001]})
    meta, _, _ = cmd_sweep(scn, "r_ratio", values=[0.4, 0.6])
    assert list(meta["monotonicity"]) == ["p_star_nondecreasing_beta_0.3",
                                          "p_star_nondecreasing_beta_0.3000001"]


def test_sweep_gamma_improvements_nondecreasing():
    scn = load_scenario({"ixp": "linx", "kind": "iso", "beta": [0.4]})
    _, rows, _ = cmd_sweep(scn, "gamma")
    profit = [r["profit_improvement_pct"] for r in rows]
    surplus = [r["surplus_improvement_pct"] for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(profit, profit[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(surplus, surplus[1:]))


def test_sweep_singleton_matches_static():
    scn = load_scenario(LINX_SCENARIO)
    _, sweep_rows, _ = cmd_sweep(scn, "r_ratio", values=[scn.inp.r_ratio])
    _, static_rows, _ = cmd_static(scn)
    for srow, trow in zip(sweep_rows, static_rows):
        assert srow["p_star"] == pytest.approx(trow["p_star"], rel=1e-12)
        assert srow["profit_improvement_pct"] == pytest.approx(
            trow["profit_improvement_pct"], rel=1e-12
        )


def test_sweep_soft_failures_keep_going():
    # low penalty ratios reject via the noise/capacity check in some corners;
    # an impossible one (B >= C via huge theta) must produce error rows, not raise
    scn = load_scenario({"p_bar": 7.5, "d_bar": 100.0, "mu": 0.0, "theta": 80.0, "beta": [0.7]})
    _, rows, _ = cmd_sweep(scn, "m_ratio", values=[1.0])
    assert rows[0].get("error")


def test_worst_case_findings():
    scn = load_scenario(LINX_SCENARIO)
    meta, rows, _ = cmd_worst_case(scn)
    assert meta["parameters"] == {"r_ratio": 0.9, "m_ratio": 1.5, "gamma": 1.1}
    for row in rows:
        assert row["p_star"] < row["p_bar"]
        assert row["profit_improvement_pct"] >= 10.0
    # the surplus floor is not attainable on this scenario and must be
    # reported as a finding instead of crashing
    checks = {f["check"] for f in meta["findings"]}
    assert any("surplus" in c for c in checks)
    assert not any("spot_below_regular" in c for c in checks)
    # typical setting dominates the worst case
    _, typical, _ = cmd_static(scn)
    for t, w in zip(typical, rows):
        assert t["profit_improvement_pct"] > w["profit_improvement_pct"]
        assert t["surplus_improvement_pct"] > w["surplus_improvement_pct"]


def test_export_roundtrip(tmp_path):
    meta, rows, columns = cmd_static(load_scenario(LINX_SCENARIO))
    jpath = tmp_path / "out.json"
    export_report(meta, rows, columns, "json", jpath)
    saved = json.loads(jpath.read_text())
    assert saved["meta"]["command"] == "static"
    assert len(saved["rows"]) == len(rows)
    for orig, back in zip(rows, saved["rows"]):
        for key in columns:
            assert back[key] == orig[key]

    cpath = tmp_path / "out.csv"
    export_report(meta, rows, columns, "csv", cpath)
    lines = [l for l in cpath.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].split(",") == columns
    assert len(lines) == 1 + len(rows)
    # floats are printed with 6 significant digits
    p_star_col = columns.index("p_star")
    printed = float(lines[1].split(",")[p_star_col])
    assert printed == pytest.approx(rows[0]["p_star"], rel=1e-5)
    assert "# dollar_note:" in cpath.read_text()


def test_export_empty_rows_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    export_report({"command": "x"}, [], ["a", "b"], "csv", path)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines == ["a,b"]
    with pytest.raises(ValueError):
        export_report({}, [], ["a"], "xml", tmp_path / "bad.xml")


def test_main_static_and_report_roundtrip(tmp_path):
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(LINX_SCENARIO))
    out = tmp_path / "static_run"
    rc = main(["--scenario", str(scn_path), "--out", str(out), "--format", "json", "static"])
    assert rc == 0
    saved = json.loads((tmp_path / "static_run.json").read_text())
    assert len(saved["rows"]) == 3

    # re-export the saved JSON as CSV through the report subcommand
    out2 = tmp_path / "again"
    rc = main(["--out", str(out2), "--format", "csv", "report", "--in", str(tmp_path / "static_run.json")])
    assert rc == 0
    text = (tmp_path / "again.csv").read_text()
    assert "p_star" in text.splitlines()[1] or "p_star" in text


def test_main_predict(tmp_path):
    n = 2 * 2016
    t = np.arange(n) * 300.0
    vals = 100.0 + 10.0 * np.sin(2 * np.pi * (t % 604800.0) / 86400.0)
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(f"{int(ts)},{v:.4f}" for ts, v in zip(t, vals)) + "\n")
    out = tmp_path / "pred"
    rc = main(["--out", str(out), "predict", "--trace", str(trace)])
    assert rc == 0
    saved = json.loads((tmp_path / "pred.json").read_text())
    assert saved["meta"]["residual_count"] == 2016
    # the scalar fields of PredictionReport, in field order
    assert list(saved["meta"]) == [
        "command", "trace", "samples", "step_seconds", "gaps_filled", "window_seconds",
        "percentile_95", "residual_mean", "residual_sd", "residual_count", "degenerate"]
    assert saved["meta"]["degenerate"] is True  # noiseless periodic trace


def test_mdp_rows_hold_the_solution_as_python_floats(tmp_path):
    meta, rows, columns, spec, sol = cmd_mdp(_mdp_config(tmp_path), "pi", 1e-9)
    assert columns == ["state", "price", "h"]
    assert rows == [{"state": n, "price": float(p), "h": float(h)}
                    for n, (p, h) in enumerate(zip(sol.policy.prices, sol.h))]
    assert all(type(r["state"]) is int and type(r["price"]) is type(r["h"]) is float
               for r in rows)


def test_main_mdp_and_simulate(tmp_path):
    cfg = tmp_path / "mdp.json"
    cfg.write_text(json.dumps(
        {"capacity": 10, "arrival": [24.0, 0.0, -1.5], "departure": [0.0, 0.3],
         "p_max": 4.0, "price_points": 200}
    ))
    out = tmp_path / "mdp_run"
    rc = main(["--out", str(out), "mdp", "--config", str(cfg)])
    assert rc == 0
    saved = json.loads((tmp_path / "mdp_run.json").read_text())
    assert saved["meta"]["structure"]["price_monotone"]
    assert saved["meta"]["structure"]["worst_violation"] == 0.0
    assert len(saved["rows"]) == 11

    out2 = tmp_path / "sim_run"
    rc = main(["--out", str(out2), "simulate", "--config", str(cfg),
               "--horizon", "5000", "--seed", "42"])
    assert rc == 0
    sim = json.loads((tmp_path / "sim_run.json").read_text())
    assert sim["meta"]["passed"] is True
    # the scalar fields of SimResult and ComparisonReport, in field order; the
    # analytic revenue is j_star
    assert list(sim["meta"]) == [
        "command", "seed", "horizon", "warmup", "j_star", "revenue_rate_estimate",
        "revenue_rate_stderr", "transitions", "stuck_state", "revenue_z", "tv_distance", "passed"]
    assert abs(sim["meta"]["revenue_z"]) <= 3.0


@pytest.mark.parametrize("model,vanish,concave", [
    # a departure rate that price cannot change: every state below K posts price 0
    pytest.param({"capacity": 2, "arrival": [1, -1], "departure": [1], "p_max": 1,
                  "price_points": 11}, False, False, id="constant-departure"),
    pytest.param({"capacity": 10, "arrival": [24.0, 0.0, -1.5], "departure": [0.0, 0.3],
                  "p_max": 4.0, "price_points": 200}, True, True, id="0.3p"),
])
def test_mdp_report_says_whether_departures_vanish_at_price_0(tmp_path, model, vanish, concave):
    cfg = tmp_path / "mdp.json"
    cfg.write_text(json.dumps(model))
    assert main(["--out", str(tmp_path / "r"), "mdp", "--config", str(cfg)]) == 0
    meta = json.loads((tmp_path / "r.json").read_text())["meta"]
    keys = list(meta)
    assert keys[keys.index("structure") + 1] == "departures_vanish_at_price_0"
    assert meta["departures_vanish_at_price_0"] is vanish
    assert meta["structure"]["h_concave"] is concave


def test_simulate_rows_hold_the_analytic_occupancy(tmp_path, monkeypatch):
    # the stationary law is computed once, by compare_to_analytic, and the rows read it there
    from spottransit import mdp, simulate

    calls = []
    law = mdp.steady_state
    counted = lambda *a: calls.append(a) or law(*a)  # noqa: E731
    for module in (mdp, simulate):
        monkeypatch.setattr(module, "steady_state", counted)
    meta, rows, _ = cmd_simulate(_mdp_config(tmp_path), 5000.0, None, 42)
    assert len(calls) == 1
    spec = MdpSpec.from_config(MDP_CONFIG)
    pi = law(spec, policy_iteration(spec).policy)
    assert [r["steady_state"] for r in rows] == pi.tolist()
    assert all(type(r["occupancy"]) is type(r["steady_state"]) is float for r in rows)


def test_golden_static_run(golden=None):
    import pathlib

    golden_path = pathlib.Path(__file__).parent / "data" / "golden_static_linx.json"
    saved = json.loads(golden_path.read_text())
    meta, rows, columns = cmd_static(load_scenario(saved["scenario"]))
    assert len(rows) == len(saved["rows"])
    for fresh, frozen in zip(rows, saved["rows"]):
        for key, val in frozen.items():
            if isinstance(val, float):
                assert fresh[key] == pytest.approx(val, rel=1e-9), key
            else:
                assert fresh[key] == val, key


def _run_error(argv, capsys):
    """Run main expecting a clean failure; returns the single stderr line."""
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("scenario,names", [
    ({"ixp": "foo"}, "linx"),
    ({"region": "paris", "d_bar": 100.0}, "london"),
])
def test_main_unknown_preset_is_one_line_error(tmp_path, capsys, scenario, names):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    line = _run_error(["--scenario", str(path), "--out", str(tmp_path / "r"), "static"], capsys)
    assert names in line


def test_main_rejects_a_scenario_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps([{"ixp": "linx"}]))
    line = _run_error(["--scenario", str(path), "--out", str(tmp_path / "r"), "static"], capsys)
    assert "JSON object" in line


@pytest.mark.parametrize("command", [["mdp"], ["simulate", "--seed", "1"]])
def test_main_rejects_an_mdp_config_that_is_not_an_object(tmp_path, capsys, command):
    path = tmp_path / "mdp.json"
    path.write_text(json.dumps([1, 2]))
    argv = ["--out", str(tmp_path / "r"), command[0], "--config", str(path), *command[1:]]
    assert "JSON object" in _run_error(argv, capsys)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("saved", [
    {"rows": []},
    [],
    {"meta": {}, "rows": [1]},
    {"meta": {}, "rows": [], "columns": 5},
    {"meta": {}, "rows": [], "columns": None},  # present columns are a list, never null
])
def test_main_report_rejects_a_file_that_is_not_a_report(tmp_path, capsys, saved):
    path = tmp_path / "saved.json"
    path.write_text(json.dumps(saved))
    argv = ["--out", str(tmp_path / "r"), "--format", "csv", "report", "--in", str(path)]
    assert "is not a JSON report" in _run_error(argv, capsys)
    assert not (tmp_path / "r.csv").exists()


def test_main_report_writes_csv_as_utf8_with_lone_surrogates_escaped(tmp_path, capsys):
    # JSON text can hold a lone surrogate, which no UTF-8 file can
    path = tmp_path / "saved.json"
    path.write_text(r'{"meta": {"label": "x\ud800"}, "rows": [{"name": "Z\u00fcrich \udc80"}]}')
    assert main(["--out", str(tmp_path / "r"), "--format", "csv", "report", "--in", str(path)]) == 0
    assert (tmp_path / "r.csv").read_bytes().decode("utf-8") == (
        "# label: x\\ud800\nname\nZ\u00fcrich \\udc80\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the row's own check refuses it, silently
def test_main_static_rejects_demand_that_overflows_at_the_optimum(tmp_path, capsys):
    # calibrates to finite parameters; the cheap penalty puts p* where demand overflows
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"p_bar": 1.0, "d_bar": 1.7e308, "beta": 0.5, "m_ratio": 0.01}))
    line = _run_error(["--scenario", str(path), "--out", str(tmp_path / "r"), "static"], capsys)
    assert "degenerate parameters" in line
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("scenario", [
    # (v/alpha - p_bar)**3 overflows
    {"p_bar": 1e300, "d_bar": 1e20, "mu": 1, "theta": 1e6, "r_ratio": 0.5, "kind": "linear"},
    # p_bar**(2 - alpha) overflows at alpha = 320
    {"p_bar": 0.1, "d_bar": 1e20, "mu": 1, "theta": 1e6, "alpha_bar": 2, "gamma": 160},
])
@pytest.mark.parametrize("command", ["calibrate", "static"])
def test_main_refuses_a_surplus_that_overflows(tmp_path, capsys, scenario, command):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    line = _run_error(["--scenario", str(path), "--out", str(tmp_path / "r"), command], capsys)
    assert line == ("error: calibrated spot demand consumer_surplus overflows to inf; "
                    "the scenario's demand scale is too large to price")
    assert not (tmp_path / "r.json").exists()


def test_an_iso_curve_without_surplus_is_refused_where_its_warning_says(tmp_path, capsys):
    # spot elasticity gamma * alpha_bar = 1.875 <= 2: the surplus integral diverges
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"ixp": "linx", "alpha_bar": 1.5}))
    warning = "every priced row reports its surplus and is refused"
    with pytest.warns(UserWarning, match=warning):
        assert main(["--scenario", str(path), "--out", str(tmp_path / "c"), "calibrate"]) == 0
    for command in ("static", "worst-case"):
        with pytest.warns(UserWarning, match=warning):
            line = _run_error(["--scenario", str(path), "--out", str(tmp_path / "r"), command],
                              capsys)
        assert line.startswith("error: surplus undefined for iso-elastic alpha=")
    assert not (tmp_path / "r.json").exists()


def test_main_unknown_kind_fails_before_solving(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"ixp": "linx", "kind": "loglog"}))
    out = tmp_path / "sweep"
    line = _run_error(["--scenario", str(path), "--out", str(out), "sweep", "--param", "gamma"],
                      capsys)
    assert "loglog" in line
    assert not (tmp_path / "sweep.json").exists()


@pytest.mark.parametrize("command", ["calibrate", "static"])
@pytest.mark.parametrize("change,needle", [
    *[({key: float("inf")}, key) for key in ("p_bar", "d_bar", "gamma", "alpha_bar")],
    *[({key: float("inf")}, "ratios") for key in ("r_ratio", "m_ratio")],
    ({"beta": []}, "beta"),
    ({"beta": [None]}, "beta"),
    ({"beta": ["0.5"]}, "beta"),
    ({"gamma": None}, "gamma"),
    ({"r_ratio": True}, "r_ratio"),
    ({"r_ratio": [1]}, "r_ratio"),
    ({"m_ratio": {}}, "m_ratio"),
    ({"p_bar": [7.5]}, "p_bar"),
    ({"d_bar": "100"}, "d_bar"),
    ({"theta": [1.0]}, "theta"),
    ({"alpha_bar": None}, "alpha_bar"),
    ({"trace": 0}, "trace"),
    # null is never a valid value, and a key outside the table is refused by name
    *[({key: None}, key) for key in ("p_bar", "d_bar", "mu", "theta", "trace", "region", "ixp")],
    ({"gama": 2.0}, "gama"),
])
def test_main_rejects_bad_scenario_values_at_load(tmp_path, capsys, command, change, needle):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"ixp": "linx", "beta": 0.5, **change}))
    line = _run_error(["--scenario", str(path), "--out", str(tmp_path / "r"), command], capsys)
    assert needle in line
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("change,needle", [
    ({"arrival": "absent"}, "arrival"),
    ({"p_max": None}, "p_max"),
    ({"capacity": 10.7}, "capacity"),
    ({"capacity": float("inf")}, "capacity"),
    ({"capacity": float("nan")}, "capacity"),
    ({"p_max": float("nan")}, "p_max"),
    ({"p_max": "nan"}, "p_max"),
    ({"p_max": [4]}, "p_max"),
    ({"p_max": 0}, "p_max"),
    ({"price_points": 10.7}, "price_points"),
    ({"price_points": 1}, "price_points"),
    ({"price_points": None}, "price_points"),
    ({"departure": [0.0, float("nan")]}, "finite"),
    ({"arrival": [None]}, "arrival"),
    ({"arrival": {}}, "arrival"),
    ({"arrival": []}, "arrival"),
    ({"arrival": [24.0, float("inf")]}, "arrival"),
    ({"arrival": "24"}, "arrival"),
    ({"departure": [0.0, True]}, "departure"),
    ({"capacity": 19, "price_points": 1_000_001}, "price_points 1000001"),
    ({"capacity": 1_000_001}, "capacity 1000001"),
    ({"price_point": 50}, "unknown MDP config key 'price_point'; keys are capacity, arrival, "
                          "departure, p_max, price_points"),
    # found by the CLI fuzz test: finite coefficients whose rates overflow on the grid
    # printed numpy's overflow warnings before the error
    ({"capacity": 1, "departure": [1e308, 1e308, 4.5]}, "rates must be finite on the price grid"),
    # found by the CLI fuzz test: K p_max = inf made RVI fail with an IndexError traceback
    ({"p_max": 1e308, "arrival": [24.0, -24.0], "price_points": 24},
     "the full state's revenue rate capacity x p_max overflows: 10 x 1e+308"),
    # a negative rate at price 0 made PI blame a singular system and RVI post the price 0
    ({"capacity": 2, "arrival": [1, -0.25], "departure": [-1, 2], "price_points": 2},
     "departure rate at price 0 must be at least 0, got -1.0"),
])
@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would be a second stderr line
def test_main_mdp_config_checks(tmp_path, capsys, change, needle):
    cfg = {"capacity": 10, "arrival": [24.0, 0.0, -1.5], "departure": [0.0, 0.3],
           "p_max": 4.0, "price_points": 200}
    cfg.update(change)
    cfg = {k: v for k, v in cfg.items() if v != "absent"}
    path = tmp_path / "mdp.json"
    path.write_text(json.dumps(cfg))
    line = _run_error(["--out", str(tmp_path / "r"), "mdp", "--config", str(path)], capsys)
    assert needle in line


@pytest.mark.filterwarnings("error")  # in a shell, numpy's overflow warnings came first
def test_main_rvi_refuses_values_past_the_float_range(tmp_path, capsys):
    # K p_max = 1e308 is finite, but the values of h are not: RVI's greedy step picked the
    # index past the grid and failed with an IndexError traceback
    cfg = tmp_path / "mdp.json"
    cfg.write_text(json.dumps({"capacity": 10, "arrival": [24.0, -24.0], "departure": [0.0, 0.3],
                               "p_max": 1e307, "price_points": 24}))
    argv = ["--out", str(tmp_path / "r"), "mdp", "--config", str(cfg), "--algorithm", "rvi"]
    assert _run_error(argv, capsys) == ("error: relative value iteration overflowed at greedy "
                                        "step 2: the model's values exceed the float range")


@pytest.mark.filterwarnings("error")
def test_main_pi_refuses_values_past_the_float_range(tmp_path, capsys):
    # the same model: PI blamed a singular system for an h that overflows
    cfg = tmp_path / "mdp.json"
    cfg.write_text(json.dumps({"capacity": 10, "arrival": [24.0, -24.0], "departure": [0.0, 0.3],
                               "p_max": 1e307, "price_points": 24}))
    argv = ["--out", str(tmp_path / "r"), "mdp", "--config", str(cfg)]
    assert _run_error(argv, capsys) == ("error: policy evaluation overflowed: the model's values "
                                        "exceed the float range")


@pytest.mark.parametrize("algorithm", ["pi", "rvi"])
@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-9", "-inf"])
def test_main_mdp_rejects_a_bad_tol(tmp_path, capsys, algorithm, tol):
    cfg = tmp_path / "mdp.json"
    cfg.write_text(json.dumps({"capacity": 5, "arrival": [24.0, 0.0, -1.5],
                               "departure": [0.0, 0.3], "p_max": 4.0, "price_points": 100}))
    argv = ["--out", str(tmp_path / "r"), "mdp", "--config", str(cfg),
            "--algorithm", algorithm, f"--tol={tol}"]
    assert "tol must be a finite number above 0" in _run_error(argv, capsys)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("window", ["inf", "nan", "0", "-604800"])
def test_main_predict_rejects_a_bad_window(tmp_path, capsys, window):
    trace = tmp_path / "trace.csv"
    trace.write_text("".join(f"{i * 300},{100 + i % 7}\n" for i in range(2 * 2016)))
    argv = ["--out", str(tmp_path / "r"), "predict", "--trace", str(trace), f"--window={window}"]
    assert "window must be a finite number of seconds above 0" in _run_error(argv, capsys)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("horizon,warmup", [("inf", "10"), ("1e3", "inf"), ("inf", None)])
def test_main_simulate_rejects_non_finite_horizon(tmp_path, capsys, horizon, warmup):
    cfg = tmp_path / "mdp.json"
    cfg.write_text(json.dumps({"capacity": 2, "arrival": [24.0, 0.0, -1.5],
                               "departure": [0.0, 0.3], "p_max": 4.0, "price_points": 20}))
    argv = ["--out", str(tmp_path / "r"), "simulate", "--config", str(cfg),
            "--horizon", horizon, "--seed", "1"]
    line = _run_error(argv + (["--warmup", warmup] if warmup else []), capsys)
    assert "finite" in line


@pytest.mark.filterwarnings("error")  # in a shell, numpy's warning was a second stderr line
def test_main_simulate_refuses_a_horizon_too_short_to_batch(tmp_path, capsys):
    # found by the CLI fuzz test: 5e-324 / 20 batches underflows to a batch length of 0,
    # and the walk then divided by it
    argv = ["--out", str(tmp_path / "r"), "simulate", "--config", _mdp_config(tmp_path),
            "--horizon", "5e-324", "--seed", "1"]
    assert _run_error(argv, capsys) == ("error: horizon - warmup = 4.94066e-324 is too short "
                                        "to split into 20 batches")


def test_main_simulate_admits_nothing_at_the_full_state(tmp_path):
    # arrival(p_max) = 8e-4 passes the spec's slack of 1e-9 of the largest rate (1e6)
    cfg = {"capacity": 2, "arrival": [1000000.0, -249999.9998], "departure": [0.0, 0.001],
           "p_max": 4.0, "price_points": 50}
    spec = MdpSpec.from_config(cfg)
    assert spec.lam_grid[-1] > 0
    assert policy_rates(spec, policy_iteration(spec).policy)[0][-1] == 0.0
    path = tmp_path / "mdp.json"
    path.write_text(json.dumps(cfg))
    argv = ["--out", str(tmp_path / "sim"), "simulate", "--config", str(path),
            "--horizon", "1000", "--seed", "1"]
    assert main(argv) == 0
    assert json.loads((tmp_path / "sim.json").read_text())["meta"]["passed"] is True


def test_main_predict_csv(tmp_path):
    n = 3 * 2016
    t = np.arange(n) * 300.0
    rng = np.random.default_rng(3)
    vals = 100.0 + 10.0 * np.sin(2 * np.pi * (t % 604800.0) / 86400.0) + rng.normal(0, 2.0, n)
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(f"{int(ts)},{v:.4f}" for ts, v in zip(t, vals)) + "\n")
    out = tmp_path / "qq"
    assert main(["--out", str(out), "--format", "csv", "predict", "--trace", str(trace)]) == 0
    lines = [l for l in (tmp_path / "qq.csv").read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "theoretical_quantile,sample_quantile"
    assert len(lines) == 1 + 2 * 2016  # one Q-Q pair per week-ahead residual


def reference_export_json(meta, rows, columns, path):
    """The indent=2 writer that export_report's JSON branch replaced, kept as the reference."""
    with open(path, "w") as fh:
        json.dump({"meta": meta, "rows": rows, "columns": columns}, fh, indent=2,
                  default=lambda o: o.item() if isinstance(o, np.generic) else str(o))
        fh.write("\n")


MDP_CONFIG = {"capacity": 10, "arrival": [24.0, 0.0, -1.5], "departure": [0.0, 0.3],
              "p_max": 4.0, "price_points": 200}


def _mdp_config(tmp_path) -> str:
    path = tmp_path / "mdp.json"
    path.write_text(json.dumps(MDP_CONFIG))
    return str(path)


def _noisy_trace(tmp_path) -> str:
    n = 3 * 2016
    t = np.arange(n) * 300.0
    vals = 100.0 + 10.0 * np.sin(2 * np.pi * (t % 604800.0) / 86400.0)
    vals += np.random.default_rng(3).normal(0, 2.0, n)
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,gbps\n" + "".join(f"{int(a)},{b:.4f}\n" for a, b in zip(t, vals)))
    return str(path)


REPORTS = {
    "calibrate": lambda tmp: cmd_calibrate(load_scenario(LINX_SCENARIO)),
    "static": lambda tmp: cmd_static(load_scenario(LINX_SCENARIO)),
    "sweep": lambda tmp: cmd_sweep(load_scenario(LINX_SCENARIO), "gamma", [1.1, 1.5]),
    "worst-case": lambda tmp: cmd_worst_case(load_scenario(LINX_SCENARIO)),
    "predict": lambda tmp: cmd_predict(_noisy_trace(tmp), 604800.0),
    "mdp": lambda tmp: cmd_mdp(_mdp_config(tmp), "pi", 1e-9)[:3],
    "simulate": lambda tmp: cmd_simulate(_mdp_config(tmp), 5000.0, None, 42),
    "no rows": lambda tmp: ({"command": "x"}, [], ["a", "b"]),
    "numpy scalars": lambda tmp: (
        {"n": np.int64(3), "x": np.float64(0.25), "ok": np.bool_(True), "grid": [np.int32(1)]},
        [{"a": np.float64(1.5), "b": np.int64(2), "c": np.bool_(False)}], ["a", "b", "c"]),
    "non-finite": lambda tmp: (
        {"command": "x", "bound": math.inf},
        [{"a": math.nan, "b": -math.inf}, {"a": 1.0, "b": math.inf}], ["a", "b"]),
}


def _parsed(path):
    # NaN never equals NaN, so non-finite constants are compared by their JSON spelling
    return json.loads(Path(path).read_text(), parse_constant=lambda name: name)


@pytest.mark.parametrize("name", list(REPORTS))
def test_json_report_parses_as_the_indented_writer_with_one_row_per_line(tmp_path, name):
    meta, rows, columns = REPORTS[name](tmp_path)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    export_report(meta, rows, columns, "json", new)
    reference_export_json(meta, rows, columns, old)
    assert _parsed(new) == _parsed(old)

    lines = new.read_text().splitlines()
    assert lines[0] == "{" and lines[1] == '  "meta": {' and lines[-1] == "}"
    row_lines = [line for line in lines if line.startswith("    {")]
    assert len(row_lines) == len(rows)
    for line, row in zip(row_lines, _parsed(new)["rows"]):
        assert json.loads(line.removesuffix(","), parse_constant=lambda c: c) == row
    assert new.stat().st_size <= old.stat().st_size

    # re-exporting either file as CSV gives the same bytes
    for path, stem in ((new, "new_csv"), (old, "old_csv")):
        assert main(["--out", str(tmp_path / stem), "--format", "csv",
                     "report", "--in", str(path)]) == 0
    assert (tmp_path / "new_csv.csv").read_bytes() == (tmp_path / "old_csv.csv").read_bytes()


def test_json_row_lines_equal_json_dumps(tmp_path):
    rows = [
        {"a": math.nan, "b": math.inf, "c": -math.inf, "d": None, "e": True, "f": False},
        {"a": np.float64(0.1), "b": np.int64(-7), "c": np.bool_(True), "d": np.float32(0.1),
         "e": np.float64(np.nan), "f": [np.int32(2), np.float64(-np.inf)]},
        {"a": "Zürich — 東京 \u2028 \"q\"", "b": {"nested": [None, 1e300, -0.0]}, "c": 10**20},
    ]
    path = tmp_path / "r.json"
    export_report({"command": "x"}, rows, list("abcdef"), "json", path)
    lines = path.read_text().splitlines()
    start = lines.index('  "rows": [') + 1
    for line, row in zip(lines[start : start + len(rows)], rows, strict=True):
        assert line.removeprefix("    ").removesuffix(",") == json.dumps(row, default=cli._plain)
    assert lines[start + len(rows)] == "  ],"


def test_main_parser_is_built_once_and_keeps_nothing_between_calls(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"ixp": "linx", "beta": 0.5}))
    out = tmp_path / "r"
    report = tmp_path / "r.json"
    base = ["--scenario", str(scn), "--out", str(out)]

    assert main(base + ["--format", "csv", "sweep", "--param", "gamma", "--values", "1.5"]) == 0
    assert not report.exists()
    assert main(base + ["sweep", "--param", "gamma"]) == 0
    rows = json.loads(report.read_text())["rows"]
    assert [r["sweep_value"] for r in rows] == SWEEP_DEFAULTS["gamma"]

    with pytest.raises(SystemExit) as exc:
        main(base + ["sweep", "--param", "alpha"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(base + ["static"]) == 0
    assert json.loads(report.read_text())["meta"]["command"] == "static"

    cfg = _mdp_config(tmp_path)
    assert main(["--out", str(out), "mdp", "--config", cfg, "--algorithm", "rvi"]) == 0
    assert json.loads(report.read_text())["meta"]["algorithm"] == "rvi"
    assert main(["--out", str(out), "mdp", "--config", cfg]) == 0
    assert json.loads(report.read_text())["meta"]["algorithm"] == "pi"


def _run_python(args: list, cwd) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with this package's source first on its path."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


OVERFLOW = "demand v overflows to inf"


@pytest.mark.parametrize("scenario,command,expected", [
    pytest.param({"ixp": "linx", "kind": "linear", "d_bar": 1e308}, "static", OVERFLOW,
                 id="linear-static"),
    pytest.param({"ixp": "linx", "kind": "iso", "d_bar": 1e308}, "calibrate", OVERFLOW,
                 id="iso-calibrate"),
    # p̄**alpha overflows the float range in the iso calibration
    *[pytest.param({"ixp": "nix", key: 1e20}, command, OVERFLOW, id=f"{key}-{command}")
      for key in ("alpha_bar", "gamma") for command in ("static", "calibrate")],
    # ... and underflows it when p̄ < 1
    pytest.param({"p_bar": 0.5, "d_bar": 100.0, "alpha_bar": 1e20}, "static",
                 "demand v = share * d_bar * p_bar**alpha underflows to 0.0", id="underflow-static"),
])
def test_cli_calibration_overflow_is_one_error_line(tmp_path, scenario, command, expected):
    # run as a program: outside pytest, any warning would reach stderr
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(scenario))
    run = _run_python(["-m", "spottransit.cli", "--scenario", str(scn),
                       "--out", str(tmp_path / "r"), command], tmp_path)
    assert run.returncode == 2
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), run.stderr
    assert expected in lines[0]
    assert not (tmp_path / "r.json").exists()


def test_simulate_shares_only_the_solve_with_mdp(tmp_path, monkeypatch):
    # the mdp report's structure check and rows are not part of a simulate run
    def refuse(*args):
        raise AssertionError("simulate built the mdp report")

    monkeypatch.setattr(cli, "cmd_mdp", refuse)
    monkeypatch.setattr(cli.mdp, "verify_structure", refuse)
    meta, rows, _ = cmd_simulate(_mdp_config(tmp_path), 5000.0, None, 42)
    assert meta["passed"] is True and len(rows) == 11


def test_cli_simulate_refuses_a_walk_too_long_to_run(tmp_path):
    # a departure term of 1e200 hides the arrivals; horizon x largest rate is 2e202 transitions
    config = tmp_path / "mdp.json"
    config.write_text(json.dumps({"capacity": 300, "arrival": [1e6, 0.3, 24, 24],
                                  "departure": [1e200, -1e6, 3], "p_max": 4, "price_points": 10}))
    run = _run_python(["-m", "spottransit.cli", "--out", str(tmp_path / "s"), "simulate",
                       "--config", str(config), "--horizon", "200", "--seed", "1"], tmp_path)
    assert run.returncode == 2
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), run.stderr
    assert "2e+202 expected transitions" in lines[0] and "1e+09" in lines[0]
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("values,entry", [
    ("", "''"), ("0.3,,0.5", "''"), ("nan", "'nan'"), ("inf", "'inf'"), ("0.5,-inf", "'-inf'"),
    ("1.1,abc", "'abc'"),
])
def test_main_sweep_rejects_a_bad_values_entry(tmp_path, capsys, values, entry):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"ixp": "linx", "beta": 0.5}))
    argv = ["--scenario", str(scn), "--out", str(tmp_path / "r"),
            "sweep", "--param", "gamma", f"--values={values}"]
    line = _run_error(argv, capsys)
    assert "--values" in line and line.endswith(f"got {entry}")
    assert not (tmp_path / "r.json").exists()


SCIPY_LOADED = "sorted(m for m in sys.modules if m.startswith('scipy'))"


def test_import_and_static_commands_load_no_scipy(tmp_path):
    (tmp_path / "scn.json").write_text(json.dumps(LINX_SCENARIO))
    trace = _noisy_trace(tmp_path)
    run = _run_python(["-c", f"""
import sys
import spottransit, spottransit.cli
print({SCIPY_LOADED})
for argv in (["static"], ["sweep", "--param", "gamma"], ["predict", "--trace", {trace!r}]):
    assert spottransit.cli.main(["--scenario", "scn.json", "--out", "r"] + argv) == 0
print({SCIPY_LOADED})
"""], tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0] == "[]"
    assert run.stdout.splitlines()[-1] == "[]"


def test_mdp_and_simulate_commands_load_no_scipy(tmp_path):
    config = _mdp_config(tmp_path)
    run = _run_python(["-c", f"""
import sys
import spottransit.cli
for argv in (["--out", "r", "mdp"], ["--out", "s", "simulate", "--horizon", "5000", "--seed", "42"]):
    assert spottransit.cli.main(argv + ["--config", {config!r}]) == 0
print({SCIPY_LOADED})
"""], tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["meta"]["structure"]["price_monotone"] and len(report["rows"]) == 11
    assert json.loads((tmp_path / "s.json").read_text())["meta"]["passed"] is True


STATIC_MODULES = {"calibration", "demand", "pricing", "record", "uncertainty", "welfare", "numpy"}


# "numpy" in a set marks a run that loads numpy; the front (argparse, report export and
# the scenario file checks) runs on the standard library alone
@pytest.mark.parametrize("argv,loaded,rc", [
    pytest.param(None, set(), 0, id="import"),
    pytest.param(["--help"], set(), 0, id="help"),
    pytest.param(["report", "--in", "saved.json"], set(), 0, id="report"),
    pytest.param(["--scenario", "bad.json", "static"], set(), 2, id="bad-key"),
    pytest.param(["--scenario", "typed.json", "static"], set(), 2, id="bad-type"),
    pytest.param(["--scenario", "text.json", "static"], set(), 2, id="not-json"),
    pytest.param(["--scenario", "missing.json", "static"], set(), 2, id="missing"),
    pytest.param(["calibrate"], STATIC_MODULES - {"welfare"}, 0, id="calibrate"),
    pytest.param(["static"], STATIC_MODULES, 0, id="static"),
    pytest.param(["sweep", "--param", "gamma"], STATIC_MODULES, 0, id="sweep"),
    pytest.param(["worst-case"], STATIC_MODULES, 0, id="worst-case"),
    pytest.param(["--scenario", "traced.json", "static"], STATIC_MODULES | {"traffic", "statistics"},
                 0, id="static-on-a-trace"),
    pytest.param(["predict", "--trace", "trace.csv"], {"record", "traffic", "statistics", "numpy"},
                 0, id="predict"),
    pytest.param(["mdp", "--config", "mdp.json"], {"mdp", "numpy"}, 0, id="mdp"),
    pytest.param(["simulate", "--config", "mdp.json", "--horizon", "5000", "--seed", "42"],
                 {"mdp", "record", "simulate", "numpy"}, 0, id="simulate"),
])
def test_import_and_each_command_load_only_their_modules(tmp_path, argv, loaded, rc):
    (tmp_path / "scn.json").write_text(json.dumps(LINX_SCENARIO))
    (tmp_path / "traced.json").write_text(json.dumps({"region": "london",
                                                      "trace": _noisy_trace(tmp_path)}))
    (tmp_path / "bad.json").write_text(json.dumps({"ixp": "linx", "gama": 1.5}))
    (tmp_path / "typed.json").write_text(json.dumps({"ixp": "linx", "gamma": "1.5"}))
    (tmp_path / "text.json").write_text("ixp: linx")
    (tmp_path / "saved.json").write_text(json.dumps({"meta": {}, "rows": [{"a": 1}]}))
    _mdp_config(tmp_path)
    # argparse keeps the last --scenario, so a run that names one replaces the default
    full_argv = None if argv is None else ["--out", "r", "--scenario", "scn.json", *argv]
    run = _run_python(["-c", f"""
import contextlib, io, sys
import spottransit, spottransit.cli
if {full_argv!r} is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            assert spottransit.cli.main({full_argv!r}) == {rc}
        except SystemExit as exc:  # --help
            assert exc.code == 0
print(sorted(m.split(".", 1)[-1] for m in sys.modules
             if m.startswith("spottransit.") or m in ("statistics", "numpy")))
"""], tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == str(sorted({"cli"} | loaded))
    if rc == 2:  # a refused scenario file is one line, whatever is wrong with it
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1


def test_shell_help_starts_without_numpy(tmp_path):
    run = _run_python(["-X", "importtime", "-m", "spottransit.cli", "--help"], tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: spottransit ")
    # the import-time list, one module a line; the package is imported, cli runs as __main__
    modules = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()]
    assert "spottransit" in modules and "argparse" in modules
    assert not [m for m in modules if m.split(".")[0] == "numpy"]


def test_package_and_cli_names_resolve_on_first_access():
    import spottransit
    from spottransit import mdp, simulate

    assert len(spottransit.__all__) == len(set(spottransit.__all__)) == 51
    for name in spottransit.__all__:
        value = getattr(spottransit, name)
        module = importlib.import_module(f"spottransit.{spottransit._MODULE_OF[name]}")
        assert value is getattr(module, name)
    assert spottransit.__version__ == "0.1.0"
    assert cli.mdp is mdp and cli.simulate_policy is simulate.simulate_policy
    for owner in (spottransit, cli):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            owner.no_such_name  # noqa: B018


def _strict_json(text: str):
    """Parse a report, refusing the Infinity and NaN that strict JSON does not have."""
    def refuse(constant):
        raise ValueError(f"report holds {constant}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("scenario,field,value", [
    # the surplus at p* overflows, though the one at p_bar does not
    ({"p_bar": 2.0022527206143902e+35, "d_bar": 2.0767721272113818e+241, "mu": 1,
      "theta": 751818.8, "r_ratio": 0.9, "gamma": 19.76, "alpha_bar": 4.397, "kind": "linear",
      "beta": 0.3}, "surplus_spot", "inf"),
    # every welfare figure is finite, but the surplus gain in dollars (x1000) overflows
    ({"p_bar": 5.34e101, "d_bar": 1.217e107, "mu": 1, "theta": 1000, "r_ratio": 0.9,
      "gamma": 42.65, "alpha_bar": 4.629, "kind": "linear", "beta": 0.3},
     "surplus_gain_usd", "inf"),
    # the regular profit underflows to 0, so its percentage change is undefined
    ({"p_bar": 1e-200, "d_bar": 1e-200, "mu": 0, "theta": 1e-230, "gamma": 1.25,
      "kind": "linear", "beta": 0.5}, "profit_improvement_pct", "nan"),
])
def test_main_refuses_welfare_figures_out_of_float_range(tmp_path, capsys, scenario, field, value):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    message = f"welfare report {field} is {value}; the scenario's figures leave the float range"
    line = _run_error(["--scenario", str(path), "--out", str(tmp_path / "r"), "static"], capsys)
    assert line == f"error: {message}"
    assert not (tmp_path / "r.json").exists()
    # sweep reports the same point as an error row, and its default grid parses as strict JSON
    argv = ["--scenario", str(path), "--out", str(tmp_path / "s"), "sweep", "--param", "gamma"]
    assert main(argv + ["--values", str(scenario["gamma"])]) == 0
    rows = _strict_json((tmp_path / "s.json").read_text())["rows"]
    assert [row["error"] for row in rows] == [message]
    assert main(argv) == 0
    _strict_json((tmp_path / "s.json").read_text())
