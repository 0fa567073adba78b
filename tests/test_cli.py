import json
import math

import numpy as np
import pytest

from spottransit.cli import (
    SWEEP_DEFAULTS,
    cmd_calibrate,
    cmd_predict,
    cmd_static,
    cmd_sweep,
    cmd_worst_case,
    export_report,
    load_scenario,
    main,
)

LINX_SCENARIO = {"ixp": "linx", "kind": "iso", "beta": [0.2, 0.5, 0.7]}


def test_load_scenario_variants(tmp_path):
    scn = load_scenario(LINX_SCENARIO)
    assert scn.inp.p_bar == 7.5
    assert scn.inp.d_bar == pytest.approx(1080.0)
    assert scn.label == "LINX"
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
        assert set(columns) <= set(row)
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


def test_sweep_gamma_improvements_nondecreasing():
    scn = load_scenario({"ixp": "linx", "kind": "iso", "beta": [0.4]})
    _, rows, _ = cmd_sweep(scn, "gamma")
    profit = [r["profit_improvement_pct"] for r in rows]
    surplus = [r["surplus_improvement_pct"] for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(profit, profit[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(surplus, surplus[1:]))


def test_sweep_singleton_matches_static():
    scn = load_scenario(LINX_SCENARIO)
    _, sweep_rows, _ = cmd_sweep(scn, "r_ratio", values=[scn.r_ratio])
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
            assert back[key] == orig[key] or back[key] == pytest.approx(orig[key])

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
    assert saved["meta"]["degenerate"] is True  # noiseless periodic trace


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
    assert len(saved["rows"]) == 11

    out2 = tmp_path / "sim_run"
    rc = main(["--out", str(out2), "simulate", "--config", str(cfg),
               "--horizon", "5000", "--seed", "42"])
    assert rc == 0
    sim = json.loads((tmp_path / "sim_run.json").read_text())
    assert sim["meta"]["passed"] is True
    assert abs(sim["meta"]["revenue_z"]) <= 3.0


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


def test_main_unknown_kind_fails_before_solving(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"ixp": "linx", "kind": "loglog"}))
    out = tmp_path / "sweep"
    line = _run_error(["--scenario", str(path), "--out", str(out), "sweep", "--param", "gamma"],
                      capsys)
    assert "loglog" in line
    assert not (tmp_path / "sweep.json").exists()


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


@pytest.mark.parametrize("horizon,warmup", [("inf", "10"), ("1e3", "inf"), ("inf", None)])
def test_main_simulate_rejects_non_finite_horizon(tmp_path, capsys, horizon, warmup):
    cfg = tmp_path / "mdp.json"
    cfg.write_text(json.dumps({"capacity": 2, "arrival": [24.0, 0.0, -1.5],
                               "departure": [0.0, 0.3], "p_max": 4.0, "price_points": 20}))
    argv = ["--out", str(tmp_path / "r"), "simulate", "--config", str(cfg),
            "--horizon", horizon, "--seed", "1"]
    line = _run_error(argv + (["--warmup", warmup] if warmup else []), capsys)
    assert "finite" in line


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
