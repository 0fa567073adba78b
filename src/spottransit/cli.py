"""Command-line front end: scenario runs, sweeps, worst case, prediction,
MDP solving, simulation, and report export.

Scenario files are JSON.  Either name a bundled IXP ("ixp"), or give a
region preset ("region") or regular price ("p_bar") plus exactly one
demand-scale source: a traffic CSV ("trace") or a billable demand
("d_bar", with "mu" and "theta").  The other numbers are gamma,
alpha_bar, r_ratio and m_ratio; beta is a number or a list of numbers;
kind and label are strings.  A key that is present must hold a valid
value (never null), and a key not in SCENARIO_KEYS is refused by name.

Profit and surplus figures are in price*demand units ($/Mbps * Gbps);
multiplying by 1000 gives $ per month under 95th-percentile billing,
and the exported reports carry the converted columns too.

Each command imports only the modules it runs, when it runs: calibrate
loads calibration and pricing, the other scenario commands welfare too
(and traffic for a scenario that names a trace), predict loads traffic,
mdp loads mdp, simulate loads mdp and simulate, and report loads none.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

DOLLAR_NOTE = "dollars = price($/Mbps) * demand(Gbps) * 1000, monthly 95th-percentile billing"

#: the submodules, and the names taken from one (with its submodule), that this
#: module offers as attributes; each is imported on first access
_LAZY_MODULES = ("calibration", "mdp", "pricing", "traffic", "welfare")
_LAZY_NAMES = {"demand_family": "demand", "SimConfig": "simulate",
               "compare_to_analytic": "simulate", "simulate_policy": "simulate"}


def __getattr__(name):
    """Import a submodule, or a name from one, on first access and keep it here.

    The commands import what they run in their own bodies, because a global
    lookup inside a function never reaches this hook; it serves readers from
    outside, such as a test that patches ``cli.mdp``.
    """
    if name in _LAZY_MODULES:
        value = importlib.import_module(f"{__package__}.{name}")
    elif name in _LAZY_NAMES:
        value = getattr(importlib.import_module(f"{__package__}.{_LAZY_NAMES[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value

DEFAULT_BETAS = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
SWEEP_DEFAULTS = {
    "r_ratio": [round(0.1 * k, 2) for k in range(1, 10)],
    "m_ratio": [round(0.5 + 0.1 * k, 2) for k in range(11)],
    "gamma": [round(1.1 + 0.1 * k, 2) for k in range(10)],
    "beta": DEFAULT_BETAS,
}


@dataclass
class Scenario:
    """A calibration input (beta set per grid point) plus the beta grid."""

    inp: calibration.CalibrationInput
    betas: list


def _number(key: str, value) -> float:
    """A scenario value as a float; anything but a number is refused, naming its key."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"scenario {key} must be a number, got {value!r}")
    return float(value)


def _text(key: str, value) -> str:
    """A scenario string; anything else is refused, naming its key."""
    if not isinstance(value, str):
        raise ValueError(f"scenario {key} must be a string, got {value!r}")
    return value


def _number_list(key: str, value) -> list:
    """A scenario number or non-empty list of numbers, as a list of floats."""
    values = value if isinstance(value, (list, tuple)) else [value]
    if not values:
        raise ValueError(f"scenario {key} list is empty")
    return [_number(key, v) for v in values]


#: Every scenario key and the reader that checks its value; no other key is read.
SCENARIO_KEYS = {**dict.fromkeys(("ixp", "region", "trace", "kind", "label"), _text),
                 **dict.fromkeys(("p_bar", "d_bar", "mu", "theta", "gamma", "alpha_bar",
                                  "r_ratio", "m_ratio"), _number),
                 "beta": _number_list}


def _sweep_values(text: str) -> list:
    """The ``--values`` grid: comma-separated finite numbers; a bad entry is refused by name."""
    values = []
    for entry in text.split(","):
        try:
            value = float(entry)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"--values entries must be finite numbers, got {entry!r}")
        values.append(value)
    return values


def load_scenario(source) -> Scenario:
    """Accept a path to a scenario JSON file or an already-parsed dict."""
    from . import calibration

    obj = source
    if not isinstance(obj, dict):
        with open(source) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError(f"scenario {source} must hold a JSON object")

    unknown = [key for key in obj if key not in SCENARIO_KEYS]
    if unknown:
        raise ValueError(f"unknown scenario key {unknown[0]!r}; keys are {', '.join(SCENARIO_KEYS)}")
    fields = {key: SCENARIO_KEYS[key](key, value) for key, value in obj.items()}
    ixp = fields.pop("ixp", None)
    betas = fields.pop("beta", DEFAULT_BETAS[:])
    if "region" in fields:  # an explicit p_bar wins over the region's price
        fields.setdefault("p_bar", calibration.region_price(fields.pop("region")))
    if ixp is None and "p_bar" not in fields:
        raise ValueError("scenario needs a region preset or an explicit p_bar")
    demand_keys = fields.keys() & {"trace", "d_bar"}
    if len(demand_keys) > 1 or ixp is None and not demand_keys:
        raise ValueError("scenario needs exactly one demand-scale source (trace or d_bar)")
    if "trace" in fields:
        from . import traffic

        trace = fields.pop("trace")
        series = traffic.load_series(trace)
        _, mu, theta = traffic.persistence_residuals(series)  # no Q-Q data: only the moments
        fields.update(d_bar=traffic.percentile_95(series), mu=mu, theta=theta,
                      demand_source=f"trace p95 ({trace})")
    inp = calibration.CalibrationInput(**fields) if ixp is None else calibration.ixp_input(ixp, **fields)
    return Scenario(inp=inp, betas=betas)


def _solve_points(scn: Scenario, points) -> list:
    """Result row, or the error, of each grid point, given as its field overrides.

    The points are calibrated in order, all calibrated points are priced in
    one batch solve, and each solved point gets its own welfare report.
    """
    from . import calibration, pricing, welfare

    results = []
    for fields in points:
        try:
            results.append(calibration.calibrate(replace(scn.inp, **fields)))
        except (ValueError, RuntimeError) as exc:
            results.append(exc)
    todo = [k for k, res in enumerate(results) if not isinstance(res, Exception)]
    scens = [results[k] for k in todo]
    sols = pricing.optimize_prices([(s.demand, s.uncertainty, s.market) for s in scens])
    for k, sol in zip(todo, sols):
        scen = results[k]
        try:
            results[k] = sol if isinstance(sol, Exception) else _result_row(
                scen, sol, welfare.welfare_report(scen.demand, scen.uncertainty, scen.market, sol))
        except (ValueError, RuntimeError) as exc:
            results[k] = exc
    return results


def _all_rows(results: list) -> list:
    """The rows of a command that fails with its first failing point's error."""
    for res in results:
        if isinstance(res, Exception):
            raise res
    return results


STATIC_COLUMNS = [
    "label", "kind", "beta", "gamma", "r_ratio", "m_ratio", "p_bar", "p_star",
    "price_ratio", "discount_pct", "overflow_probability", "expected_profit",
    "surplus_spot", "surplus_regular", "profit_improvement_pct",
    "surplus_improvement_pct", "profit_gain_usd", "surplus_gain_usd",
    "welfare_spot", "welfare_regular", "penalty_assumption_ok", "demand_source",
]


def _result_row(scen: calibration.CalibratedScenario, sol: pricing.StaticSolution,
                rep: welfare.WelfareReport) -> dict:
    """Flat result row of one solved grid point and its welfare report, keyed by STATIC_COLUMNS."""
    inp = scen.inp
    return dict(zip(STATIC_COLUMNS, (
        inp.label, inp.kind, inp.beta, inp.gamma, inp.r_ratio, inp.m_ratio, inp.p_bar, sol.p_star,
        sol.p_star / inp.p_bar, 100.0 * (1.0 - sol.p_star / inp.p_bar),
        sol.overflow_probability, sol.expected_profit,
        rep.surplus_spot, rep.surplus_regular, rep.profit_improvement_pct,
        rep.surplus_improvement_pct, rep.profit_gain_usd, rep.surplus_gain_usd,
        rep.welfare_spot, rep.welfare_regular, scen.penalty_assumption_ok, inp.demand_source,
    ), strict=True))


CALIBRATE_COLUMNS = [
    "label", "kind", "beta", "p_bar", "d_bar", "r_bar", "r", "m", "capacity", "demand_v",
    "demand_alpha", "mu_scaled", "theta_scaled", "penalty_assumption_ok", "demand_source",
]


def cmd_calibrate(scn: Scenario):
    from . import calibration

    rows = []
    for beta in scn.betas:
        scen = calibration.calibrate(replace(scn.inp, beta=beta))
        inp, market = scen.inp, scen.market
        rows.append(dict(zip(CALIBRATE_COLUMNS, (
            inp.label, inp.kind, inp.beta, inp.p_bar, inp.d_bar, market.r_bar, market.r,
            market.m, market.capacity, scen.demand.v, scen.demand.alpha, scen.uncertainty.mu,
            scen.uncertainty.theta, scen.penalty_assumption_ok, inp.demand_source,
        ), strict=True)))
    return {"command": "calibrate", "dollar_note": DOLLAR_NOTE}, rows, CALIBRATE_COLUMNS


def cmd_static(scn: Scenario):
    rows = _all_rows(_solve_points(scn, [{"beta": beta} for beta in scn.betas]))
    return {"command": "static", "dollar_note": DOLLAR_NOTE}, rows, STATIC_COLUMNS


def cmd_sweep(scn: Scenario, param: str, values=None):
    """One row per swept value per beta; calibration failures are soft."""
    if param not in SWEEP_DEFAULTS:
        raise ValueError(f"sweep parameter must be one of {sorted(SWEEP_DEFAULTS)}, got {param}")
    values = SWEEP_DEFAULTS[param] if values is None else list(values)
    grid = [(value, beta) for value in values
            for beta in ([value] if param == "beta" else scn.betas)]
    results = _solve_points(scn, [{"beta": beta, param: value} for value, beta in grid])
    rows = []
    for (value, beta), res in zip(grid, results):
        if isinstance(res, Exception):
            rows.append({"label": scn.inp.label, "kind": scn.inp.kind, "beta": beta,
                         "sweep_param": param, "sweep_value": value, "error": str(res)})
        else:
            rows.append(dict(res, sweep_param=param, sweep_value=value))

    summary = {}
    for beta in sorted({r["beta"] for r in rows}):
        prices = [r["p_star"] for r in rows if r.get("p_star") is not None and r["beta"] == beta]
        summary[f"p_star_nondecreasing_beta_{beta:g}"] = bool(
            all(b >= a - 1e-9 for a, b in zip(prices, prices[1:]))
        )
    meta = {"command": "sweep", "parameter": param, "dollar_note": DOLLAR_NOTE,
            "monotonicity": summary}
    columns = STATIC_COLUMNS + ["sweep_param", "sweep_value", "error"]
    return meta, rows, columns


WORST_CASE = {"r_ratio": 0.9, "m_ratio": 1.5, "gamma": 1.1}


def cmd_worst_case(scn: Scenario):
    """High cost, high penalty, low elasticity; floor violations are findings."""
    from .demand import demand_family

    rows = _all_rows(_solve_points(scn, [{"beta": beta, **WORST_CASE} for beta in scn.betas]))
    findings = []
    surplus_floor = demand_family(scn.inp.kind).worst_case_surplus_floor_pct
    for row in rows:
        beta = row["beta"]
        row["sweep_param"] = "worst_case"
        checks = {
            "spot_below_regular": row["p_star"] < scn.inp.p_bar,
            "profit_improvement_min_10pct": row["profit_improvement_pct"] >= 10.0,
            f"surplus_improvement_min_{surplus_floor:g}pct":
                row["surplus_improvement_pct"] >= surplus_floor,
        }
        for name, ok in checks.items():
            if not ok:
                findings.append({"beta": beta, "check": name,
                                 "profit_improvement_pct": row["profit_improvement_pct"],
                                 "surplus_improvement_pct": row["surplus_improvement_pct"]})
    meta = {"command": "worst-case", "parameters": WORST_CASE,
            "dollar_note": DOLLAR_NOTE, "findings": findings}
    columns = STATIC_COLUMNS + ["sweep_param"]
    return meta, rows, columns


def _scalar_fields(record, skip=()) -> dict:
    """A result record's non-array fields, in field order, for a report's meta."""
    return {k: v for k, v in record.to_dict().items() if not isinstance(v, list) and k not in skip}


def cmd_predict(trace_path: str, window: float):
    from . import traffic

    series = traffic.load_series(trace_path)
    report = traffic.prediction_errors(series, window)
    meta = {
        "command": "predict",
        "trace": str(trace_path),
        "samples": len(series),
        "step_seconds": series.step,
        "gaps_filled": series.gaps_filled,
        "window_seconds": window,
        "percentile_95": traffic.percentile_95(series),
        **_scalar_fields(report),
    }
    theoretical, sample = report.qq_points.T.tolist()
    rows = [{"theoretical_quantile": a, "sample_quantile": b}
            for a, b in zip(theoretical, sample)]
    return meta, rows, ["theoretical_quantile", "sample_quantile"]


def _solve_config(config_path: str, algorithm: str, tol: float):
    """Load an MDP config file and solve it; the step `mdp` and `simulate` share."""
    from . import mdp

    with open(config_path) as fh:
        spec = mdp.MdpSpec.from_config(json.load(fh))
    solve = mdp.policy_iteration if algorithm == "pi" else mdp.relative_value_iteration
    return spec, solve(spec, tol=tol)


def cmd_mdp(config_path: str, algorithm: str, tol: float):
    from . import mdp

    spec, sol = _solve_config(config_path, algorithm, tol)
    meta = {
        "command": "mdp",
        "algorithm": algorithm,
        "capacity": spec.capacity,
        "price_points": len(spec.price_grid),
        "j_star": sol.j_star,
        "iterations": sol.iterations,
        "structure": asdict(mdp.verify_structure(sol)),
    }
    rows = [{"state": n, "price": p, "h": h}
            for n, (p, h) in enumerate(zip(sol.policy.prices.tolist(), sol.h.tolist()))]
    return meta, rows, ["state", "price", "h"], spec, sol


def cmd_simulate(config_path: str, horizon: float, warmup, seed: int):
    from . import mdp
    from .simulate import SimConfig, compare_to_analytic, simulate_policy

    spec, sol = _solve_config(config_path, "pi", 1e-9)
    cfg = SimConfig(spec=spec, policy=sol.policy, horizon=horizon, warmup=warmup, seed=seed)
    result = simulate_policy(cfg)
    report = compare_to_analytic(result, spec, sol.policy)
    meta = {
        "command": "simulate",
        "seed": seed,
        "horizon": horizon,
        "warmup": cfg.warmup,
        "j_star": sol.j_star,
        **_scalar_fields(result),
        # the policy's analytic revenue rate is j_star above
        **_scalar_fields(report, skip=("analytic_revenue",)),
    }
    rows = [{"state": n, "occupancy": float(o), "steady_state": float(p)}
            for n, (o, p) in enumerate(zip(result.occupancy,
                                           mdp.steady_state(spec, sol.policy)))]
    return meta, rows, ["state", "occupancy", "steady_state"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    if value is None:
        return ""
    return str(value)


def _plain(obj):
    """JSON stand-in for what json cannot encode: numpy scalars as Python numbers, else str."""
    return obj.item() if isinstance(obj, np.generic) else str(obj)


def _indented(obj) -> str:
    """A top-level report entry: indented JSON, nested one level (strings hold no newline)."""
    return json.dumps(obj, indent=2, default=_plain).replace("\n", "\n  ")


def export_report(meta: dict, rows: list, columns: list, fmt: str, path):
    """Write a report; CSV carries the meta as leading '#' comment lines.

    JSON keeps the meta and columns indented and puts each row on one line,
    encoded by json's C encoder (any indent forces its pure-Python one).
    The encoder is built once per report, with the arguments
    `JSONEncoder(default=_plain).iterencode` would rebuild it from per row.
    """
    if fmt == "json":
        # markers, default, string encoder, indent, separators, sort_keys, skipkeys, allow_nan
        encode = json.encoder.c_make_encoder(
            {}, _plain, json.encoder.encode_basestring_ascii, None, ": ", ", ", False, False, True)
        with open(path, "w") as fh:
            fh.write('{\n  "meta": ' + _indented(meta) + ',\n  "rows": [')
            sep = "\n    "
            for row in rows:  # one write per row: the report is never held as one string
                fh.write(sep + "".join(encode(row, 0)))
                sep = ",\n    "
            fh.write(("\n  ]" if rows else "]") + ',\n  "columns": ' + _indented(columns) + "\n}\n")
    elif fmt == "csv":
        with open(path, "w") as fh:
            for key, value in meta.items():
                fh.write(f"# {key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")
    else:
        raise ValueError(f"format must be json or csv, got {fmt!r}")


def _saved_report(saved, path) -> tuple:
    """(meta, rows, columns) of a parsed JSON report; anything else is refused."""
    get = saved.get if isinstance(saved, dict) else {}.get
    meta, rows, columns = get("meta"), get("rows"), get("columns") or []
    if not (isinstance(meta, dict) and isinstance(rows, list) and isinstance(columns, list)
            and all(isinstance(row, dict) for row in rows)
            and all(isinstance(c, str) for c in columns)):
        raise ValueError(f"{path} is not a JSON report with a meta object and a list of rows")
    return meta, rows, columns or (list(rows[0]) if rows else [])


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="spottransit",
        description="Spot-transit pricing toolkit (static optimum, sweeps, dynamic MDP, simulation)",
    )
    parser.add_argument("--scenario", help="scenario JSON file")
    parser.add_argument("--out", default="report", help="output path without extension")
    parser.add_argument("--format", default="json", choices=["json", "csv"])
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("calibrate", "static", "worst-case"):
        sub.add_parser(name)
    p_sweep = sub.add_parser("sweep")
    p_sweep.add_argument("--param", required=True, choices=sorted(SWEEP_DEFAULTS))
    p_sweep.add_argument("--values", help="comma-separated override of the default grid")
    p_pred = sub.add_parser("predict")
    p_pred.add_argument("--trace", required=True)
    p_pred.add_argument("--window", type=float, default=604800.0)
    p_mdp = sub.add_parser("mdp")
    p_mdp.add_argument("--config", required=True, help="MDP config JSON")
    p_mdp.add_argument("--algorithm", default="pi", choices=["pi", "rvi"])
    p_mdp.add_argument("--tol", type=float, default=1e-9)
    p_sim = sub.add_parser("simulate")
    p_sim.add_argument("--config", required=True, help="MDP config JSON")
    p_sim.add_argument("--horizon", type=float, default=1e5)
    p_sim.add_argument("--warmup", type=float, default=None)
    p_sim.add_argument("--seed", type=int, required=True)
    p_rep = sub.add_parser("report")
    p_rep.add_argument("--in", dest="infile", required=True, help="previously exported JSON report")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, parser)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, parser) -> int:
    if args.command in ("calibrate", "static", "sweep", "worst-case"):
        if not args.scenario:
            parser.error(f"{args.command} needs --scenario")
        scn = load_scenario(args.scenario)
        if args.command == "calibrate":
            meta, rows, columns = cmd_calibrate(scn)
        elif args.command == "static":
            meta, rows, columns = cmd_static(scn)
        elif args.command == "sweep":
            values = None if args.values is None else _sweep_values(args.values)
            meta, rows, columns = cmd_sweep(scn, args.param, values)
        else:
            meta, rows, columns = cmd_worst_case(scn)
    elif args.command == "predict":
        meta, rows, columns = cmd_predict(args.trace, args.window)
    elif args.command == "mdp":
        meta, rows, columns, _, _ = cmd_mdp(args.config, args.algorithm, args.tol)
    elif args.command == "simulate":
        meta, rows, columns = cmd_simulate(args.config, args.horizon, args.warmup, args.seed)
    else:  # report: re-export a JSON report in the requested format
        with open(args.infile) as fh:
            meta, rows, columns = _saved_report(json.load(fh), args.infile)

    path = f"{args.out}.{args.format}"
    export_report(meta, rows, columns, args.format, path)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
