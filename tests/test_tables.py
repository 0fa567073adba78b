"""The table functions against a scalar reference.

`reference_calibrate` and `reference_welfare_report` are the one-row
`calibrate` and `welfare_report` as they were before calibration, the static
solve and the welfare accounting worked on columns, with the demand
families' scalar formulas written out beside them.  A table must give every
row the reference's fields bit for bit, a failing row the reference's error
(type and text), and the run the reference's warnings in row order.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spottransit.calibration import (
    NUMERIC_FIELDS,
    CalibrationError,
    CalibrationInput,
    calibrate,
    calibrate_table,
    ixp_input,
)
from spottransit.demand import ANCHOR_RTOL, DivergentSurplusError, DomainError, demand_family
from spottransit.pricing import SOLUTION_FIELDS, MarketParams, optimize_price, solve_table
from spottransit.uncertainty import UncertaintyModel
from spottransit.welfare import REPORT_FIELDS, USD_PER_UNIT, welfare_report, welfare_table


def _ref_curve(kind, p_bar, d_bar, alpha_bar, r_bar, share, relative):
    """(v, alpha) of the family's calibrated curve and its field checks."""
    if kind == "iso":
        alpha = relative * alpha_bar
        try:
            scale = p_bar**alpha
        except OverflowError:
            scale = math.inf
        v = share * d_bar * scale
        if v == 0.0:
            raise ValueError(
                f"calibrated demand v = share * d_bar * p_bar**alpha underflows to 0.0 "
                f"(p_bar={p_bar!r}, alpha={alpha!r}); the scenario's demand scale is too small "
                "to price")
        if not v > 0:
            raise ValueError(f"base demand v must be positive, got {v}")
        if not alpha > 1:
            raise ValueError(f"elasticity alpha must exceed 1, got {alpha}")
        return v, alpha
    if not p_bar > r_bar:
        raise ValueError(f"regular price {p_bar} must exceed the derived cost {r_bar}")
    alpha = share * relative * (d_bar / (p_bar - r_bar))
    v = share * d_bar + alpha * p_bar
    anchor, at_p_bar = share * d_bar, v - alpha * p_bar
    if not abs(at_p_bar - anchor) <= ANCHOR_RTOL * anchor and math.isfinite(v):
        raise ValueError(
            f"calibrated linear demand gives d(p_bar) = {at_p_bar!r}, not its anchor "
            f"{anchor!r} within {ANCHOR_RTOL:g} relative; v and alpha*p_bar cancel below "
            "rounding at this scale")
    if not v > 0:
        raise ValueError(f"base demand v must be positive, got {v}")
    if not alpha > 0:
        raise ValueError(f"sensitivity alpha must be positive, got {alpha}")
    return v, alpha


def _ref_surplus(kind, v, alpha, p):
    if kind == "iso":
        if alpha <= 2.0:
            raise DivergentSurplusError(
                f"surplus undefined for iso-elastic alpha={alpha} <= 2 "
                "(willingness-to-pay integral diverges)")
        if not p > 0:
            raise DomainError(f"need p > 0, got {p}")
        try:
            power = p ** (2.0 - alpha)
        except OverflowError:
            power = math.inf
        return v * power / ((alpha - 1.0) * (alpha - 2.0))
    choke = v / alpha
    if p < 0 or p > choke:
        raise DomainError(f"linear surplus defined on [0, {choke}], got {p}")
    try:
        cube = (choke - p) ** 3
    except OverflowError:
        cube = math.inf
    return alpha * cube / 6.0


def _ref_capacity_price(kind, v, alpha, capacity):
    if kind == "iso":
        if not capacity > 0:
            raise DomainError(
                f"iso-elastic demand is positive everywhere; q must be > 0, got {capacity}")
        return (v / capacity) ** (1.0 / alpha)
    if capacity >= v:
        return 0.0
    if not 0 < capacity <= v:
        raise DomainError(f"linear demand only reaches quantities in (0, {v}], got {capacity}")
    return (v - capacity) / alpha


def _ref_finite(what, **values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise CalibrationError(f"calibrated {what} {name} overflows to {value}; "
                                   "the scenario's demand scale is too large to price")


def _ref_regular_cost(inp):
    r_bar = inp.p_bar * (1.0 - 1.0 / inp.alpha_bar)
    if not r_bar > 0:
        raise ValueError("derived regular cost is non-positive")
    return r_bar


def reference_calibrate(inp):
    """The calibrated fields of one input, issuing calibrate's warnings, or its error."""
    kind = inp.kind
    r_bar = _ref_regular_cost(inp)
    v, alpha = _ref_curve(kind, inp.p_bar, inp.d_bar, inp.alpha_bar, _ref_regular_cost(inp),
                          inp.beta, inp.gamma)
    _ref_finite("spot demand", v=v, alpha=alpha)
    try:
        _ref_surplus(kind, v, alpha, inp.p_bar)
    except DivergentSurplusError as exc:
        warnings.warn(f"{exc}; the curve calibrates, but every priced row reports its surplus "
                      "and is refused")
    regular = _ref_curve(kind, inp.p_bar, inp.d_bar, inp.alpha_bar, _ref_regular_cost(inp),
                         1.0, 1.0)
    _ref_finite("regular demand", v=regular[0], alpha=regular[1])
    try:
        _ref_finite("spot demand", consumer_surplus=_ref_surplus(kind, v, alpha, inp.p_bar))
    except DivergentSurplusError:
        pass
    capacity = (0.4 + inp.beta) * inp.d_bar
    _ref_finite("spot", capacity=capacity)
    mu, theta = inp.beta * inp.mu, inp.beta * inp.theta
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    a, b = mu - 3.0 * theta, mu + 3.0 * theta
    if not a < b:
        raise ValueError(f"support must satisfy a < b, got [{a}, {b}]")
    if not b < capacity:
        raise CalibrationError(
            f"noise support reaches the capacity (b={b} >= C={capacity}); scenario rejected")
    m = inp.m_ratio * inp.p_bar
    p_cap = _ref_capacity_price(kind, v, alpha, capacity)
    penalty_ok = m > p_cap
    if not penalty_ok:
        warnings.warn(f"penalty m={m} does not exceed the capacity price {p_cap:.4g}; "
                      "expected demand may exceed capacity at the optimum")
    r = inp.r_ratio * r_bar
    if not r > 0:
        raise ValueError(f"provision cost r must be positive, got {r}")
    if m < 0:
        raise ValueError(f"overflow penalty m must be non-negative, got {m}")
    if not capacity > 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    return {"v": v, "alpha": alpha, "regular_v": regular[0], "regular_alpha": regular[1],
            "mu": mu, "theta": theta, "a": a, "b": b, "r": r, "m": m, "capacity": capacity,
            "r_bar": r_bar, "p_bar": inp.p_bar, "penalty_assumption_ok": penalty_ok}


def _pct_change(new, old):
    return 100.0 * (new - old) / old if old else math.nan


def reference_welfare_report(kind, cal, p_star, pi_spot):
    """The welfare report's fields, in field order, at a solved price, or its error."""
    d = demand_family(kind)(cal["v"], cal["alpha"])
    p_bar, r_bar = cal["p_bar"], cal["r_bar"]
    s_spot = _ref_surplus(kind, cal["v"], cal["alpha"], p_star)
    s_reg = _ref_surplus(kind, cal["v"], cal["alpha"], p_bar)
    pi_reg = (p_bar - r_bar) * d.demand(p_bar)
    rep = dict(zip(REPORT_FIELDS, (
        s_spot, s_reg, pi_spot, pi_reg, s_spot + pi_spot, s_reg + pi_reg,
        _pct_change(pi_spot, pi_reg), _pct_change(s_spot, s_reg), pi_spot - pi_reg,
        s_spot - s_reg, (pi_spot - pi_reg) * USD_PER_UNIT, (s_spot - s_reg) * USD_PER_UNIT)))
    for name, value in rep.items():
        if not math.isfinite(value):
            raise ValueError(f"welfare report {name} is {value}; "
                             "the scenario's figures leave the float range")
    if p_star < p_bar and not (
        s_spot > s_reg
        and (pi_spot > pi_reg or cal["r"] > r_bar or cal["capacity"] - d.demand(p_bar) < cal["b"])
    ):
        raise RuntimeError(
            "spot price is below the regular price but surplus/profit did not both "
            "improve although they must; the solved price is not the optimum")
    return rep


def reference_row(inp, fields):
    """Calibrated fields, solution and report of one grid point, or its first error."""
    try:
        point = replace(inp, **fields)
        cal = reference_calibrate(point)
        d = demand_family(inp.kind)(cal["v"], cal["alpha"])
        u = UncertaintyModel(cal["mu"], cal["theta"])
        mp = MarketParams(r=cal["r"], m=cal["m"], capacity=cal["capacity"], r_bar=cal["r_bar"],
                          p_bar=cal["p_bar"])
        sol = optimize_price(d, u, mp).to_dict()
        rep = reference_welfare_report(inp.kind, cal, sol["p_star"], sol["expected_profit"])
    except (ValueError, RuntimeError) as exc:
        return exc
    return {**cal, **sol, **rep}


def _outcome(result):
    """An error as its type and text; fields as their reprs, which tell every bit apart
    but a nan's payload."""
    if isinstance(result, Exception):
        return type(result), str(result)
    return {k: repr(v) for k, v in result.items()}


def table_rows(inp, overrides):
    """Per row, what the table functions give it, in the shape of reference_row."""
    tab = calibrate_table(inp, overrides)
    d, u, mp, rows = tab.demand, tab.uncertainty, tab.market, tab.rows
    sol = solve_table(d, u, mp, rows)
    rep = welfare_table(d, u, mp, sol["p_star"], sol["expected_profit"], rows)
    columns = {"v": d.v, "alpha": d.alpha, "regular_v": tab.regular_demand.v,
               "regular_alpha": tab.regular_demand.alpha, "mu": u.mu, "theta": u.theta, "a": u.a,
               "b": u.b, "r": mp.r, "m": mp.m, "capacity": mp.capacity, "r_bar": mp.r_bar,
               "p_bar": mp.p_bar, "penalty_assumption_ok": tab.penalty_assumption_ok,
               **{k: sol[k] for k in SOLUTION_FIELDS}, **{k: rep[k] for k in REPORT_FIELDS}}
    return [exc if exc is not None else {k: c.item(i) for k, c in columns.items()}
            for i, exc in enumerate(rows.errors)]


def _warnings(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run()
    return out, [(w.category, str(w.message)) for w in caught]


def assert_table_matches_reference(inp, overrides):
    n = len(next(iter(overrides.values()))) if overrides else 1
    got, got_warnings = _warnings(lambda: table_rows(inp, overrides))
    want, want_warnings = _warnings(lambda: [
        reference_row(inp, {k: v[i] for k, v in overrides.items()}) for i in range(n)])
    assert [_outcome(r) for r in got] == [_outcome(r) for r in want]
    assert got_warnings == want_warnings


EDGE = [0.0, -1.0, 0.5, 1.0, 1.0000001, 1.05, 2.0, 2.5, 1e-20, 5e-324, 1e20, 1e300, 1e308,
        1.7e308, math.inf, -math.inf, math.nan]
TYPICAL = {"p_bar": st.floats(0.5, 50.0), "d_bar": st.floats(1.0, 5000.0),
           "beta": st.floats(0.01, 0.99), "gamma": st.floats(1.01, 3.0),
           "alpha_bar": st.floats(1.05, 5.0), "mu": st.floats(-50.0, 50.0),
           "theta": st.floats(0.01, 400.0), "r_ratio": st.floats(0.01, 3.0),
           "m_ratio": st.floats(0.01, 3.0)}
bases = st.one_of(
    st.builds(CalibrationInput, **TYPICAL, kind=st.sampled_from(["iso", "linear"])),
    st.builds(ixp_input, st.sampled_from(["linx", "nix", "hkix"]),
              kind=st.sampled_from(["iso", "linear"])))


@st.composite
def tables(draw):
    """A valid base input and one to three fields set per row, to typical or edge values."""
    inp = draw(bases)
    n = draw(st.integers(1, 8))
    names = draw(st.lists(st.sampled_from(NUMERIC_FIELDS), min_size=1, max_size=3, unique=True))
    return inp, {name: draw(st.lists(st.one_of(TYPICAL[name], st.sampled_from(EDGE)),
                                     min_size=n, max_size=n)) for name in names}


# the edge rows of the README's model notes
README_EDGES = [
    (CalibrationInput(p_bar=7.5, d_bar=800.0, kind=kind), {name: [value]})
    for kind in ("iso", "linear") for name, value in
    (("d_bar", 1e308), ("alpha_bar", 1e20), ("gamma", 1e300))
] + [
    (CalibrationInput(p_bar=0.5, d_bar=100.0), {"alpha_bar": [1e20]}),
    (CalibrationInput(p_bar=1e300, d_bar=1e20, kind="linear"), {"beta": [0.2, 0.5]}),
]


@pytest.mark.parametrize("inp, overrides", README_EDGES)
def test_readme_edge_rows_match_the_reference(inp, overrides):
    assert_table_matches_reference(inp, overrides)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tables())
@example((ixp_input("linx", kind="linear"), {"gamma": [0.5, 1.05, 1e300, 2.0]}))
@example((ixp_input("linx", alpha_bar=1.5), {"gamma": [1.1, 1.3, 1.4, 2.0]}))
@example((ixp_input("hkix", kind="linear"), {"m_ratio": [0.01, 0.3, 1.0, 1e300]}))
@example((ixp_input("nix", theta=400.0), {"beta": [0.05, 0.2, 0.5, 0.95]}))
@example((CalibrationInput(p_bar=1.0, d_bar=1.7e308, m_ratio=0.01), {"beta": [0.2, 0.5]}))
def test_tables_match_the_scalar_reference_bit_for_bit(table):
    assert_table_matches_reference(*table)


def test_one_row_calls_are_tables_of_one_row():
    inp = ixp_input("linx", kind="linear", beta=0.3)
    scen = calibrate(inp)
    (row,) = table_rows(inp, {})
    assert (scen.demand.v, scen.market.capacity, scen.uncertainty.b) == (
        row["v"], row["capacity"], row["b"])
    sol = optimize_price(scen.demand, scen.uncertainty, scen.market)
    rep = welfare_report(scen.demand, scen.uncertainty, scen.market, sol)
    assert sol.to_dict() == {k: row[k] for k in SOLUTION_FIELDS}
    assert rep.to_dict() == {k: row[k] for k in REPORT_FIELDS}
    assert all(type(v) is float for v in rep.to_dict().values())


def test_a_table_warns_only_up_to_its_first_failure_when_asked():
    inp = ixp_input("hkix", kind="linear")
    every_row = {"m_ratio": [0.01, 0.01], "beta": [0.2, 1.5]}
    _, every = _warnings(lambda: calibrate_table(inp, every_row))
    assert len(every) == 1  # the second row fails its beta check before any warning
    _, first = _warnings(lambda: calibrate_table(inp, {"m_ratio": [0.01, 0.01], "beta": [1.5, 0.2]},
                                                 stop_at_error=True))
    assert first == []
    assert np.all(calibrate_table(inp, {"m_ratio": [1.0, 2.0]}).penalty_assumption_ok)
