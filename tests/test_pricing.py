import json
import os
import subprocess
import sys
from pathlib import Path

import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import spottransit
from oracles import profit_grid, profit_quadrature, random_instance
from spottransit import cli, pricing
from spottransit.calibration import IXP_STATS, CalibrationInput, calibrate
from spottransit.demand import DomainError, IsoElasticDemand, LinearDemand
from spottransit.pricing import (
    _PRICE_TOL,
    MarketParams,
    StaticSolution,
    check_price_advantage,
    expected_profit,
    optimize_price,
    optimize_prices,
    profit_derivative,
    regular_price,
    validate_market,
)
from spottransit.uncertainty import UncertaintyModel

# reference instance: 100 Gbps curve, cost 2, penalty 7.5, capacity 300, sd 30
D_REF = IsoElasticDemand(v=1313.26, alpha=1.6)
U_REF = UncertaintyModel(mu=0.0, theta=30.0)
MP_REF = MarketParams(r=2.0, m=7.5, capacity=300.0)

WIDE = UncertaintyModel(mu=0.0, theta=1.0)  # small noise, support [-3, 3]


def big_capacity(d, u, r, m=0.0):
    """Params with capacity far above any demand in play (zero overflow mass)."""
    return MarketParams(r=r, m=m, capacity=1e9)


def test_market_params_validation():
    with pytest.raises(ValueError):
        MarketParams(r=0.0, m=1.0, capacity=10.0)
    with pytest.raises(ValueError):
        MarketParams(r=1.0, m=-0.1, capacity=10.0)
    with pytest.raises(ValueError):
        MarketParams(r=1.0, m=1.0, capacity=0.0)
    with pytest.raises(ValueError):
        validate_market(D_REF, UncertaintyModel(0.0, 200.0), MarketParams(r=1, m=1, capacity=300.0))


def test_expected_profit_no_overflow_is_risk_free():
    # d(p) + b <= C: the penalty integral is empty
    mp = MarketParams(r=2.0, m=7.5, capacity=1000.0)
    p = 5.0
    assert expected_profit(D_REF, U_REF, mp, p) == pytest.approx(
        (p - 2.0) * D_REF.demand(p), rel=1e-12
    )
    # zero margin at p = r with no overflow
    assert expected_profit(D_REF, U_REF, mp, 2.0) == pytest.approx(0.0, abs=1e-9)


# frozen from the adaptive-quadrature oracle (overflow region empty at p = 5)
REF_PROFIT_AT_5 = 299.9991086  # (5-2)*d(5)


def test_expected_profit_quadrature_fixture():
    oracle = profit_quadrature("iso", 1313.26, 1.6, 2.0, 7.5, 300.0, 0.0, 30.0, -90.0, 90.0, 5.0)
    assert oracle == pytest.approx(REF_PROFIT_AT_5, abs=1e-6)
    assert expected_profit(D_REF, U_REF, MP_REF, 5.0) == pytest.approx(oracle, rel=1e-10)
    # a price low enough to put demand into the noise band exercises the penalty term
    p_low = D_REF.inverse(MP_REF.capacity - 30.0)
    oracle_low = profit_quadrature(
        "iso", 1313.26, 1.6, 2.0, 7.5, 300.0, 0.0, 30.0, -90.0, 90.0, p_low
    )
    assert expected_profit(D_REF, U_REF, MP_REF, p_low) == pytest.approx(oracle_low, rel=1e-9)


def test_profit_derivative_finite_difference():
    rng = np.random.default_rng(23)
    for _ in range(3):
        scen, _ = random_instance(rng)
        d, u, mp = scen.demand, scen.uncertainty, scen.market
        sol = optimize_price(d, u, mp)
        for factor in (0.85, 1.1):
            p = sol.p_star * factor
            if isinstance(d, LinearDemand):
                p = min(p, 0.999 * d.choke_price)
            h = 1e-5 * p
            fd = (expected_profit(d, u, mp, p + h) - expected_profit(d, u, mp, p - h)) / (2 * h)
            assert profit_derivative(d, u, mp, p) == pytest.approx(fd, rel=1e-6)


def test_profit_derivative_zero_tail_form():
    mp = MarketParams(r=2.0, m=7.5, capacity=1e6)
    p = 4.0
    expected = D_REF.demand(p) + D_REF.slope(p) * (p - 2.0)
    assert profit_derivative(D_REF, U_REF, mp, p) == pytest.approx(expected, rel=1e-12)


def test_profit_derivative_at_closed_form_optimum():
    # alpha=2, r=1, m=0: optimum at alpha*r/(alpha-1) = 2
    d = IsoElasticDemand(v=10.0, alpha=2.0)
    mp = big_capacity(d, WIDE, r=1.0)
    assert profit_derivative(d, WIDE, mp, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_optimize_price_closed_forms():
    d = IsoElasticDemand(v=10.0, alpha=2.0)
    sol = optimize_price(d, WIDE, big_capacity(d, WIDE, r=1.0))
    assert sol.p_star == pytest.approx(2.0, abs=1e-9)
    lin = LinearDemand(v=100.0, alpha=10.0)
    sol2 = optimize_price(lin, WIDE, big_capacity(lin, WIDE, r=2.0))
    assert sol2.p_star == pytest.approx(6.0, abs=1e-9)  # (r + v/alpha)/2


def test_fixed_point_forms_at_optimum():
    # family-specific first-order conditions, with the overflow tail active
    rng = np.random.default_rng(29)
    scen, _ = random_instance(rng, kind="iso")
    d, u, mp = scen.demand, scen.uncertainty, scen.market
    sol = optimize_price(d, u, mp)
    tail = u.tail_probability(mp.capacity - d.demand(sol.p_star))
    assert sol.p_star == pytest.approx(
        d.alpha / (d.alpha - 1.0) * (mp.r + mp.m * tail), rel=1e-9
    )
    scen_l, _ = random_instance(rng, kind="linear")
    d, u, mp = scen_l.demand, scen_l.uncertainty, scen_l.market
    sol_l = optimize_price(d, u, mp)
    tail_l = u.tail_probability(mp.capacity - d.demand(sol_l.p_star))
    assert 2.0 * sol_l.p_star == pytest.approx(
        mp.r + mp.m * tail_l + d.v / d.alpha, rel=1e-9
    )


def test_optimize_price_grid_oracle():
    sol = optimize_price(D_REF, U_REF, MP_REF)
    lo = MP_REF.r * (1 + 1e-6)
    hi = D_REF.alpha * (MP_REF.r + MP_REF.m) / (D_REF.alpha - 1)
    grid = np.linspace(lo, hi, 1_000_000)
    vals = profit_grid("iso", 1313.26, 1.6, 2.0, 7.5, 300.0, 0.0, 30.0, -90.0, 90.0, grid)
    best = grid[np.argmax(vals)]
    assert abs(sol.p_star - best) <= grid[1] - grid[0]


def test_solution_decomposition_and_residual():
    rng = np.random.default_rng(31)
    for _ in range(10):
        scen, _ = random_instance(rng)
        d, u, mp = scen.demand, scen.uncertainty, scen.market
        sol = optimize_price(d, u, mp)
        assert sol.expected_profit == pytest.approx(
            sol.risk_free_profit - sol.overflow_loss, rel=1e-12
        )
        assert sol.overflow_probability == pytest.approx(
            u.tail_probability(mp.capacity - d.demand(sol.p_star)), rel=1e-12
        )
        # first-order residual at the reported optimum
        resid = profit_derivative(d, u, mp, sol.p_star)
        assert abs(resid) <= 1e-8 * max(1.0, d.demand(sol.p_star))
        # expected demand below capacity at the optimum
        assert d.demand(sol.p_star) + u.mu < mp.capacity


def test_price_exceeds_risk_free_optimum():
    rng = np.random.default_rng(37)
    for _ in range(20):
        scen, _ = random_instance(rng)
        d, u, mp = scen.demand, scen.uncertainty, scen.market
        sol = optimize_price(d, u, mp)
        risk_free = optimize_price(
            d, u, MarketParams(r=mp.r, m=0.0, capacity=mp.capacity)
        )
        assert sol.p_star >= risk_free.p_star - 1e-8
        if u.tail_probability(mp.capacity - d.demand(risk_free.p_star)) > 1e-6 and mp.m > 0:
            assert sol.p_star > risk_free.p_star


def test_monotone_in_cost_and_penalty():
    base, _ = random_instance(np.random.default_rng(41), kind="iso")
    d, u, mp = base.demand, base.uncertainty, base.market
    prices_r = [
        optimize_price(d, u, MarketParams(r=r, m=mp.m, capacity=mp.capacity)).p_star
        for r in np.linspace(0.5 * mp.r, 2.0 * mp.r, 8)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(prices_r, prices_r[1:]))
    prices_m = [
        optimize_price(d, u, MarketParams(r=mp.r, m=m, capacity=mp.capacity)).p_star
        for m in np.linspace(0.0, 2.0 * mp.m, 8)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(prices_m, prices_m[1:]))


def test_quasiconcave_sign_pattern():
    rng = np.random.default_rng(43)
    for _ in range(10):
        scen, _ = random_instance(rng)
        d, u, mp = scen.demand, scen.uncertainty, scen.market
        if isinstance(d, IsoElasticDemand):
            hi = d.alpha * (mp.r + mp.m) / (d.alpha - 1)
        else:
            hi = d.choke_price
        grid = np.linspace(mp.r * (1 + 1e-6), hi, 10_000)
        signs = np.sign(profit_derivative(d, u, mp, grid))
        signs = signs[signs != 0]
        flips = np.diff(signs)
        assert np.all(flips <= 0), "derivative sign recovered after turning negative"
        assert np.count_nonzero(flips) <= 1


def test_degenerate_parameters_raise():
    # cost above the choke price: no feasible margin
    lin = LinearDemand(v=100.0, alpha=10.0)
    with pytest.raises(ValueError):
        optimize_price(lin, WIDE, MarketParams(r=11.0, m=1.0, capacity=1e6))


def test_regular_price():
    assert regular_price(IsoElasticDemand(v=1000.0, alpha=2.0), 3.75) == pytest.approx(7.5)
    assert regular_price(IsoElasticDemand(v=1000.0, alpha=2.0), 11.0) == pytest.approx(22.0)
    assert regular_price(LinearDemand(v=100.0, alpha=10.0), 2.0) == pytest.approx(6.0)
    # perfectly elastic limit: price approaches cost
    assert regular_price(IsoElasticDemand(v=10.0, alpha=1e9), 5.0) == pytest.approx(5.0, rel=1e-8)
    with pytest.raises(ValueError):
        regular_price(LinearDemand(v=100.0, alpha=10.0), 10.0)  # at the choke price
    # solution carries elasticity above one
    d = LinearDemand(v=100.0, alpha=10.0)
    assert d.elasticity(regular_price(d, 2.0)) > 1.0


def test_check_price_advantage_trivial_cases():
    d = IsoElasticDemand(v=61618.8, alpha=2.5)
    u = UncertaintyModel(-7.96, 87.4)
    sol_mp = MarketParams(r=1.875, m=0.0, capacity=972.0, r_bar=3.75, p_bar=7.5)
    sol = optimize_price(d, u, sol_mp)
    adv = check_price_advantage(d, u, sol_mp, sol)
    assert adv.condition_holds  # m = 0 and r < r_bar
    assert adv.discount_observed

    eq_mp = MarketParams(r=3.75, m=7.5, capacity=972.0, r_bar=3.75, p_bar=7.5)
    sol2 = optimize_price(d, u, eq_mp)
    adv2 = check_price_advantage(d, u, eq_mp, sol2)
    assert not adv2.condition_holds  # r = r_bar with positive penalty term

    with pytest.raises(ValueError):
        check_price_advantage(d, u, MarketParams(r=1.0, m=1.0, capacity=972.0), sol)


def test_condition_implies_discount():
    rng = np.random.default_rng(47)
    checked = 0
    for _ in range(60):
        scen, _ = random_instance(rng)
        d, u, mp = scen.demand, scen.uncertainty, scen.market
        sol = optimize_price(d, u, mp)
        adv = check_price_advantage(d, u, mp, sol)
        if adv.condition_holds:
            checked += 1
            assert adv.discount_observed
    assert checked > 10  # the sufficient condition actually fires on typical draws


def test_solution_serialization():
    sol = optimize_price(D_REF, U_REF, MP_REF)
    d = sol.to_dict()
    assert set(d) == {
        "p_star",
        "expected_profit",
        "risk_free_profit",
        "overflow_loss",
        "overflow_probability",
        "elasticity_at_opt",
    }
    assert d["p_star"] == sol.p_star


def _run_isolated(code: str) -> str:
    """Stdout of code run in a fresh interpreter, so that a search that never
    ends fails the test on its timeout instead of hanging the suite."""
    src = str(Path(spottransit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    return run.stdout


def test_search_stops_when_doubles_are_wider_than_the_tolerance():
    # above ~5e5 $/Mbps no bracket is 1e-10 wide; the iso price ratio does not depend on scale
    code = """if True:
        import json
        from spottransit.cli import cmd_static, load_scenario
        ratios = [cmd_static(load_scenario({"p_bar": p, "d_bar": 100.0, "theta": 1.0,
                                            "beta": 0.5}))[1][0]["price_ratio"]
                  for p in (7.5, 1e6, 1e9)]
        print(json.dumps(ratios))
    """
    base, *large = json.loads(_run_isolated(code))
    for ratio in large:
        assert ratio == pytest.approx(base, rel=1e-9)

    code = """if True:
        from spottransit.demand import IsoElasticDemand
        from spottransit.pricing import MarketParams, optimize_price
        from spottransit.uncertainty import UncertaintyModel
        sol = optimize_price(IsoElasticDemand(100.0, 1.0 + 1e-6), UncertaintyModel(0.0, 1.0),
                             MarketParams(r=1.0, m=0.0, capacity=50.0))
        print(repr(sol.p_star))
    """
    alpha = 1.0 + 1e-6
    assert float(_run_isolated(code)) == pytest.approx(alpha / (alpha - 1.0), rel=1e-6)


def test_markup_bisection_solves_where_the_slope_underflows():
    # d'(p) underflows to 0 at the upper bracket, so E' shows no sign change there, but the
    # markup gap g = d/(-d') - (p - r - m T) stays negative; the optimum is alpha r / (alpha - 1)
    d, u = IsoElasticDemand(100.0, 50.0), UncertaintyModel(0.0, 1.0)
    mp = MarketParams(r=1.0, m=1e16, capacity=50.0)
    hi = d.upper_bracket(mp.r, mp.m)
    assert profit_derivative(d, u, mp, hi) >= 0
    assert d.markup(hi) - (hi - mp.r - mp.m * u.tail_probability(mp.capacity - d.demand(hi))) < 0
    assert optimize_price(d, u, mp).p_star == pytest.approx(50.0 / 49.0, rel=1e-11)


# -- the scalar solver the batched one replaced, kept as its reference ------

def _reference_bracket(d, u, mp):
    validate_market(d, u, mp)
    lo = mp.r * (1.0 + 1e-6)
    hi = d.upper_bracket(mp.r, mp.m)
    if not lo < hi:
        raise ValueError(
            f"no price range above cost: r={mp.r} vs upper bracket {hi} (degenerate parameters)"
        )
    return lo, hi


def _scalar_bisect(f, lo, hi):
    """Midpoint of the final bracket of bisecting f, positive at lo, non-positive at hi."""
    a, b = lo, hi
    while b - a > _PRICE_TOL:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        if f(mid) > 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def reference_optimize_price(d, u, mp):
    """One row at a time: scalar bisection of g(p) = d(p)/(-d'(p)) - (p - r - m T(p))."""
    lo, hi = _reference_bracket(d, u, mp)
    g = lambda p: d.markup(p) - (p - mp.r - mp.m * u.tail_probability(mp.capacity - d.demand(p)))
    if g(hi) >= 0:
        raise RuntimeError("the markup gap g is not negative at the upper bracket")
    if g(lo) <= 0:
        raise ValueError("profit is non-increasing at the cost floor; degenerate parameters")
    p_star = _scalar_bisect(g, lo, hi)
    dem = d.demand(p_star)
    phi = (p_star - mp.r) * dem
    lam = mp.m * u.partial_overshoot(mp.capacity - dem)
    sol = StaticSolution(
        p_star=p_star,
        expected_profit=phi - lam,
        risk_free_profit=phi,
        overflow_loss=lam,
        overflow_probability=u.tail_probability(mp.capacity - dem),
        elasticity_at_opt=d.elasticity(p_star),
    )
    if not all(np.isfinite(list(sol.to_dict().values()))):
        raise ValueError(
            f"the solution at p*={p_star!r} has a non-finite field; degenerate parameters")
    return sol


def _outcome(result):
    """A StaticSolution as is; an error as its type and text."""
    return (type(result), str(result)) if isinstance(result, Exception) else result


def _reference_outcome(problem):
    try:
        return reference_optimize_price(*problem)
    except ValueError as exc:
        return _outcome(exc)


def assert_batch_matches_reference(problems, results=None):
    """Every field of every row (==, so bit for bit) or the same error, and the
    same again when each row is solved alone through optimize_price."""
    results = optimize_prices(problems) if results is None else results
    expected = [_reference_outcome(p) for p in problems]
    assert [_outcome(r) for r in results] == expected
    for problem, want in zip(problems, expected):
        try:
            got = optimize_price(*problem)
        except ValueError as exc:
            got = _outcome(exc)
        assert got == want


@pytest.mark.parametrize("kind", ["iso", "linear"])
def test_batched_solve_matches_scalar_reference_on_the_cli_tables(monkeypatch, kind):
    # every batch that static, worst-case and the four sweeps price for the 6 IXPs;
    # calibrate runs the same grid points as static
    batches = []

    def recording(problems, solve=pricing.optimize_prices):
        results = solve(problems)
        batches.append((problems, results))
        return results

    monkeypatch.setattr(pricing, "optimize_prices", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for ixp in IXP_STATS:
            scn = cli.load_scenario({"ixp": ixp, "kind": kind})
            cli.cmd_static(scn)
            cli.cmd_worst_case(scn)
            for param in cli.SWEEP_DEFAULTS:
                cli.cmd_sweep(scn, param)
    monkeypatch.undo()
    assert len(batches) == len(IXP_STATS) * (2 + len(cli.SWEEP_DEFAULTS))
    assert sum(len(problems) for problems, _ in batches) > 1000
    for problems, results in batches:
        assert_batch_matches_reference(problems, results)
        # the E' bisection that g replaced, without its golden section, gives every row
        for (d, u, mp), result in zip(problems, results):
            try:
                lo, hi = _reference_bracket(d, u, mp)
            except ValueError as exc:
                assert _outcome(result) == _outcome(exc)
                continue
            e = lambda p: d.demand(p) + d.slope(p) * (
                p - mp.r - mp.m * u.tail_probability(mp.capacity - d.demand(p)))
            assert e(hi) < 0
            if e(lo) <= 0:
                assert str(result).startswith("profit is non-increasing at the cost floor")
            else:
                assert result.p_star == _scalar_bisect(e, lo, hi)


UNDERFLOW = (IsoElasticDemand(100.0, 50.0), UncertaintyModel(0.0, 1.0),
             MarketParams(r=1.0, m=1e16, capacity=50.0))
MIXED_BATCH = [
    (D_REF, U_REF, MP_REF),
    UNDERFLOW,  # d'(hi) underflows to 0, g(hi) does not
    (LinearDemand(100.0, 10.0), WIDE, MarketParams(r=11.0, m=1.0, capacity=1e6)),  # lo >= hi
    # d and d' underflow to 0 at the cost floor, the markup p/alpha does not
    (IsoElasticDemand(1.0, 400.0), WIDE, MarketParams(r=10.0, m=1.0, capacity=50.0)),
    (LinearDemand(100.0, 10.0), WIDE, big_capacity(None, WIDE, r=2.0)),
    (D_REF, UncertaintyModel(0.0, 200.0), MarketParams(r=1.0, m=1.0, capacity=300.0)),  # b >= C
    (IsoElasticDemand(10.0, 2.0), WIDE, big_capacity(None, WIDE, r=1.0)),
    # the markup p/alpha at the cost floor is below its margin r 1e-6: g(lo) < 0
    (IsoElasticDemand(1.0, 1e7), WIDE, MarketParams(r=10.0, m=1.0, capacity=50.0)),
    # demand overflows to inf at p*, so the profit fields are not finite
    (IsoElasticDemand(100.0, 400.0), WIDE, MarketParams(r=1e-3, m=0.0, capacity=50.0)),
]


def test_batched_solve_keeps_each_rows_branch_and_error():
    results = optimize_prices(MIXED_BATCH)
    assert results[0].p_star == optimize_price(D_REF, U_REF, MP_REF).p_star
    assert results[1].p_star == pytest.approx(50.0 / 49.0, rel=1e-9)
    assert str(results[2]).startswith("no price range above cost")
    assert results[3].p_star == pytest.approx(400.0 * 10.0 / 399.0, rel=1e-11)
    assert results[4].p_star == pytest.approx(6.0, abs=1e-9)
    assert str(results[5]).startswith("noise support must sit below capacity")
    assert results[6].p_star == pytest.approx(2.0, abs=1e-9)
    assert str(results[7]).startswith("profit is non-increasing at the cost floor")
    assert str(results[8]).endswith("has a non-finite field; degenerate parameters")
    assert_batch_matches_reference(MIXED_BATCH)
    assert_batch_matches_reference(MIXED_BATCH[::-1])
    for problem in MIXED_BATCH:
        assert_batch_matches_reference([problem])
    assert optimize_prices([]) == []


# (alpha, r, m) over many orders of magnitude, v = 100, C = 50, noise (0, 1)
ISO_GRID = [(IsoElasticDemand(100.0, alpha), WIDE, MarketParams(r=r, m=m, capacity=50.0))
            for alpha in (1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 400.0, 1e3, 1e4)
            for r in (1e-3, 0.1, 1.0, 10.0, 1e3, 1e5, 1e7)
            for m in (0.0, 1.0, 1e3, 1e8, 1e12, 1e16, 1e20, 1e100)]


def test_iso_grid_rows_solve_to_finite_fields_or_fail_cleanly():
    results = optimize_prices(ISO_GRID)
    assert len(results) == 728
    floor_rows = 0
    for (d, u, mp), result in zip(ISO_GRID, results):
        if isinstance(result, ValueError):
            continue
        assert isinstance(result, StaticSolution)
        assert np.all(np.isfinite(list(result.to_dict().values())))
        # E'(lo) <= 0 here failed the cost-floor check of the E' bisection; g solves it
        lo = mp.r * (1.0 + 1e-6)
        e_lo = d.demand(lo) + d.slope(lo) * (
            lo - mp.r - mp.m * u.tail_probability(mp.capacity - d.demand(lo)))
        if e_lo <= 0:
            floor_rows += 1
            p = result.p_star
            tail = u.tail_probability(mp.capacity - d.demand(p))
            assert p == pytest.approx(d.alpha * (mp.r + mp.m * tail) / (d.alpha - 1.0), rel=1e-9)
    assert floor_rows == 144


@dataclass(frozen=True)
class _PickyDemand(IsoElasticDemand):
    """Iso-elastic demand whose elasticity refuses the base demand 13."""

    def elasticity(self, p):
        if np.any(np.asarray(self.v) == 13.0):
            raise DomainError("base demand 13 refused")
        return super().elasticity(p)


def test_a_row_the_stacked_evaluation_rejects_fails_alone():
    batch = [(_PickyDemand(v, 1.6), U_REF, MP_REF) for v in (1313.26, 13.0, 900.0)]
    results = optimize_prices(batch)
    assert [type(r) for r in results] == [StaticSolution, DomainError, StaticSolution]
    assert results[2] == optimize_price(IsoElasticDemand(900.0, 1.6), U_REF, MP_REF)
    assert_batch_matches_reference(batch)


@st.composite
def market_problems(draw):
    """One (d, u, mp) row of either family over wide parameter ranges; many are degenerate."""
    if draw(st.booleans()):
        d = IsoElasticDemand(draw(st.floats(1e-2, 1e8)), draw(st.floats(1.01, 12.0)))
    else:
        d = LinearDemand(draw(st.floats(1e-2, 1e5)), draw(st.floats(1e-3, 1e3)))
    u = UncertaintyModel(draw(st.floats(-50.0, 50.0)), draw(st.floats(1e-3, 100.0)))
    mp = MarketParams(r=draw(st.floats(1e-3, 50.0)), m=draw(st.floats(0.0, 200.0)),
                      capacity=draw(st.floats(1.0, 1e4)))
    return d, u, mp


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(market_problems(), min_size=1, max_size=6))
def test_batched_solve_matches_scalar_reference_property(problems):
    # batched p* equals scalar p*, bit for bit, for any mix of families and failures
    assert_batch_matches_reference(problems)


def _calibrated(inp, kind, r_ratio, m_ratio):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scen = calibrate(inp, kind, r_ratio, m_ratio)
    except ValueError:
        assume(False)
    return scen.demand, scen.uncertainty, scen.market


calibration_inputs = st.builds(
    CalibrationInput, p_bar=st.floats(0.5, 100.0), d_bar=st.floats(1.0, 5000.0),
    beta=st.floats(0.05, 0.95), gamma=st.floats(1.01, 3.0), alpha_bar=st.floats(1.05, 5.0),
    mu=st.floats(-50.0, 50.0), theta=st.floats(0.01, 300.0))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(calibration_inputs, st.sampled_from(["iso", "linear"]),
       st.lists(st.floats(0.01, 3.0), min_size=2, max_size=2),
       st.lists(st.floats(0.01, 3.0), min_size=2, max_size=2))
def test_optimal_price_is_nondecreasing_in_cost_and_penalty(inp, kind, r_ratios, m_ratios):
    (r1, r2), (m1, m2) = sorted(r_ratios), sorted(m_ratios)
    base, higher_r, higher_m = optimize_prices([_calibrated(inp, kind, r1, m1),
                                                _calibrated(inp, kind, r2, m1),
                                                _calibrated(inp, kind, r1, m2)])
    assume(isinstance(base, StaticSolution))
    # rows whose true optima coincide may end anywhere in their final brackets
    for other in (higher_r, higher_m):
        if isinstance(other, StaticSolution):
            assert other.p_star >= base.p_star - _PRICE_TOL


def test_optimal_price_monotone_regressions():
    # shrunk: the penalty does not bind, so both optima are alpha r / (alpha - 1), but the
    # two brackets differ and their final midpoints sit 4.8e-11 apart, the higher m lower
    inp = CalibrationInput(p_bar=2.0, d_bar=34.0, beta=0.5, gamma=1.125, alpha_bar=2.0,
                           mu=0.0, theta=1.0)
    low, high = optimize_prices([_calibrated(inp, "iso", 0.875, m) for m in (1.0, 2.0)])
    assert high.p_star < low.p_star <= high.p_star + _PRICE_TOL
