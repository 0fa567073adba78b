"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Expected wall time is a few minutes; the brute-force
price-grid cross-validation dominates.
"""

import math
import time
import warnings

import numpy as np
import pytest

from oracles import profit_grid, random_instance, surplus_quadrature
from spottransit.calibration import IXP_STATS, calibrate, ixp_input
from spottransit.demand import IsoElasticDemand, LinearDemand
from spottransit.mdp import (
    MdpSpec,
    RateModel,
    average_revenue,
    policy_iteration,
    policy_rates,
    steady_state,
    verify_structure,
)
from spottransit.pricing import (
    check_price_advantage,
    expected_profit,
    optimize_price,
    profit_derivative,
)
from spottransit.simulate import SimConfig, compare_to_analytic, simulate_policy
from spottransit.traffic import TrafficSeries, prediction_errors
from spottransit.welfare import baseline_profit, consumer_surplus, welfare_report

warnings.filterwarnings("ignore", message=".*penalty.*")

MDP_TABLE = [
    ("0.3p", [0.0, 0.3], 388.7904),
    ("0.3p^2", [0.0, 0.0, 0.3], 360.8636),
    ("0.3p^3", [0.0, 0.0, 0.0, 0.3], 304.0449),
    ("1.5p^2", [0.0, 0.0, 1.5], 272.7983),
    ("3p^2", [0.0, 0.0, 3.0], 219.8632),
]

BETAS = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7]


def check(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def mdp_solutions():
    t0 = time.time()
    out = []
    for name, delta, j_ref in MDP_TABLE:
        rates = RateModel.from_polynomials([24.0, 0.0, -1.5], delta, 4.0)
        spec = MdpSpec(capacity=100, price_grid=np.linspace(0.0, 4.0, 1000), rates=rates)
        out.append((name, j_ref, spec, policy_iteration(spec)))
    return out, time.time() - t0


def typical_rows(kind):
    rows = []
    for name in IXP_STATS:
        for beta in BETAS:
            scen = calibrate(ixp_input(name, beta=beta, kind=kind))
            sol = optimize_price(scen.demand, scen.uncertainty, scen.market)
            rep = welfare_report(scen.demand, scen.uncertainty, scen.market, sol)
            rows.append((name, beta, 100.0 * (1.0 - sol.p_star / scen.market.p_bar), rep))
    return rows


def test_c01_mdp_table_reproduction(mdp_solutions):
    solutions, elapsed = mdp_solutions
    errs = {name: abs(sol.j_star - j_ref) / j_ref for name, j_ref, _, sol in solutions}
    worst = max(errs.values())
    check(
        "criterion 1: optimal average revenue within 1% of the five reference values",
        worst <= 0.01 and elapsed < 60.0,
        f"max rel err {worst:.2e}, solve time {elapsed:.1f}s",
    )


def test_c02_solution_structure(mdp_solutions):
    solutions, _ = mdp_solutions
    violations = []
    for name, _, _, sol in solutions:
        rep = verify_structure(sol, slack=1e-9)
        violations.extend((name, v) for v in rep.violations)
    check(
        "criterion 2: h non-decreasing, h concave, prices non-decreasing on all instances",
        not violations,
        f"{len(violations)} violations",
    )


def test_c03_demand_fixture():
    d = IsoElasticDemand(v=1313.26, alpha=1.6)
    ok5 = abs(d.demand(5.0) - 100.0) / 100.0 <= 0.005
    ok3 = abs(d.demand(3.0) - 226.4) / 226.4 <= 0.005
    check(
        "criterion 3: reference curve passes through (5, 100) and (3, 226.4) within 0.5%",
        ok5 and ok3,
        f"d(5)={d.demand(5.0):.3f}, d(3)={d.demand(3.0):.3f}",
    )


@pytest.mark.slow  # the brute-force oracle is most of the suite's time
def test_c04_solver_vs_brute_force():
    rng = np.random.default_rng(20120213)
    t0 = time.time()
    worst = 0.0
    for i in range(100):
        scen, _ = random_instance(rng)
        d, u, mp = scen.demand, scen.uncertainty, scen.market
        sol = optimize_price(d, u, mp)
        lo = mp.r * (1.0 + 1e-6)
        if isinstance(d, IsoElasticDemand):
            hi = d.alpha * (mp.r + mp.m) / (d.alpha - 1.0) * (1.0 + 1e-6)
            kind = "iso"
        else:
            hi = d.choke_price
            kind = "linear"
        grid = np.linspace(lo, hi, 1_000_000)
        vals = profit_grid(
            kind, d.v, d.alpha, mp.r, mp.m, mp.capacity, u.mu, u.theta, u.a, u.b, grid
        )
        step = grid[1] - grid[0]
        gap = abs(sol.p_star - grid[np.argmax(vals)])
        worst = max(worst, gap / step)
    check(
        "criterion 4: solver within one grid step of a 1e6-point brute-force argmax (100 instances)",
        worst <= 1.0,
        f"worst gap {worst:.3f} grid steps, {time.time()-t0:.0f}s",
    )


def test_c05_randomized_property_suite():
    rng = np.random.default_rng(8210)
    t0 = time.time()
    cond_violations = improvement_violations = quasi_violations = 0
    condition_fired = discounted = 0
    for i in range(200):
        scen, _ = random_instance(rng)
        d, u, mp = scen.demand, scen.uncertainty, scen.market
        sol = optimize_price(d, u, mp)

        adv = check_price_advantage(d, u, mp, sol)
        if adv.condition_holds:
            condition_fired += 1
            if not adv.discount_observed:
                cond_violations += 1

        if sol.p_star < mp.p_bar:
            discounted += 1
            rep = welfare_report(d, u, mp, sol)
            if not (rep.profit_gain_abs > 0 and rep.surplus_gain_abs > 0):
                improvement_violations += 1
            if not sol.expected_profit > baseline_profit(d, mp.p_bar, mp.r):
                improvement_violations += 1

        hi = (
            d.alpha * (mp.r + mp.m) / (d.alpha - 1.0)
            if isinstance(d, IsoElasticDemand)
            else d.choke_price
        )
        grid = np.linspace(mp.r * (1.0 + 1e-6), hi, 10_000)
        signs = np.sign(profit_derivative(d, u, mp, grid))
        signs = signs[signs != 0]
        flips = np.diff(signs)
        if np.any(flips > 0) or np.count_nonzero(flips) > 1:
            quasi_violations += 1

    elapsed = time.time() - t0
    check(
        "criterion 5: price-advantage condition, improvement guarantees, quasiconcavity (200 instances)",
        cond_violations == improvement_violations == quasi_violations == 0 and elapsed < 300.0,
        f"condition fired {condition_fired}x, discounted {discounted}x, {elapsed:.0f}s",
    )


def test_c06a_typical_discount_band():
    offending = []
    for kind in ("iso", "linear"):
        for name, beta, discount, _ in typical_rows(kind):
            if not 15.0 <= discount <= 35.0:
                offending.append(f"{kind}/{name}/beta={beta}: {discount:.2f}%")
    check(
        "criterion 6a: typical-setting spot discount within [15%, 35%] on every row",
        not offending,
        f"{len(offending)} rows outside, e.g. {offending[:3]}" if offending else "72 rows in band",
    )


def test_c06b_typical_iso_profit_band():
    vals = [rep.profit_improvement_pct for _, _, _, rep in typical_rows("iso")]
    check(
        "criterion 6b: iso-elastic profit improvement within [70%, 140%] on every row",
        all(70.0 <= v <= 140.0 for v in vals),
        f"range [{min(vals):.1f}%, {max(vals):.1f}%]",
    )


def test_c06c_typical_linear_profit_band():
    vals = [rep.profit_improvement_pct for _, _, _, rep in typical_rows("linear")]
    check(
        "criterion 6c: linear profit improvement within [58%, 70%] on every row",
        all(58.0 <= v <= 70.0 for v in vals),
        f"range [{min(vals):.1f}%, {max(vals):.1f}%]",
    )


def test_c07_worst_case_floors():
    worst_improvement = math.inf
    discount_ok = True
    for kind in ("iso", "linear"):
        for name in IXP_STATS:
            for beta in BETAS:
                scen = calibrate(
                    ixp_input(name, beta=beta, gamma=1.1, kind=kind, r_ratio=0.9, m_ratio=1.5)
                )
                sol = optimize_price(scen.demand, scen.uncertainty, scen.market)
                rep = welfare_report(scen.demand, scen.uncertainty, scen.market, sol)
                discount_ok &= sol.p_star < scen.market.p_bar
                if kind == "iso":
                    worst_improvement = min(worst_improvement, rep.profit_improvement_pct)
    check(
        "criterion 7: worst case keeps the spot price below regular and iso profit gain >= 7%",
        discount_ok and worst_improvement >= 7.0,
        f"min iso improvement {worst_improvement:.2f}%",
    )


def test_c08_simulator_cross_validation():
    # single-state hand instance
    rates = RateModel.from_polynomials([24.0, 0.0, -1.5], [0.0, 0.3], 4.0)
    k1 = MdpSpec(capacity=1, price_grid=np.linspace(0.0, 4.0, 1000), rates=rates)
    sol1 = policy_iteration(k1)
    res1 = simulate_policy(SimConfig(k1, sol1.policy, horizon=20_000.0, seed=20120213))
    rep1 = compare_to_analytic(res1, k1, sol1.policy)

    # reference table instance
    k100 = MdpSpec(capacity=100, price_grid=np.linspace(0.0, 4.0, 1000), rates=rates)
    sol100 = policy_iteration(k100)
    res100 = simulate_policy(SimConfig(k100, sol100.policy, horizon=100_000.0, seed=424242))
    rep100 = compare_to_analytic(res100, k100, sol100.policy)

    check(
        "criterion 8: Monte Carlo revenue within 3 stderr and occupancy TV distance <= 0.02",
        rep1.passed and rep100.passed,
        f"K=1 z={rep1.revenue_z:+.2f} tv={rep1.tv_distance:.4f}; "
        f"K=100 z={rep100.revenue_z:+.2f} tv={rep100.tv_distance:.4f}",
    )


def test_c09_numerical_hygiene(mdp_solutions):
    rng = np.random.default_rng(90909)

    # closed-form surplus vs quadrature
    surplus_err = 0.0
    for d, p in [
        (IsoElasticDemand(61618.8, 2.5), 6.0),
        (IsoElasticDemand(500.0, 2.2), 7.0),
        (LinearDemand(756.0, 72.0), 5.0),
    ]:
        kind = "iso" if isinstance(d, IsoElasticDemand) else "linear"
        oracle = surplus_quadrature(kind, d.v, d.alpha, p)
        surplus_err = max(surplus_err, abs(consumer_surplus(d, p) - oracle) / oracle)

    # analytic profit derivative vs central finite differences
    deriv_err = 0.0
    for _ in range(20):
        scen, _ = random_instance(rng)
        d, u, mp = scen.demand, scen.uncertainty, scen.market
        p_star = optimize_price(d, u, mp).p_star
        for factor in (0.85, 1.15):
            p = p_star * factor
            if isinstance(d, LinearDemand):
                p = min(p, 0.999 * d.choke_price)
            h = 1e-5 * p
            fd = (expected_profit(d, u, mp, p + h) - expected_profit(d, u, mp, p - h)) / (2 * h)
            deriv_err = max(deriv_err, abs(profit_derivative(d, u, mp, p) - fd) / abs(fd))

    # steady-state detailed balance and normalization on the solved instances
    balance_err = norm_err = 0.0
    solutions, _ = mdp_solutions
    for _, _, spec, sol in solutions:
        pi = steady_state(spec, sol.policy)
        lam, dlt = policy_rates(spec, sol.policy)
        flows_up = pi[:-1] * lam[:-1]
        flows_dn = pi[1:] * dlt[1:]
        balance_err = max(
            balance_err, np.max(np.abs(flows_up - flows_dn)) / max(1.0, flows_up.max())
        )
        norm_err = max(norm_err, abs(pi.sum() - 1.0))

    check(
        "criterion 9: surplus/derivative oracles within 1e-6, chain balance within 1e-12",
        surplus_err <= 1e-6 and deriv_err <= 1e-6 and balance_err <= 1e-12 and norm_err <= 1e-12,
        f"surplus {surplus_err:.1e}, derivative {deriv_err:.1e}, "
        f"balance {balance_err:.1e}, normalization {norm_err:.1e}",
    )


def test_c10_prediction_pipeline():
    week = 604800.0
    n_week = int(week / 300.0)
    t = np.arange(n_week) * 300.0
    base = 100.0 + 40.0 * np.sin(2 * np.pi * t / 86400.0)

    periodic = TrafficSeries(0.0, 300.0, np.tile(base, 4))
    rep_p = prediction_errors(periodic, week)
    zero_ok = rep_p.residual_mean == 0.0 and rep_p.residual_sd == 0.0

    sd = 5.0
    noisy_vals = np.tile(base, 4) + np.random.default_rng(77).normal(0, sd, 4 * n_week)
    rep_n = prediction_errors(TrafficSeries(0.0, 300.0, np.clip(noisy_vals, 0, None)), week)
    target = math.sqrt(2.0) * sd
    sd_ok = abs(rep_n.residual_sd - target) / target <= 0.05

    check(
        "criterion 10: periodic trace gives zero residuals; noisy trace sd within 5% of sqrt(2)*sd",
        zero_ok and sd_ok,
        f"residual sd {rep_n.residual_sd:.3f} vs {target:.3f}",
    )
