import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import random_instance, surplus_quadrature
from spottransit.calibration import CalibrationInput, calibrate, ixp_input
from spottransit.demand import DomainError, IsoElasticDemand, LinearDemand
from spottransit.pricing import MarketParams, expected_profit, optimize_price
from spottransit.uncertainty import UncertaintyModel
from spottransit.welfare import (
    DivergentSurplusError,
    baseline_profit,
    consumer_surplus,
    social_welfare,
    welfare_report,
)
from test_pricing import calibration_inputs


def test_surplus_closed_forms():
    assert consumer_surplus(IsoElasticDemand(v=8.0, alpha=3.0), 2.0) == pytest.approx(2.0)
    assert consumer_surplus(LinearDemand(100.0, 10.0), 5.0) == pytest.approx(1250.0 / 6.0)
    assert consumer_surplus(LinearDemand(100.0, 10.0), 10.0) == 0.0  # choke price


def test_surplus_matches_quadrature():
    cases = [
        ("iso", IsoElasticDemand(v=8.0, alpha=3.0), 2.0),
        ("iso", IsoElasticDemand(v=61618.8, alpha=2.5), 6.0),
        ("iso", IsoElasticDemand(v=500.0, alpha=2.2), 7.0),
        ("linear", LinearDemand(100.0, 10.0), 5.0),
        ("linear", LinearDemand(2646.0, 252.0), 6.5),
    ]
    for kind, d, p in cases:
        oracle = surplus_quadrature(kind, d.v, d.alpha, p)
        assert consumer_surplus(d, p) == pytest.approx(oracle, rel=1e-6)


def test_surplus_divergence_and_domain():
    with pytest.raises(DivergentSurplusError):
        consumer_surplus(IsoElasticDemand(v=10.0, alpha=1.6), 5.0)
    with pytest.raises(DivergentSurplusError):
        consumer_surplus(IsoElasticDemand(v=10.0, alpha=2.0), 5.0)
    with pytest.raises(DomainError):
        consumer_surplus(LinearDemand(100.0, 10.0), 10.5)


def test_surplus_strictly_decreasing_in_price():
    for d in [IsoElasticDemand(400.0, 2.5), LinearDemand(100.0, 10.0)]:
        hi = 9.9 if isinstance(d, LinearDemand) else 30.0
        ps = np.linspace(0.5, hi, 40)
        vals = [consumer_surplus(d, p) for p in ps]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_baseline_profit():
    d = IsoElasticDemand(v=1313.26, alpha=1.6)
    assert baseline_profit(d, 5.0, 5.0) == 0.0
    # 100 Gbps at $5 with a $2.5 margin: 250 price*Gbps units (~$250k/month)
    assert baseline_profit(d, 5.0, 2.5) == pytest.approx(250.0, abs=0.3)
    assert baseline_profit(LinearDemand(100.0, 10.0), 6.0, 2.0) == pytest.approx(160.0)


def test_social_welfare_additivity():
    rng = np.random.default_rng(53)
    for _ in range(3):
        scen, _ = random_instance(rng)
        d, u, mp = scen.demand, scen.uncertainty, scen.market
        p = optimize_price(d, u, mp).p_star
        assert social_welfare(d, u, mp, p) == pytest.approx(
            consumer_surplus(d, p) + expected_profit(d, u, mp, p), rel=1e-12
        )
    # at the choke price, welfare is profit only
    lin = LinearDemand(100.0, 10.0)
    u = UncertaintyModel(0.0, 1.0)
    mp = MarketParams(r=2.0, m=1.0, capacity=200.0)
    assert social_welfare(lin, u, mp, 10.0) == pytest.approx(expected_profit(lin, u, mp, 10.0))
    # below cost with no overflow: negative margin plus surplus
    p = 1.0
    assert social_welfare(lin, u, mp, p) == pytest.approx(
        consumer_surplus(lin, p) + (p - 2.0) * lin.demand(p), rel=1e-12
    )


def typical_scenario(kind, beta=0.2):
    return calibrate(ixp_input("linx", beta=beta), kind=kind)


def test_welfare_report_typical_bands():
    # iso-elastic profit improvement sits in the 70-140% band, linear in 58-70%
    scen = typical_scenario("iso")
    sol = optimize_price(scen.demand, scen.uncertainty, scen.market)
    rep = welfare_report(scen.demand, scen.uncertainty, scen.market, sol)
    assert 70.0 <= rep.profit_improvement_pct <= 140.0
    scen_l = typical_scenario("linear")
    sol_l = optimize_price(scen_l.demand, scen_l.uncertainty, scen_l.market)
    rep_l = welfare_report(scen_l.demand, scen_l.uncertainty, scen_l.market, sol_l)
    assert 58.0 <= rep_l.profit_improvement_pct <= 70.0


def test_welfare_report_accounting():
    scen = typical_scenario("iso", beta=0.5)
    sol = optimize_price(scen.demand, scen.uncertainty, scen.market)
    rep = welfare_report(scen.demand, scen.uncertainty, scen.market, sol)
    assert rep.welfare_spot == pytest.approx(rep.surplus_spot + rep.profit_spot, rel=1e-12)
    assert rep.welfare_regular == pytest.approx(rep.surplus_regular + rep.profit_regular, rel=1e-12)
    assert rep.profit_gain_abs == pytest.approx(rep.profit_spot - rep.profit_regular, rel=1e-12)
    assert rep.profit_improvement_pct == pytest.approx(
        100.0 * rep.profit_gain_abs / rep.profit_regular, rel=1e-12
    )
    assert rep.profit_regular == pytest.approx(
        baseline_profit(scen.demand, scen.market.p_bar, scen.market.r_bar), rel=1e-12
    )


def test_forced_equal_prices_zero_improvement():
    # pin the spot regime at the regular price: identical profit up to the overflow term
    scen = typical_scenario("iso", beta=0.3)
    d, u, mp = scen.demand, scen.uncertainty, scen.market
    p_bar = mp.p_bar
    assert consumer_surplus(d, p_bar) == pytest.approx(consumer_surplus(d, p_bar))
    profit_at_pbar = expected_profit(d, u, MarketParams(mp.r_bar, mp.m, mp.capacity), p_bar)
    assert profit_at_pbar == pytest.approx(
        baseline_profit(d, p_bar, mp.r_bar), rel=1e-9
    )  # overflow term vanishes at the regular price in calibrated scenarios


def test_improvements_positive_whenever_discounted():
    # spot beats regular on both axes whenever the spot price is lower (needs
    # the r-cost baseline too, which is the stronger comparison)
    rng = np.random.default_rng(59)
    tested = 0
    for _ in range(40):
        scen, _ = random_instance(rng)
        d, u, mp = scen.demand, scen.uncertainty, scen.market
        sol = optimize_price(d, u, mp)
        if sol.p_star >= mp.p_bar:
            continue
        tested += 1
        rep = welfare_report(d, u, mp, sol)
        assert rep.surplus_gain_abs > 0
        assert rep.profit_gain_abs > 0
        assert rep.welfare_spot > rep.welfare_regular
        assert sol.expected_profit > baseline_profit(d, mp.p_bar, mp.r)
    assert tested > 20


def test_report_requires_regular_market():
    d = IsoElasticDemand(400.0, 2.5)
    u = UncertaintyModel(0.0, 5.0)
    mp = MarketParams(r=1.0, m=5.0, capacity=500.0)
    sol = optimize_price(d, u, mp)
    with pytest.raises(ValueError):
        welfare_report(d, u, mp, sol)


def test_report_serialization():
    scen = typical_scenario("iso", beta=0.4)
    sol = optimize_price(scen.demand, scen.uncertainty, scen.market)
    rep = welfare_report(scen.demand, scen.uncertainty, scen.market, sol)
    d = rep.to_dict()
    assert list(d) == [f.name for f in dataclasses.fields(rep)]
    assert list(d.values()) == [getattr(rep, k) for k in d]


def _discounted_report(inp, kind, r_ratio, m_ratio):
    """(scenario, welfare report) of a calibrated scenario whose spot price undercuts p̄."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            scen = calibrate(inp, kind, r_ratio, m_ratio)
            sol = optimize_price(scen.demand, scen.uncertainty, scen.market)
        except ValueError:
            assume(False)
    assume(sol.p_star < inp.p_bar)
    try:
        return scen, welfare_report(scen.demand, scen.uncertainty, scen.market, sol)
    except DivergentSurplusError:
        assume(False)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(calibration_inputs, st.sampled_from(["iso", "linear"]), st.floats(0.01, 3.0),
       st.floats(0.01, 3.0))
def test_gains_positive_whenever_discounted_property(inp, kind, r_ratio, m_ratio):
    scen, rep = _discounted_report(inp, kind, r_ratio, m_ratio)
    assert rep.surplus_gain_abs > 0
    # the profit gain is assured when the spot cost is at most r̄ and the capacity
    # carries the demand at p̄ under every noise draw (see welfare_report)
    d, u, mp = scen.demand, scen.uncertainty, scen.market
    if r_ratio <= 1.0 and mp.capacity - d.demand(mp.p_bar) >= u.b:
        assert rep.profit_gain_abs > 0


@pytest.mark.parametrize("kind,inp,r_ratio,gain_pct", [
    # shrunk: demand at p̄ overflows the capacity with probability ~0.14
    ("linear", CalibrationInput(p_bar=1.0, d_bar=28.0, beta=0.75, gamma=1.25,
                                alpha_bar=1.0625, mu=0.0, theta=14.0), 0.5, -0.464),
    # shrunk: the spot cost is above the regular cost
    ("iso", CalibrationInput(p_bar=1.0, d_bar=4.0, beta=0.5, gamma=2.0, alpha_bar=2.0,
                             mu=0.0, theta=1.0), 1.25, -18.62),
])
def test_unassured_profit_loss_is_reported_not_raised(kind, inp, r_ratio, gain_pct):
    # before, welfare_report raised "market assumptions ... are likely violated" here
    # although the noise support sits below capacity and the penalty is above the capacity price
    scen = calibrate(inp, kind, r_ratio, 1.0)
    sol = optimize_price(scen.demand, scen.uncertainty, scen.market)
    rep = welfare_report(scen.demand, scen.uncertainty, scen.market, sol)
    assert scen.penalty_assumption_ok and sol.p_star < inp.p_bar
    assert rep.surplus_gain_abs > 0
    assert rep.profit_improvement_pct == pytest.approx(gain_pct, abs=1e-2)
