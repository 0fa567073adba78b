import warnings
from dataclasses import replace

import numpy as np
import pytest

from spottransit.calibration import (
    CalibrationError,
    CalibrationInput,
    IXP_STATS,
    REGION_PRICES,
    calibrate,
    derive_capacity_and_noise,
    derive_regular_cost,
    derive_regular_demand,
    derive_spot_demand,
    ixp_input,
)
from spottransit.demand import ANCHOR_RTOL, IsoElasticDemand, LinearDemand
from spottransit.pricing import regular_price

LONDON = CalibrationInput(p_bar=7.5, d_bar=800.0, beta=0.5, gamma=1.25, mu=-15.9278, theta=174.8157)


def test_input_validation():
    with pytest.raises(ValueError):
        CalibrationInput(p_bar=0.0, d_bar=800.0)
    with pytest.raises(ValueError):
        CalibrationInput(p_bar=7.5, d_bar=800.0, beta=0.0)
    with pytest.raises(ValueError):
        CalibrationInput(p_bar=7.5, d_bar=800.0, beta=1.0)
    with pytest.raises(ValueError):
        CalibrationInput(p_bar=7.5, d_bar=800.0, gamma=1.0)
    with pytest.raises(ValueError):
        CalibrationInput(p_bar=7.5, d_bar=800.0, alpha_bar=1.0)


def test_regular_cost():
    assert derive_regular_cost(LONDON) == pytest.approx(3.75)
    hk = CalibrationInput(p_bar=22.0, d_bar=162.0)
    assert derive_regular_cost(hk) == pytest.approx(11.0)
    # perfectly elastic limit: cost approaches the price
    near = CalibrationInput(p_bar=7.5, d_bar=800.0, alpha_bar=1e12)
    assert derive_regular_cost(near) == pytest.approx(7.5, rel=1e-9)


def test_linear_alpha_bar():
    # aggregate linear sensitivity d̄ / (p̄ - r̄) with the iso-derived cost r̄
    assert derive_regular_demand(replace(LONDON, kind="linear")).alpha == pytest.approx(800.0 / 3.75)
    other = CalibrationInput(p_bar=7.0, d_bar=160.0)
    assert derive_regular_demand(replace(other, kind="linear")).alpha == pytest.approx(160.0 / 3.5)


def test_spot_demand_iso():
    d = derive_spot_demand(LONDON)
    assert isinstance(d, IsoElasticDemand)
    assert d.alpha == pytest.approx(2.5)
    assert d.v == pytest.approx(400.0 * 7.5**2.5, rel=1e-12)
    assert d.demand(7.5) == pytest.approx(400.0, rel=1e-9)


def test_spot_demand_iso_low_elasticity_warns():
    inp = CalibrationInput(p_bar=7.5, d_bar=800.0, gamma=1.2, alpha_bar=1.5)  # alpha = 1.8
    with pytest.warns(UserWarning, match="surplus"):
        derive_spot_demand(inp)


def test_spot_demand_linear():
    d = derive_spot_demand(replace(LONDON, kind="linear"))
    assert isinstance(d, LinearDemand)
    alpha_lin = 800.0 / 3.75
    assert d.alpha == pytest.approx(0.5 * 1.25 * alpha_lin)
    assert d.v == pytest.approx(400.0 + d.alpha * 7.5, rel=1e-12)
    assert d.demand(7.5) == pytest.approx(400.0, rel=1e-9)


def test_spot_demand_degenerate_share():
    # gamma -> 1, beta -> 1: spot curve coincides with the aggregate at p_bar
    inp = CalibrationInput(p_bar=7.5, d_bar=800.0, beta=1.0 - 1e-12, gamma=1.0 + 1e-12)
    d = derive_spot_demand(inp)
    agg = derive_regular_demand(inp)
    assert d.demand(7.5) == pytest.approx(agg.demand(7.5), rel=1e-9)


def test_capacity_and_noise():
    c, noise = derive_capacity_and_noise(replace(LONDON, beta=0.2))
    assert c == pytest.approx(0.6 * 800.0)
    c7, _ = derive_capacity_and_noise(replace(LONDON, beta=0.7))
    assert c7 == pytest.approx(1.1 * 800.0)
    _, n5 = derive_capacity_and_noise(LONDON)
    assert n5.mu == pytest.approx(-7.9639)
    assert n5.theta == pytest.approx(87.40785)
    assert n5.a == pytest.approx(n5.mu - 3 * n5.theta)


def test_capacity_rejects_wide_noise():
    bad = CalibrationInput(p_bar=7.5, d_bar=100.0, beta=0.5, theta=200.0)
    with pytest.raises(CalibrationError, match="capacity"):
        derive_capacity_and_noise(bad)


def test_roundtrip_invariants():
    for kind in ("iso", "linear"):
        scen = calibrate(replace(LONDON, kind=kind))
        beta_d = LONDON.beta * LONDON.d_bar
        assert scen.demand.demand(LONDON.p_bar) == pytest.approx(beta_d, rel=1e-9)
        r_bar = scen.market.r_bar
        assert regular_price(scen.regular_demand, r_bar) == pytest.approx(LONDON.p_bar, rel=1e-9)
        assert scen.uncertainty.b < scen.market.capacity
        assert scen.market.r == pytest.approx(0.5 * r_bar)   # typical setting defaults
        assert scen.market.m == pytest.approx(LONDON.p_bar)
        if scen.penalty_assumption_ok and not (
            isinstance(scen.demand, LinearDemand) and scen.market.capacity >= scen.demand.v
        ):
            assert scen.market.m > scen.demand.inverse(scen.market.capacity)


def test_penalty_assumption_flag():
    # a low penalty ratio voids the below-capacity guarantee and is flagged
    with pytest.warns(UserWarning, match="penalty"):
        scen = calibrate(replace(LONDON, beta=0.2, kind="iso", m_ratio=0.5))
    assert not scen.penalty_assumption_ok
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok = calibrate(replace(LONDON, beta=0.2, kind="iso", m_ratio=1.0))
    assert ok.penalty_assumption_ok


def test_region_presets():
    assert REGION_PRICES == {"london": 7.5, "newyork": 7.0, "hongkong": 22.0}
    linx = ixp_input("linx")
    assert linx.p_bar == 7.5
    assert linx.d_bar == pytest.approx(0.9 * 1200.0)
    assert linx.demand_source == "0.9*peak proxy"
    assert ixp_input("hkix").p_bar == 22.0
    assert ixp_input("nyiix").p_bar == 7.0
    explicit = ixp_input("nix", d_bar=200.0)
    assert explicit.d_bar == 200.0 and explicit.demand_source == "explicit"
    assert set(IXP_STATS) == {"linx", "mskix", "nix", "nyiix", "espanix", "hkix"}


def test_calibrate_rejects_bad_ratios():
    with pytest.raises(ValueError):
        calibrate(replace(LONDON, r_ratio=0.0))
    with pytest.raises(ValueError):
        calibrate(replace(LONDON, m_ratio=-1.0))
    with pytest.raises(ValueError):
        derive_spot_demand(replace(LONDON, kind="loglog"))
    # the input itself refuses an unknown family and bad ratios
    with pytest.raises(ValueError, match=r"^unknown demand kind 'loglog' \(expected one of 'iso', 'linear'\)$"):
        CalibrationInput(p_bar=7.5, d_bar=800.0, kind="loglog")
    with pytest.raises(ValueError, match=r"^cost and penalty ratios must be positive and finite, got 0, 1.0$"):
        CalibrationInput(p_bar=7.5, d_bar=800.0, r_ratio=0)
    with pytest.raises(ValueError, match=r"^cost and penalty ratios must be positive and finite, got 0.5, inf$"):
        CalibrationInput(p_bar=7.5, d_bar=800.0, m_ratio=float("inf"))


@pytest.mark.parametrize("inp,kind,field", [
    (replace(LONDON, d_bar=1e308), "iso", "spot demand v"),
    (replace(LONDON, d_bar=1e308, beta=0.2), "linear", "regular demand v"),
    (CalibrationInput(p_bar=1.0, d_bar=1.3e308, beta=0.99), "iso", "spot capacity"),
])
def test_calibrate_refuses_parameters_that_overflow(inp, kind, field):
    # refused before the penalty check, so without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CalibrationError, match=f"calibrated {field} overflows to inf"):
            calibrate(replace(inp, kind=kind))


def test_calibrate_refuses_a_linear_curve_that_misses_its_anchor():
    # v ~ 4.3e302 and alpha p_bar ~ 4.3e302 cancel: d(p_bar) is rounding noise, not 216
    with pytest.raises(ValueError, match=r"^calibrated linear demand gives d\(p_bar\) = 0\.0, "
                       r"not its anchor 216\.0 within 1e-06 relative; v and alpha\*p_bar cancel"):
        calibrate(ixp_input("linx", kind="linear", gamma=1e300, beta=0.2))


def _anchor_miss(inp: CalibrationInput) -> float:
    anchor = inp.beta * inp.d_bar
    return abs(calibrate(inp).demand.demand(inp.p_bar) - anchor) / anchor


def test_bundled_scenarios_meet_their_anchor_far_inside_the_tolerance():
    from spottransit.cli import DEFAULT_BETAS, SWEEP_DEFAULTS, WORST_CASE

    misses = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # penalty-assumption warnings of the m_ratio sweep
        for name in IXP_STATS:
            for kind in ("iso", "linear"):
                for beta in DEFAULT_BETAS:
                    base = ixp_input(name, kind=kind, beta=beta)
                    misses.append(_anchor_miss(replace(base, **WORST_CASE)))
                    for param, values in SWEEP_DEFAULTS.items():
                        for value in values:
                            misses.append(_anchor_miss(replace(base, **{param: value})))
    assert len(misses) == 6 * 2 * 6 * (1 + 9 + 11 + 10 + 6)
    assert max(misses) < 1e-14 < ANCHOR_RTOL
