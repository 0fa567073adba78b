import math

import numpy as np
import pytest

from spottransit.demand import (
    DomainError,
    IsoElasticDemand,
    LinearDemand,
    demand_from_dict,
)

FIG1 = IsoElasticDemand(v=1313.26, alpha=1.6)


def test_reference_curve_values():
    # 100 Gbps at $5/Mbps, rising to ~226.4 Gbps at $3/Mbps
    assert FIG1.demand(5.0) == pytest.approx(100.0, abs=0.1)
    assert FIG1.demand(3.0) == pytest.approx(226.4, abs=0.2)


def test_linear_choke_price():
    d = LinearDemand(v=100, alpha=10)
    assert d.demand(10.0) == 0.0
    with pytest.raises(DomainError):
        d.demand(10.0 + 1e-9)
    with pytest.raises(DomainError):
        d.demand(-0.5)
    with pytest.raises(DomainError):
        d.markup(10.0 + 1e-9)


def test_iso_domain_error():
    with pytest.raises(DomainError):
        FIG1.demand(0.0)
    with pytest.raises(DomainError):
        FIG1.slope(-1.0)
    with pytest.raises(DomainError):
        FIG1.markup(0.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        IsoElasticDemand(v=-1, alpha=2)
    with pytest.raises(ValueError):
        IsoElasticDemand(v=1, alpha=1.0)  # needs alpha > 1
    with pytest.raises(ValueError):
        LinearDemand(v=1, alpha=0.0)


def test_slope_values():
    assert LinearDemand(100, 10).slope(3.7) == -10.0
    assert IsoElasticDemand(1, 2).slope(1.0) == pytest.approx(-2.0)
    # finite-difference oracle on the reference curve
    p, h = 5.0, 5e-5
    fd = (FIG1.demand(p + h) - FIG1.demand(p - h)) / (2 * h)
    assert FIG1.slope(p) == pytest.approx(fd, rel=1e-6)
    assert FIG1.slope(p) == pytest.approx(-32.0, abs=0.1)


def test_slope_matches_finite_difference_everywhere():
    rng = np.random.default_rng(7)
    curves = [FIG1, IsoElasticDemand(50, 3.2), LinearDemand(100, 10), LinearDemand(740, 21.5)]
    for d in curves:
        lo, hi = 0.0, getattr(d, "choke_price", math.inf)
        hi = min(hi, 40.0)
        for p in rng.uniform(lo + 0.5, hi - 0.5, size=20):
            h = 1e-5 * p
            fd = (d.demand(p + h) - d.demand(p - h)) / (2 * h)
            assert d.slope(p) == pytest.approx(fd, rel=1e-6)
            assert d.markup(p) == pytest.approx(d.demand(p) / -d.slope(p), rel=1e-12)


def test_elasticity():
    assert FIG1.elasticity(2.0) == 1.6
    assert FIG1.elasticity(17.3) == 1.6
    lin = LinearDemand(100, 10)
    assert lin.elasticity(5.0) == pytest.approx(1.0)
    assert lin.elasticity(8.0) == pytest.approx(4.0)
    # numeric cross-check of -p d'/d
    assert lin.elasticity(8.0) == pytest.approx(-8.0 * lin.slope(8.0) / lin.demand(8.0))
    with pytest.raises(DomainError):
        lin.elasticity(10.0)  # zero demand


def test_elasticity_nondecreasing_in_price():
    rng = np.random.default_rng(11)
    for d in [FIG1, LinearDemand(100, 10), LinearDemand(2646, 252)]:
        lo, hi = 0.0, getattr(d, "choke_price", math.inf)
        hi = min(hi * 0.999, 30.0)
        ps = np.sort(rng.uniform(lo + 0.1, hi, size=50))
        sig = [d.elasticity(p) for p in ps]
        assert all(b >= a - 1e-12 for a, b in zip(sig, sig[1:]))


def test_inverse():
    assert FIG1.inverse(100.0) == pytest.approx(5.0, abs=0.01)
    assert LinearDemand(100, 10).inverse(100.0) == 0.0
    assert IsoElasticDemand(1, 2).inverse(4.0) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        LinearDemand(100, 10).inverse(100.1)  # beyond base demand
    with pytest.raises(DomainError):
        FIG1.inverse(0.0)


def test_capacity_price():
    # lowest price at which demand fits: the inverse, or 0 when demand never reaches C
    assert FIG1.capacity_price(100.0) == pytest.approx(FIG1.inverse(100.0))
    assert LinearDemand(100, 10).capacity_price(40.0) == pytest.approx(6.0)
    assert LinearDemand(100, 10).capacity_price(100.0) == 0.0
    assert LinearDemand(100, 10).capacity_price(150.0) == 0.0


def test_inverse_by_bisection_oracle():
    d = IsoElasticDemand(1, 2)
    target = 4.0
    lo, hi = 1e-6, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if d.demand(mid) > target:
            lo = mid
        else:
            hi = mid
    assert d.inverse(target) == pytest.approx(0.5 * (lo + hi), rel=1e-9)


def test_inverse_roundtrip():
    rng = np.random.default_rng(3)
    for d in [FIG1, IsoElasticDemand(61618.8, 2.5), LinearDemand(756, 72)]:
        lo, hi = 0.0, getattr(d, "choke_price", math.inf)
        hi = min(hi, 30.0)
        for p in rng.uniform(lo + 0.2, hi - 0.2, size=25):
            assert d.inverse(d.demand(p)) == pytest.approx(p, rel=1e-9)


def test_monotone_decreasing_and_convex():
    rng = np.random.default_rng(5)
    for d in [FIG1, IsoElasticDemand(400, 2.2), LinearDemand(100, 10)]:
        lo, hi = 0.0, getattr(d, "choke_price", math.inf)
        hi = min(hi, 25.0)
        ps = np.sort(rng.uniform(lo + 0.1, hi, size=60))
        vals = np.array([d.demand(p) for p in ps])
        assert np.all(np.diff(vals) < 0)
        # convexity: value at the midpoint below the chord
        for p1, p2, p3 in zip(ps, ps[1:], ps[2:]):
            chord = vals[ps == p1] + (vals[ps == p3] - vals[ps == p1]) * (p2 - p1) / (p3 - p1)
            assert d.demand(p2) <= chord + 1e-9


def test_array_evaluation_matches_scalar():
    ps = np.array([2.0, 5.0, 9.0])
    np.testing.assert_allclose(FIG1.demand(ps), [FIG1.demand(p) for p in ps])
    np.testing.assert_allclose(FIG1.slope(ps), [FIG1.slope(p) for p in ps])
    for d in (FIG1, LinearDemand(100, 10)):
        assert d.markup(ps).tolist() == [d.markup(p) for p in ps]


def test_json_roundtrip():
    for d in [FIG1, LinearDemand(100, 10)]:
        assert demand_from_dict(d.to_dict()) == d
    assert demand_from_dict({"kind": "iso", "v": 2, "alpha": 3}) == IsoElasticDemand(2, 3)
    with pytest.raises(ValueError):
        demand_from_dict({"kind": "loglog", "v": 1, "alpha": 2})
