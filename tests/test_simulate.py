import numpy as np
import pytest

from spottransit.mdp import MdpSpec, Policy, RateModel, average_revenue, policy_iteration, steady_state
from spottransit.simulate import SimConfig, SimResult, compare_to_analytic, simulate_policy

LAMBDA = [24.0, 0.0, -1.5]


def make_spec(delta, capacity, n_prices=1000):
    rates = RateModel.from_polynomials(LAMBDA, delta, 4.0)
    return MdpSpec(capacity=capacity, price_grid=np.linspace(0.0, 4.0, n_prices), rates=rates)


K1_SPEC = make_spec([0.0, 0.3], 1)
K1_POLICY = Policy([0.0, 4.0])  # analytic revenue 80/21


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(K1_SPEC, K1_POLICY, horizon=10.0, seed=1, warmup=10.0)
    with pytest.raises(ValueError):
        SimConfig(K1_SPEC, K1_POLICY, horizon=10.0, seed=1, start_state=5)
    cfg = SimConfig(K1_SPEC, K1_POLICY, horizon=100.0, seed=1)
    assert cfg.warmup == pytest.approx(5.0)  # default 5% of horizon


def test_reproducibility():
    cfg = SimConfig(K1_SPEC, K1_POLICY, horizon=500.0, seed=20240817)
    a, b = simulate_policy(cfg), simulate_policy(cfg)
    assert a.revenue_rate_estimate == b.revenue_rate_estimate
    assert a.transitions == b.transitions
    np.testing.assert_array_equal(a.occupancy, b.occupancy)
    c = simulate_policy(SimConfig(K1_SPEC, K1_POLICY, horizon=500.0, seed=7))
    assert c.revenue_rate_estimate != a.revenue_rate_estimate


def test_k1_within_three_stderr():
    cfg = SimConfig(K1_SPEC, K1_POLICY, horizon=20_000.0, seed=5)
    res = simulate_policy(cfg)
    j = 80.0 / 21.0
    assert abs(res.revenue_rate_estimate - j) <= 3.0 * res.revenue_rate_stderr
    assert res.occupancy.sum() == pytest.approx(1.0, abs=1e-12)
    rep = compare_to_analytic(res, K1_SPEC, K1_POLICY)
    assert rep.passed
    assert abs(rep.revenue_z) <= 3.0
    assert rep.tv_distance <= 0.02


def test_no_demand_stuck_at_empty():
    spec = MdpSpec(3, np.linspace(0, 4, 50), RateModel.from_polynomials([0.0], [0.0, 0.3], 4.0))
    pol = Policy([0.0, 4.0, 4.0, 4.0])
    res = simulate_policy(SimConfig(spec, pol, horizon=100.0, seed=3))
    assert res.revenue_rate_estimate == 0.0
    assert res.occupancy[0] == pytest.approx(1.0)
    assert res.stuck_state == 0
    assert res.transitions == 0


def test_identical_analytic_inputs_zero_z():
    # a result fabricated from the analytic values scores exactly zero
    pi = steady_state(K1_SPEC, K1_POLICY)
    j = average_revenue(K1_SPEC, K1_POLICY)
    fake = SimResult(
        revenue_rate_estimate=j,
        revenue_rate_stderr=0.1,
        occupancy=pi.copy(),
        occupancy_stderr=np.full_like(pi, 0.01),
        transitions=1000,
    )
    rep = compare_to_analytic(fake, K1_SPEC, K1_POLICY)
    assert rep.revenue_z == 0.0
    assert np.all(rep.occupancy_z == 0.0)
    assert rep.tv_distance == 0.0
    assert rep.passed


def test_wrong_policy_fails_comparison():
    spec = make_spec([0.0, 0.3], 1)
    res = simulate_policy(SimConfig(spec, K1_POLICY, horizon=20_000.0, seed=11))
    g = spec.price_grid
    other = Policy([g[500], 4.0])  # different state-0 price: different chain
    rep = compare_to_analytic(res, spec, other)
    assert not rep.passed


def test_stderr_shrinks_with_horizon():
    short = simulate_policy(SimConfig(K1_SPEC, K1_POLICY, horizon=20_000.0, seed=13))
    long = simulate_policy(SimConfig(K1_SPEC, K1_POLICY, horizon=40_000.0, seed=13))
    ratio = long.revenue_rate_stderr / short.revenue_rate_stderr
    # doubling the horizon should shrink stderr by ~1/sqrt(2), within noise
    assert 0.7 / np.sqrt(2.0) <= ratio <= 1.3 / np.sqrt(2.0)


def test_table_instance_cross_validation():
    spec = make_spec([0.0, 0.3], 100)
    sol = policy_iteration(spec)
    res = simulate_policy(SimConfig(spec, sol.policy, horizon=100_000.0, seed=99))
    rep = compare_to_analytic(res, spec, sol.policy)
    assert rep.passed, (rep.revenue_z, rep.tv_distance)
    assert abs(res.revenue_rate_estimate - sol.j_star) <= 3.0 * res.revenue_rate_stderr


def test_result_serialization():
    res = simulate_policy(SimConfig(K1_SPEC, K1_POLICY, horizon=200.0, seed=2))
    d = res.to_dict()
    assert d["transitions"] == res.transitions
    assert len(d["occupancy"]) == 2
