import tracemalloc

import numpy as np
import pytest

from spottransit.mdp import (
    DpSolution,
    MdpSpec,
    Policy,
    RateModel,
    _evaluate_policy,
    average_revenue,
    bellman_backup,
    policy_iteration,
    policy_rates,
    relative_value_iteration,
    steady_state,
    uniformization_rate,
    verify_structure,
)

# reference rate family: arrivals 24 - 1.5 p^2 on [0, 4] (null price 4)
LAMBDA = [24.0, 0.0, -1.5]


def make_spec(delta_coeffs, capacity=100, n_prices=1000, lam=LAMBDA, p_max=4.0):
    rates = RateModel.from_polynomials(lam, delta_coeffs, p_max)
    return MdpSpec(capacity=capacity, price_grid=np.linspace(0.0, p_max, n_prices), rates=rates)


K1_SPEC = make_spec([0.0, 0.3], capacity=1)  # delta = 0.3p
K1_POLICY = Policy([0.0, 4.0])               # lambda(0) = 24, delta(4) = 1.2


def test_rate_model_clamps_arrivals():
    rates = RateModel.from_polynomials(LAMBDA, [0.0, 0.3], 4.0)
    assert rates.arrival_rate(4.0) == 0.0
    assert rates.arrival_rate(10.0) == 0.0  # clamped, polynomial is negative there
    assert rates.arrival_rate(0.0) == 24.0
    assert rates.departure_rate(2.0) == pytest.approx(0.6)
    np.testing.assert_array_equal(rates.arrival_rate(np.array([0.0, 4.0, 10.0])), [24.0, 0.0, 0.0])
    np.testing.assert_allclose(rates.departure_rate(np.array([0.0, 2.0])), [0.0, 0.6])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the polynomial
def test_spec_validation():
    with pytest.raises(ValueError, match="null price"):
        MdpSpec(100, np.linspace(0, 4, 100), RateModel.from_polynomials([24.0], [0.0, 0.3], 4.0))
    with pytest.raises(ValueError, match="non-increasing"):
        MdpSpec(100, np.linspace(0, 4, 100),
                RateModel.from_polynomials([0.0, 4.0, -1.0], [0.0, 0.3], 4.0))
    with pytest.raises(ValueError, match="capacity"):
        make_spec([0.0, 0.3], capacity=0)
    with pytest.raises(ValueError, match="span"):
        MdpSpec(10, np.linspace(1.0, 4.0, 50), RateModel.from_polynomials(LAMBDA, [0, 0.3], 4.0))
    # NaN fails every comparison, so non-finite values need their own checks
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        MdpSpec(10, [0.0, np.nan, 4.0], RateModel.from_polynomials(LAMBDA, [0, 0.3], 4.0))
    with pytest.raises(ValueError, match="span"):
        MdpSpec(10, np.linspace(0, 4, 50), RateModel.from_polynomials(LAMBDA, [0, 0.3], np.nan))
    with pytest.raises(ValueError, match="finite"):
        MdpSpec(10, np.linspace(0, 4, 50), RateModel.from_polynomials(LAMBDA, [0, np.inf], 4.0))
    with pytest.raises(ValueError, match="finite"):
        MdpSpec(10, np.linspace(0, 4, 50), RateModel.from_polynomials([24, np.nan], [0, 0.3], 4.0))


def test_uniformization_rate():
    # grid maximization oracle: brute max of lambda + delta over the grid
    spec = make_spec([0.0, 0.3])
    oracle = max(
        spec.rates.arrival_rate(p) + spec.rates.departure_rate(p) for p in spec.price_grid
    )
    assert uniformization_rate(spec) == pytest.approx(oracle, rel=1e-12)
    # 24 - 1.5p^2 + 0.3p peaks near p = 0.1, just above 24
    assert uniformization_rate(spec) == pytest.approx(24.015, abs=1e-3)

    # endpoint-dominated family: delta = 3p^2 gives 48 at the null price
    spec2 = make_spec([0.0, 0.0, 3.0])
    assert uniformization_rate(spec2) == pytest.approx(48.0, rel=1e-12)

    # constant rates (arrivals identically zero to honor the null price): a + b
    spec3 = MdpSpec(5, np.linspace(0, 4, 50),
                    RateModel.from_polynomials([0.0], [1.7], 4.0))
    assert uniformization_rate(spec3) == pytest.approx(1.7)


def test_steady_state_k1_hand_value():
    pi = steady_state(K1_SPEC, K1_POLICY)
    np.testing.assert_allclose(pi, [1.0 / 21.0, 20.0 / 21.0], rtol=1e-12)


def test_steady_state_no_arrivals_pins_empty_state():
    spec = MdpSpec(5, np.linspace(0, 4, 50), RateModel.from_polynomials([0.0], [0.0, 0.3], 4.0))
    pi = steady_state(spec, Policy([4.0] * 6))
    assert pi[0] == pytest.approx(1.0)


def test_steady_state_normalization_and_balance():
    rng = np.random.default_rng(61)
    spec = make_spec([0.0, 0.3], capacity=40, n_prices=200)
    for _ in range(5):
        prices = spec.price_grid[rng.integers(1, 199, size=41)]
        prices[-1] = 4.0
        pol = Policy(prices)
        pi = steady_state(spec, pol)
        assert abs(pi.sum() - 1.0) <= 1e-12
        lam, dlt = policy_rates(spec, pol)
        flows_up = pi[:-1] * lam[:-1]
        flows_dn = pi[1:] * dlt[1:]
        scale = max(1.0, flows_up.max())
        assert np.max(np.abs(flows_up - flows_dn)) <= 1e-12 * scale


def test_average_revenue_k1():
    assert average_revenue(K1_SPEC, K1_POLICY) == pytest.approx(80.0 / 21.0, rel=1e-12)
    spec0 = MdpSpec(3, np.linspace(0, 4, 50), RateModel.from_polynomials([0.0], [0.0, 0.3], 4.0))
    assert average_revenue(spec0, Policy([4.0] * 4)) == 0.0


def test_bellman_backup_boundaries_and_formula():
    spec = make_spec([0.0, 0.3], capacity=10, n_prices=100)
    u = uniformization_rate(spec)
    rng = np.random.default_rng(67)
    h = np.sort(rng.uniform(-50.0, 0.0, size=11))

    # state 0: no reward, no departure flow
    p = spec.price_grid[30]
    lam = spec.rates.arrival_rate(p)
    expect0 = (lam / u) * h[1] + (1 - lam / u) * h[0]
    assert bellman_backup(spec, 0, h, p) == pytest.approx(expect0, rel=1e-12)

    # full state at the null price: arrival term vanishes
    dlt = spec.rates.departure_rate(4.0)
    expect_k = 10 * 4.0 + (dlt / u) * h[9] + (1 - dlt / u) * h[10]
    assert bellman_backup(spec, 10, h, 4.0) == pytest.approx(expect_k, rel=1e-12)

    # interior state: direct transcription of the optimality equation's right side
    n, p = 4, spec.price_grid[55]
    lam, dlt = spec.rates.arrival_rate(p), spec.rates.departure_rate(p)
    expect = n * p + lam / u * h[n + 1] + dlt / u * h[n - 1] + (1 - lam / u - dlt / u) * h[n]
    assert bellman_backup(spec, n, h, p) == pytest.approx(expect, rel=1e-12)

    with pytest.raises(IndexError):
        bellman_backup(spec, 11, h, p)


def test_self_loop_probabilities_valid():
    spec = make_spec([0.0, 0.0, 3.0], capacity=30, n_prices=300)
    u = uniformization_rate(spec)
    stay = 1.0 - (spec.lam_grid + spec.dlt_grid) / u
    assert np.all(stay >= -1e-12) and np.all(stay <= 1.0)


TABLE = [
    ([0.0, 0.3], 388.7904),
    ([0.0, 0.0, 0.3], 360.8636),
    ([0.0, 0.0, 0.0, 0.3], 304.0449),
    ([0.0, 0.0, 1.5], 272.7983),
    ([0.0, 0.0, 3.0], 219.8632),
]


@pytest.mark.parametrize("delta,j_ref", TABLE[:2])
def test_policy_iteration_reference_values(delta, j_ref):
    sol = policy_iteration(make_spec(delta))
    assert sol.j_star == pytest.approx(j_ref, rel=0.01)
    assert sol.policy.prices[0] == 0.0          # free at empty
    assert sol.policy.prices[-1] == 4.0         # null price at full


def test_policy_iteration_matches_product_form_revenue():
    for delta in ([0.0, 0.3], [0.0, 0.0, 1.5]):
        spec = make_spec(delta)
        sol = policy_iteration(spec)
        j_chain = average_revenue(spec, sol.policy)
        assert sol.j_star == pytest.approx(j_chain, rel=1e-6)


def test_policy_iteration_no_demand():
    spec = MdpSpec(5, np.linspace(0, 4, 50), RateModel.from_polynomials([0.0], [0.0, 0.3], 4.0))
    sol = policy_iteration(spec)
    assert sol.j_star == 0.0
    assert np.all(sol.h == 0.0)
    assert np.all(sol.policy.prices[:-1] == 0.0)  # lowest-price tie-break
    assert sol.policy.prices[-1] == 4.0


def test_rvi_agrees_with_policy_iteration_k20():
    for delta, lam, p_max in [([0.0, 0.3], [6.0, 0.0, -1.5], 2.0),
                              ([0.0, 0.0, 0.6], [6.0, 0.0, -1.5], 2.0)]:
        rates = RateModel.from_polynomials(lam, delta, p_max)
        spec = MdpSpec(20, np.linspace(0, p_max, 200), rates)
        a = policy_iteration(spec)
        b = relative_value_iteration(spec)
        assert abs(a.j_star - b.j_star) <= 1e-6
        np.testing.assert_array_equal(a.policy.prices, b.policy.prices)


def test_rvi_reference_value():
    sol = relative_value_iteration(make_spec([0.0, 0.0, 1.5]), tol=1e-7)
    assert sol.j_star == pytest.approx(272.7983, rel=0.01)


def test_rvi_k1_hand_value():
    sol = relative_value_iteration(K1_SPEC)
    assert sol.j_star == pytest.approx(80.0 / 21.0, rel=1e-6)
    np.testing.assert_allclose(sol.policy.prices, [0.0, 4.0])


def test_structure_checks_pass_on_reference_instance():
    sol = policy_iteration(make_spec([0.0, 0.3]))
    rep = verify_structure(sol)
    assert rep.all_hold() and rep.violations == []


def test_structure_negative_control():
    sol = policy_iteration(make_spec([0.0, 0.3], capacity=20, n_prices=200))
    h = sol.h.copy()
    h[7] = h[8] + 1.0  # inject a monotonicity inversion
    broken = DpSolution(sol.j_star, h, sol.policy, sol.iterations)
    rep = verify_structure(broken)
    assert not rep.h_monotone
    assert ("h_monotone", 7) in rep.violations


def test_solvers_raise_instead_of_returning_unconverged():
    # a returned solution is always converged: running out of iterations raises
    spec = make_spec([0.0, 0.3])
    with pytest.raises(RuntimeError, match="policy iteration"):
        policy_iteration(spec, max_iter=1)
    with pytest.raises(RuntimeError, match="relative value iteration"):
        relative_value_iteration(spec, max_iter=5)


def test_higher_departure_dynamics_weakly_lower_revenue():
    js = [policy_iteration(make_spec([0.0, 0.0, c])).j_star for c in (0.3, 1.5, 3.0)]
    assert js[0] >= js[1] >= js[2]


def test_policy_validation():
    spec = make_spec([0.0, 0.3], capacity=5, n_prices=100)
    g = spec.price_grid
    with pytest.raises(ValueError, match="null price"):
        steady_state(spec, Policy([g[0], g[10], g[10], g[10], g[10], g[50]]))
    with pytest.raises(ValueError, match="prices"):
        steady_state(spec, Policy([0.0, 4.0]))
    with pytest.raises(ValueError, match="grid"):
        steady_state(spec, Policy([0.017, g[10], g[10], g[10], g[10], 4.0]))
    with pytest.raises(ValueError, match="grid"):
        steady_state(spec, Policy([g[0], np.nan, g[10], g[10], g[10], 4.0]))
    # a price within the 1e-9 tolerance of a grid point maps to it
    lam, _ = policy_rates(spec, Policy([g[0], g[10] + 1e-12, g[11] - 1e-12, g[99], g[99], 4.0]))
    np.testing.assert_array_equal(lam, spec.lam_grid[[0, 10, 11, 99, 99, 99]])


def test_solution_serialization():
    sol = policy_iteration(make_spec([0.0, 0.3], capacity=10, n_prices=100))
    d = sol.to_dict()
    assert d["iterations"] == sol.iterations and len(d["h"]) == 11 and len(d["policy"]) == 11
    rows = list(sol.csv_rows())
    assert rows[0][0] == 0 and rows[-1][0] == 10
    assert rows[-1][1] == 4.0


def test_from_config():
    spec = MdpSpec.from_config(
        {"capacity": 10, "arrival": LAMBDA, "departure": [0.0, 0.3], "p_max": 4.0,
         "price_points": 128}
    )
    assert spec.capacity == 10 and len(spec.price_grid) == 128
    assert spec.rates.arrival_rate(0.0) == 24.0


def test_from_config_bounds_problem_size():
    cfg = {"capacity": 19, "arrival": LAMBDA, "departure": [0.0, 0.3], "p_max": 4.0}
    assert len(MdpSpec.from_config({**cfg, "price_points": 10**6}).price_grid) == 10**6  # 2e7 cells
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"capacity 19 and price_points 1000001"):
            MdpSpec.from_config({**cfg, "price_points": 10**6 + 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16  # refused before the grid is built


def _dense_evaluation(spec, idx, u):
    """Reference (J, h): dense solve of the bordered system in h_0..h_K and J,
    K+1 balance equations plus the normalization h_K = 0."""
    K = spec.capacity
    lam, dlt = spec.lam_grid[idx] / u, spec.dlt_grid[idx] / u
    lam[K], dlt[0] = 0.0, 0.0
    a = np.zeros((K + 2, K + 2))
    a[: K + 1, : K + 1] = np.diag(lam + dlt) - np.diag(lam[:-1], 1) - np.diag(dlt[1:], -1)
    a[: K + 1, K + 1] = 1.0
    a[K + 1, K] = 1.0
    b = np.append(np.arange(K + 1) * spec.price_grid[idx], 0.0)
    x = np.linalg.solve(a, b)
    return x[K + 1], x[: K + 1]


def _assert_matches_dense(spec, idx):
    u = uniformization_rate(spec)
    j, h = _evaluate_policy(spec, idx, u)
    j_ref, h_ref = _dense_evaluation(spec, idx, u)
    assert h[-1] == 0.0
    assert j == pytest.approx(j_ref, rel=1e-10, abs=1e-10)
    np.testing.assert_allclose(h, h_ref, rtol=1e-10, atol=1e-10 * np.abs(h_ref).max())
    return j


def test_policy_evaluation_matches_dense_reference():
    j = _assert_matches_dense(K1_SPEC, np.array([0, 999]))
    assert j == pytest.approx(80.0 / 21.0, rel=1e-12)

    spec = make_spec([0.0, 0.3], capacity=40, n_prices=200)
    null = len(spec.price_grid) - 1
    j = _assert_matches_dense(spec, np.full(41, null))  # the PI start policy
    assert j == 0.0

    # ceiling: arrivals shut off from state 25 on, so pi_K = 0
    rng = np.random.default_rng(71)
    idx = np.append(np.sort(rng.integers(0, null, size=25)), np.full(16, null))
    j = _assert_matches_dense(spec, idx)
    assert j == pytest.approx(average_revenue(spec, Policy(spec.price_grid[idx])), rel=1e-12)

    compared = 0
    for _ in range(40):
        idx = np.append(np.sort(rng.integers(0, null, size=40)), null)
        if np.abs(_dense_evaluation(spec, idx, uniformization_rate(spec))[1]).max() > 1e12:
            continue  # both solvers hit rounding there; the difference is noise
        _assert_matches_dense(spec, idx)
        compared += 1
    assert compared >= 20


def test_policy_evaluation_rejects_two_closed_classes():
    # null price at state 10 traps the chain below it; price 0 (no departures)
    # at state 20 closes states 20..K off above it
    spec = make_spec([0.0, 0.3], capacity=40, n_prices=200)
    idx = np.full(41, 100)
    idx[10], idx[20], idx[40] = 199, 0, 199
    with pytest.raises(RuntimeError, match="closed classes"):
        _evaluate_policy(spec, idx, uniformization_rate(spec))


def test_policy_iteration_scales_to_large_capacity():
    # a K-state policy embeds in the (K+1)-state chain by posting the null
    # price at state K, so the optimal revenue cannot fall as K grows
    js = []
    for k in (1000, 3000, 10000):
        spec = make_spec([0.0, 0.3], capacity=k, n_prices=200)
        sol = policy_iteration(spec)
        assert sol.j_star == pytest.approx(average_revenue(spec, sol.policy), rel=1e-9)
        js.append(sol.j_star)
    assert js[0] <= js[1] <= js[2]
