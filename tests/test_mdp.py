import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spottransit import mdp
from spottransit.mdp import (
    DpSolution,
    MdpSpec,
    Policy,
    RateModel,
    _evaluate_policy,
    _greedy,
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
NO_DEMAND_SPEC = MdpSpec(5, np.linspace(0, 4, 50), RateModel.from_polynomials([0.0], [0.0, 0.3], 4.0))


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
    with pytest.raises(ValueError, match="departure rate must be non-decreasing"):
        make_spec([1.0, -0.1])
    with pytest.raises(ValueError, match="departure rate must be positive at positive prices"):
        make_spec([0.0])
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
    pi = steady_state(NO_DEMAND_SPEC, Policy([4.0] * 6))
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


@pytest.mark.parametrize("x", [
    [0.0], [0.0, -np.inf], [0.0, -np.inf, -1.0, -745.0, -np.inf], [0.0, 700.0, 699.5, -np.inf],
    [0.0, -1e-300, 1e-300], list(-np.abs(np.random.default_rng(5).normal(0, 30, 200))),
])
def test_logsumexp_matches_scipy(x):
    from scipy.special import logsumexp

    x = np.array(x)
    assert mdp._logsumexp(x) == pytest.approx(logsumexp(x), rel=1e-15, abs=1e-15)


def test_steady_state_matches_scipy_logsumexp_on_a_ceiling_policy():
    from scipy.special import logsumexp

    spec = make_spec([0.0, 0.3], capacity=40, n_prices=200)
    null = len(spec.price_grid) - 1
    rng = np.random.default_rng(71)
    # arrivals shut off from state 25 on, so the product form stops there
    pol = Policy(spec.price_grid[np.append(np.sort(rng.integers(0, null, size=25)),
                                           np.full(16, null))])
    lam, dlt = policy_rates(spec, pol)
    log_w = np.concatenate([[0.0], np.cumsum(np.log(lam[:25]) - np.log(dlt[1:26]))])
    ref = np.zeros(41)
    ref[:26] = np.exp(log_w - logsumexp(log_w))
    ref /= ref.sum()
    pi = steady_state(spec, pol)
    assert np.all(pi[26:] == 0.0) and pi[25] > 0.0
    np.testing.assert_allclose(pi, ref, rtol=1e-14, atol=0)


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
    sol = policy_iteration(NO_DEMAND_SPEC)
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


def reference_relative_value_iteration(spec, tol=1e-9, max_iter=200_000):
    """Relative value iteration with a full greedy step in every damped sweep."""
    if not np.any(spec.lam_grid > 0):
        return mdp._no_demand_solution(spec)
    K = spec.capacity
    h = np.zeros(K + 1)
    for it in range(1, max_iter + 1):
        _, w = mdp._greedy(spec, h)
        diff = w - h
        lo, hi = float(diff.min()), float(diff.max())
        j = 0.5 * (lo + hi)
        if hi - lo <= tol * max(1.0, abs(j)):
            h = w - w[K]
            break
        h = (1.0 - mdp._DAMPING) * h + mdp._DAMPING * (w - w[K])  # keep h_K = 0
    else:
        raise RuntimeError(f"relative value iteration did not reach span {tol} in {max_iter} sweeps")
    idx, _ = mdp._greedy(spec, h)
    return DpSolution(j_star=j, h=h, policy=Policy(spec.price_grid[idx]), iterations=it)


def clamped_arrival_spec():
    """Arrivals 12 - 3p vanish from p = 4 on a non-uniform grid over [0, 8]."""
    rates = RateModel.from_polynomials([12.0, -3.0], [0.0, 0.0, 0.3], 8.0)
    grid = np.sort(np.r_[0.0, 8.0, np.random.default_rng(5).uniform(0.0, 8.0, 300)])
    return MdpSpec(10, grid, rates)


@pytest.mark.parametrize("spec", [
    *(make_spec(delta, capacity=k) for k in (10, 100) for delta, _ in TABLE),
    K1_SPEC, clamped_arrival_spec(), NO_DEMAND_SPEC,
], ids=[*(f"K{k}-{i}" for k in (10, 100) for i in range(len(TABLE))), "K1", "ceiling", "no-demand"])
def test_rvi_matches_reference_rvi(spec):
    tol = 1e-9
    sol = relative_value_iteration(spec, tol=tol)
    ref = reference_relative_value_iteration(spec, tol=tol)
    np.testing.assert_array_equal(sol.policy.prices, ref.policy.prices)
    assert abs(sol.j_star - ref.j_star) <= tol * max(1.0, abs(ref.j_star))
    assert sol.h[-1] == 0.0
    assert sol.iterations <= ref.iterations


def reference_sweeps(spec, idx, h, u):
    """RVI's damped fixed-policy sweeps as they ran before they went in place:
    each sweep gathers h's neighbours, backs up and builds a new h."""
    K = spec.capacity
    states = np.arange(K + 1)
    lam, dlt = mdp._chain_rates(spec, idx)
    prices, lam_u, dlt_u = spec.price_grid[idx], lam / u, dlt / u
    for _ in range(mdp._INNER_SWEEPS):
        h_n = h[states]
        up = h[np.minimum(states + 1, K)] - h_n
        dn = h[np.maximum(states - 1, 0)] - h_n
        w = states * prices
        w += h_n
        w += up * lam_u
        w += dn * dlt_u
        h = (1.0 - mdp._DAMPING) * h + mdp._DAMPING * (w - w[K])
    return h


_in_place_sweeps = mdp._sweep_policy  # kept for the test that wraps mdp._sweep_policy


def _assert_sweeps_match(spec, idx, h):
    ref = reference_sweeps(spec, idx, h.copy(), uniformization_rate(spec))
    _in_place_sweeps(spec, idx, h)
    assert h.tobytes() == ref.tobytes()  # bit for bit, signed zeros included


SWEEP_SPECS = [*(make_spec(delta, capacity=k) for k in (1, 10, 100) for delta, _ in TABLE),
               clamped_arrival_spec()]


@pytest.mark.parametrize("spec", SWEEP_SPECS, ids=[
    *(f"K{k}-{i}" for k in (1, 10, 100) for i in range(len(TABLE))), "ceiling"])
def test_in_place_sweeps_equal_the_reference_sweeps(monkeypatch, spec):
    calls = []

    def checked(*args):
        calls.append(1)
        _assert_sweeps_match(*args)

    monkeypatch.setattr(mdp, "_sweep_policy", checked)
    relative_value_iteration(spec)  # every sweep block of a solve, on its own h and policies
    assert calls

    rng = np.random.default_rng(spec.capacity)
    g = len(spec.price_grid)
    for scale in (1.0, 1e4, 1e8):
        idx = np.append(rng.integers(0, g, spec.capacity), g - 1)
        _assert_sweeps_match(spec, idx, rng.uniform(-scale, scale, spec.capacity + 1))
    # a ceiling below K, and h with equal neighbours
    idx = np.full(spec.capacity + 1, g - 1)
    idx[: spec.capacity // 2] = g // 3
    _assert_sweeps_match(spec, idx, np.round(rng.uniform(-3.0, 3.0, spec.capacity + 1)))


def test_structure_checks_pass_on_reference_instance():
    sol = policy_iteration(make_spec([0.0, 0.3]))
    rep = verify_structure(sol)
    assert rep.all_hold() and rep.violations == [] and rep.worst_violation == 0.0


def test_structure_negative_control():
    sol = policy_iteration(make_spec([0.0, 0.3], capacity=20, n_prices=200))
    h = sol.h.copy()
    h[7] = h[8] + 1.0  # inject a monotonicity inversion
    broken = DpSolution(sol.j_star, h, sol.policy, sol.iterations)
    rep = verify_structure(broken)
    assert not rep.h_monotone
    assert ("h_monotone", 7) in rep.violations
    assert rep.worst_violation >= 1.0 / max(1.0, np.abs(h).max())  # h_8 - h_7 = -1


def test_structure_flags_at_large_capacity_are_rounding_noise():
    # ulp-level second differences at |h| ~ 3e7 trip the absolute 1e-9 slack;
    # their size relative to max|h| shows them as noise
    sol = policy_iteration(make_spec([0.0, 0.3], capacity=3000))
    rep = verify_structure(sol)
    assert {kind for kind, _ in rep.violations} <= {"h_concave"}
    assert rep.worst_violation < 1e-14


def test_solvers_raise_instead_of_returning_unconverged():
    # a returned solution is always converged: running out of iterations raises
    spec = make_spec([0.0, 0.3])
    with pytest.raises(RuntimeError, match="policy iteration"):
        policy_iteration(spec, max_iter=1)
    with pytest.raises(RuntimeError, match="relative value iteration"):
        relative_value_iteration(spec, max_iter=5)


def test_policy_iteration_accepts_a_residual_within_the_rounding_floor(monkeypatch):
    # a stiff departure 0.3p + p^2 + 1e6 p^3: the stable policy's h reaches 1.3e8, so its
    # Bellman residual 1.49e-8 (one ulp of max|h|) is above tol 1e-9 but within the floor
    spec = MdpSpec.from_config({"capacity": 50, "arrival": [24, 0, -1.5],
                                "departure": [0, 0.3, 1, 1e6], "p_max": 4})
    sol = policy_iteration(spec, tol=1e-9)
    loose = policy_iteration(spec, tol=1e-6)
    assert sol.iterations == loose.iterations == 14 and sol.j_star == loose.j_star
    np.testing.assert_array_equal(sol.policy.prices, loose.policy.prices)
    residual = float(np.max(np.abs(sol.j_star + sol.h - mdp._greedy(spec, sol.h)[1])))
    max_h = float(np.max(np.abs(sol.h)))
    assert residual == 1.4901161193847656e-08 and max_h == pytest.approx(1.291e8, rel=1e-3)
    assert 1e-9 * max(1.0, sol.j_star) < residual <= mdp._FLOOR_ULPS * np.finfo(float).eps * max_h
    # without the floor the same residual is refused, naming the bound and the floor
    monkeypatch.setattr(mdp, "_FLOOR_ULPS", 0)
    with pytest.raises(RuntimeError, match=r"Bellman residual 1\.490e-08 above tolerance "
                                           r"1\.273e-09 plus rounding floor 0\.000e\+00$"):
        policy_iteration(spec, tol=1e-9)


@pytest.mark.filterwarnings("error")  # the rate bound overflows; no warning may escape
def test_policy_iteration_solves_values_at_p_max_scale():
    # h reaches p_max = 1e200 while J = 1/0.3: rounding at h's scale is the residual
    spec = MdpSpec.from_config({"capacity": 1, "arrival": [1.0, 0.0, -4.0],
                                "departure": [0.0, 0.3], "p_max": 1e200, "price_points": 2})
    sol = policy_iteration(spec)
    assert sol.j_star == pytest.approx(1 / 0.3, rel=1e-12)
    assert sol.policy.prices.tolist() == [0.0, 1e200] and sol.h.tolist() == [-1e200, 0.0]


@pytest.mark.filterwarnings("error")  # no numpy warning on the way to the error
def test_policy_iteration_names_an_overflow():
    # K p_max = 1e308 is finite, but the null-price policy's h sums past the float range
    spec = MdpSpec.from_config({"capacity": 10, "arrival": [24, -24], "departure": [0, 0.3],
                                "p_max": 1e307, "price_points": 24})
    with pytest.raises(RuntimeError, match="^policy evaluation overflowed: the model's values "
                                           "exceed the float range$"):
        policy_iteration(spec)


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
    assert d["policy"] == sol.policy.prices.tolist() and d["h"] == sol.h.tolist()
    assert d["policy"][-1] == 4.0 and d["h"][-1] == 0.0


def test_from_config():
    spec = MdpSpec.from_config(
        {"capacity": 10, "arrival": LAMBDA, "departure": [0.0, 0.3], "p_max": 4.0,
         "price_points": 128}
    )
    assert spec.capacity == 10 and len(spec.price_grid) == 128
    assert spec.rates.arrival_rate(0.0) == 24.0


def test_from_config_bounds_problem_size():
    # one bound per axis: the greedy step holds (K+1) x (a few) candidates and O(G) grids
    cfg = {"capacity": 19, "arrival": LAMBDA, "departure": [0.0, 0.3], "p_max": 4.0}
    assert len(MdpSpec.from_config({**cfg, "price_points": 10**6}).price_grid) == 10**6
    assert MdpSpec.from_config({**cfg, "capacity": 10**6, "price_points": 2}).capacity == 10**6
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"price_points 1000001 is above the limit of 1000000"):
            MdpSpec.from_config({**cfg, "price_points": 10**6 + 1})
        with pytest.raises(ValueError, match=r"capacity 1000001 is above the limit of 1000000"):
            MdpSpec.from_config({**cfg, "capacity": 10**6 + 1, "price_points": 2})
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
    j, h = _evaluate_policy(spec, idx)
    j_ref, h_ref = _dense_evaluation(spec, idx, uniformization_rate(spec))
    assert h[-1] == 0.0
    assert j == pytest.approx(j_ref, rel=1e-10, abs=1e-10)
    np.testing.assert_allclose(h, h_ref, rtol=1e-10, atol=1e-10 * np.abs(h_ref).max())
    return j


def test_policy_evaluation_matches_dense_reference():
    j = _assert_matches_dense(K1_SPEC, np.array([0, 999]))
    assert j == pytest.approx(80.0 / 21.0, rel=1e-12)
    for idx in ([500, 999], [998, 999]):  # most likely state 1, then 0
        _assert_matches_dense(K1_SPEC, np.array(idx))

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
        _evaluate_policy(spec, idx)


def _banded_evaluation(spec, idx):
    """The evaluation `_evaluate_policy` replaced, kept as a reference: the same
    J, then h with h_m = 0 pinned at the most likely state m and equation m
    dropped, from one `scipy.linalg.solve_banded` call, shifted to h_K = 0."""
    from scipy.linalg import solve_banded

    K, u = spec.capacity, uniformization_rate(spec)
    states, prices = np.arange(K + 1), spec.price_grid[idx]
    lam, dlt = mdp._chain_rates(spec, idx)
    pi, _ = mdp._stationary_law(lam, dlt)
    j = float(np.sum(pi * states * prices))
    b = states * prices - j
    lam, dlt = lam / u, dlt / u
    m = int(np.argmax(pi))
    keep = states != m
    up, dn = -lam * keep, -dlt * keep
    ab = np.array([np.append(0.0, up[:-1]), lam + dlt, np.append(dn[1:], 0.0)])
    h = np.insert(solve_banded((1, 1), ab[:, keep], b[keep]), m, 0.0)
    return j, h - h[K]


@pytest.mark.parametrize("delta", [d for d, _ in TABLE])
def test_policy_iteration_matches_the_banded_evaluation(monkeypatch, delta):
    for k in (100, 1000, 3000):
        spec = make_spec(delta, capacity=k)
        sol = policy_iteration(spec)
        with monkeypatch.context() as patch:
            patch.setattr(mdp, "_evaluate_policy", _banded_evaluation)
            ref = policy_iteration(spec)
        np.testing.assert_array_equal(sol.policy.prices, ref.policy.prices)
        assert (sol.iterations, sol.j_star) == (ref.iterations, ref.j_star)
        assert np.abs(sol.h - ref.h).max() <= 1e-12 * np.abs(ref.h).max()


def test_policy_evaluation_restarts_below_a_zero_departure_floor():
    # price 0 (no departures) at states 1..3: states 0..2 are transient, and
    # the upward recurrence restarts at each of states 1..3
    spec = make_spec([0.0, 0.3], capacity=30, n_prices=200)
    idx = np.full(31, 60)
    idx[1:4], idx[-1] = 0, 199
    lam, dlt = policy_rates(spec, Policy(spec.price_grid[idx]))
    pi = mdp._stationary_law(lam, dlt)[0]
    assert np.all(pi[:3] == 0.0) and int(np.argmax(pi)) > 3
    _assert_matches_dense(spec, idx)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_policy_evaluation_matches_dense_reference_property(data):
    # non-decreasing policies: a ceiling wherever a price shuts arrivals off,
    # a floor wherever price 0 has no departures, and one recurrent class
    spec = data.draw(_rate_specs())
    k, g = spec.capacity, len(spec.price_grid)
    idx = np.sort(data.draw(st.lists(st.integers(0, g - 1), min_size=k, max_size=k)))
    _assert_matches_dense(spec, np.append(idx, g - 1))


def _sequential_scan(a, c):
    x, out = 0.0, []
    for an, cn in zip(a, c):
        x = an * x + cn
        out.append(x)
    return np.array(out)


def test_affine_scan_equals_the_sequential_recurrence():
    rng = np.random.default_rng(5)
    assert len(mdp._affine_scan(np.zeros(0), np.zeros(0))) == 0
    for n in (1, 2, 3, 7, 8, 9, 100, 1000, 4097):
        a = rng.uniform(0.0, 1.0, n)
        a[rng.random(n) < 0.1] = 0.0  # restarts
        a[0] = rng.choice([0.0, 0.7])  # x_{-1} = 0, so a_0 never matters
        c = rng.normal(size=n)
        a0, c0 = a.copy(), c.copy()
        x, ref = mdp._affine_scan(a, c), _sequential_scan(a, c)
        assert np.array_equal(a, a0) and np.array_equal(c, c0)  # inputs kept
        np.testing.assert_allclose(x, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())
        assert np.all(x[a == 0.0] == c[a == 0.0])  # a zero coefficient restarts exactly


def test_policy_evaluation_refuses_a_non_finite_h():
    # lam/U = 1e-15 below the mode with n p ~ 1e300 overflows the upward recurrence
    p_max = 1e300
    rates = RateModel.from_polynomials([1.0, -1.0 / p_max], [0.0, 0.5 / p_max], p_max)
    spec = MdpSpec(3, np.array([0.0, 2e280, (1 - 1e-15) * p_max, p_max]), rates)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the error
        with pytest.raises(RuntimeError, match="policy evaluation overflowed"):
            _evaluate_policy(spec, np.array([2, 1, 2, 3]))


@pytest.mark.parametrize("delta", [d for d, _ in TABLE])
def test_policy_iteration_takes_one_greedy_step_per_iteration(monkeypatch, delta):
    calls = []

    def counted(spec, h):
        calls.append(1)
        return _greedy(spec, h)

    monkeypatch.setattr(mdp, "_greedy", counted)
    for k in (1, 10, 100):
        calls.clear()
        sol = policy_iteration(make_spec(delta, capacity=k))
        assert len(calls) == sol.iterations


def test_policy_iteration_scales_to_large_capacity():
    # a K-state policy embeds in the (K+1)-state chain by posting the null
    # price at state K, so the optimal revenue cannot fall as K grows
    for sizes in [[(1000, 200), (3000, 200), (10000, 200)], [(10000, 1000), (100000, 1000)]]:
        js = []
        for k, g in sizes:
            spec = make_spec([0.0, 0.3], capacity=k, n_prices=g)
            sol = policy_iteration(spec)
            assert sol.j_star == pytest.approx(average_revenue(spec, sol.policy), rel=1e-9)
            js.append(sol.j_star)
        assert js == sorted(js)


def reference_greedy(spec, h, u):
    """The greedy step as the argmax over the whole (K+1) x G backup matrix."""
    states = np.arange(spec.capacity + 1)
    h_n = h[states]
    up = h[np.minimum(states + 1, len(h) - 1)] - h_n
    dn = h[np.maximum(states - 1, 0)] - h_n
    q = np.multiply.outer(states, spec.price_grid)
    q += h_n[:, None]
    q += np.multiply.outer(up, spec.lam_grid / u)
    q += np.multiply.outer(dn, spec.dlt_grid / u)
    idx = np.argmax(q, axis=1)
    idx[-1] = len(spec.price_grid) - 1
    return idx, q[states, idx]


def _checked_greedy(spec, h):
    idx, best = _greedy(spec, h)
    ref_idx, ref_best = reference_greedy(spec, h, uniformization_rate(spec))
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(best, ref_best)
    return idx, best


def _assert_greedy_matches(spec, h):
    return _checked_greedy(spec, np.asarray(h, dtype=float))[0]


@pytest.fixture
def checked_greedy(monkeypatch):
    """Compare every greedy step the solvers take with the full-matrix argmax."""
    calls = []

    def checked(spec, h):
        calls.append(spec.capacity)
        return _checked_greedy(spec, h)

    monkeypatch.setattr(mdp, "_greedy", checked)
    return calls


@pytest.mark.parametrize("delta", [d for d, _ in TABLE])
def test_greedy_matches_full_argmax_in_solvers(checked_greedy, delta):
    for k in (10, 100, 1000):
        policy_iteration(make_spec(delta, capacity=k))
    for k in (10, 100):
        relative_value_iteration(make_spec(delta, capacity=k))
        reference_relative_value_iteration(make_spec(delta, capacity=k))
    assert len(checked_greedy) > 500 and set(checked_greedy) == {10, 100, 1000}


def test_greedy_matches_full_argmax_edge_cases(checked_greedy):
    rng = np.random.default_rng(83)
    # degree-0 and degree-1 departure polynomials, K = 1, solved both ways
    for delta in ([1.7], [0.5, 0.0], [0.0, 0.3], [0.2, 0.4]):
        for k in (1, 7):
            rates = RateModel.from_polynomials(LAMBDA, delta, 4.0)
            spec = MdpSpec(k, np.linspace(0.0, 4.0, 97), rates)
            policy_iteration(spec)
            relative_value_iteration(spec)
            for h in (np.zeros(k + 1), np.full(k + 1, -3.5e7), rng.normal(0, 50, k + 1)):
                _assert_greedy_matches(spec, h)  # flat h: every slope but n p vanishes

    # zero leading coefficients: h_{n-1} = h_n drops the cubic model's slope to degree 1,
    # h_{n-1} = h_{n+1} cancels the 1.5 p^2 model's linear term
    for delta, h in [([0.0, 0.0, 0.0, 0.3], [0, 0, 5, 5, 5, 9, 9, 12, 12, 12, 13]),
                     ([0.0, 0.0, 1.5], [0, 4, 0, 4, 0, 4, 10, 4, 10, 30, 10])]:
        spec = make_spec(delta, capacity=10, n_prices=500)
        _assert_greedy_matches(spec, np.array(h, dtype=float) * 7.3)

    # arrivals 12 - 3p vanish from p = 4 on a non-uniform grid over [0, 8]: with h peaked
    # at state 4, that state posts an interior price of the clamped piece, a ceiling below K
    spec = clamped_arrival_spec()
    grid = spec.price_grid
    idx = _assert_greedy_matches(spec, -30.0 * (np.arange(11) - 4.0) ** 2)
    assert 4.0 < grid[idx[4]] < 8.0
    assert np.all(spec.lam_grid[idx[4:]] == 0.0)
    policy_iteration(spec)
    relative_value_iteration(spec)


def test_greedy_plateau_regressions():
    # rounding flattens a monotone backup into a run of ties away from every
    # special point; the full argmax returns the run's lowest index
    spec = MdpSpec(1, np.linspace(0.0, 1.0, 8),
                   RateModel.from_polynomials([1.0, -3.0, 3.0, -1.0], [1.0], 1.0))
    _assert_greedy_matches(spec, [0.0, -1.5e-323])  # subnormal slopes, found by the property test
    spec = make_spec([0.0, 0.3], capacity=3)
    idx = _assert_greedy_matches(spec, [1.0, 1.0 - 1e-15, 2.0, 3.0])  # q_0 = 1 - 1e-15 lam/U
    assert idx[0] < len(spec.price_grid) - 3  # the tie run starts before the arrival root


def test_greedy_step_memory_is_bounded():
    spec = make_spec([0.0, 0.3], capacity=10**4, n_prices=10**4)
    h = policy_iteration(make_spec([0.0, 0.3], capacity=10**4, n_prices=200)).h
    tracemalloc.start()
    try:
        _greedy(spec, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (10**4 + 1) * 10**4 * 8 / 50  # the full matrix would be 800 MB


_COEF = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
_H = st.floats(-1e8, 1e8)


@st.composite
def _rate_specs(draw):
    """Arrivals a1 (r - p) + a3 (r - p)^3 (zero from r <= p_max on), departures
    of degree 0 to 4 with non-negative coefficients, uniform or random grids."""
    p_max = draw(st.sampled_from([1.0, 4.0, 7.5]))
    r = draw(st.one_of(st.just(p_max), st.floats(0.05 * p_max, p_max)))
    a1, a3 = draw(_COEF), draw(_COEF)
    down = np.polynomial.Polynomial([r, -1.0])
    lam = (a1 if a1 + a3 > 0 else 1.0) * down + a3 * down**3
    beta = draw(st.lists(_COEF, min_size=1, max_size=5))
    if not any(beta):
        beta[-1] = 1.0
    g = draw(st.integers(2, 60))
    if draw(st.booleans()):
        grid = np.linspace(0.0, p_max, g)
    else:
        inner = draw(st.lists(st.floats(1e-6 * p_max, p_max, exclude_max=True),
                              max_size=g, unique=True))
        grid = np.array([0.0, *sorted(inner), p_max])
    rates = RateModel(lam, np.polynomial.Polynomial(beta), p_max)
    return MdpSpec(draw(st.integers(1, 12)), grid, rates)


@st.composite
def _h_vectors(draw, k):
    """Free h, flat h, or h within a few steps of 1 ulp to 1e-6 of one value."""
    kind = draw(st.sampled_from(["free", "flat", "near"]))
    if kind == "free":
        return np.array(draw(st.lists(_H, min_size=k + 1, max_size=k + 1)))
    base = draw(_H)
    if kind == "flat":
        return np.full(k + 1, base)
    steps = np.array(draw(st.lists(st.integers(-4, 4), min_size=k + 1, max_size=k + 1)))
    return base + steps * draw(st.sampled_from([np.spacing(base), 1e-14, 1e-10, 1e-6]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_greedy_matches_full_argmax_property(data):
    spec = data.draw(_rate_specs())
    _assert_greedy_matches(spec, data.draw(_h_vectors(spec.capacity)))


@st.composite
def _departure_specs(draw):
    """The reference arrivals 24 - 1.5 p^2 with departures of degree 0 to 3
    (non-negative coefficients), K = 1..30 and a coarse uniform grid."""
    beta = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 3.0)), min_size=1, max_size=4))
    if not any(beta):
        beta[-1] = 1.0
    return make_spec(beta, capacity=draw(st.integers(1, 30)), n_prices=draw(st.integers(2, 40)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=_departure_specs())
def test_policy_iteration_and_rvi_agree_property(spec):
    tol = 1e-9
    a = policy_iteration(spec, tol=tol)
    b = relative_value_iteration(spec, tol=tol)
    np.testing.assert_array_equal(a.policy.prices, b.policy.prices)
    assert abs(a.j_star - b.j_star) <= tol * max(1.0, abs(a.j_star))


@st.composite
def _concave_demand_specs(draw, free_departures=True):
    """Arrivals a0 (1 - (p/p_max)^k), concave and zero at the null price, and
    departures of degree <= 3 with non-negative coefficients; with
    `free_departures` the constant term is 0, so nothing departs at price 0."""
    p_max = draw(st.sampled_from([1.0, 4.0, 7.5]))
    a0, k = draw(st.floats(0.1, 100.0)), draw(st.integers(1, 4))
    lam = np.polynomial.Polynomial([a0, *[0.0] * (k - 1), -a0 / p_max**k])
    beta = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 10.0)), min_size=4, max_size=4))
    if free_departures:
        beta[0] = 0.0
    if not any(beta[1:]):
        beta[-1] = 1.0
    grid = np.linspace(0.0, p_max, draw(st.integers(10, 200)))
    rates = RateModel(lam, np.polynomial.Polynomial(beta), p_max)
    return MdpSpec(draw(st.integers(1, 60)), grid, rates)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_detailed_balance_on_random_grid_policies_property(data):
    spec = data.draw(_concave_demand_specs(free_departures=data.draw(st.booleans())))
    k, g = spec.capacity, len(spec.price_grid)
    idx = np.array(data.draw(st.lists(st.integers(0, g - 1), min_size=k, max_size=k)) + [g - 1])
    policy = Policy(spec.price_grid[idx])
    pi = steady_state(spec, policy)
    lam, dlt = policy_rates(spec, policy)
    up, down = pi[:-1] * lam[:-1], pi[1:] * dlt[1:]  # probability flow across each edge
    assert np.abs(up - down).max() <= 1e-12 * max(up.max(), down.max())


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=_concave_demand_specs())
def test_structure_holds_on_concave_demand_models_property(spec):
    rep = verify_structure(policy_iteration(spec))
    assert rep.worst_violation <= 8 * np.finfo(float).eps


def test_h_is_not_concave_when_departures_do_not_vanish_at_price_zero():
    # found by the structure property over departures with a constant term: with a
    # departure rate that price cannot change, every state below K posts price 0
    # and only the full state earns (K p_max at the null price), so h is convex
    # there.  PI and RVI agree, so the breach is the model's, not rounding
    rates = RateModel.from_polynomials([1.0, -1.0], [1.0], 1.0)
    spec = MdpSpec(2, np.linspace(0.0, 1.0, 11), rates)
    a, b = policy_iteration(spec), relative_value_iteration(spec)
    np.testing.assert_array_equal(a.policy.prices, [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(b.policy.prices, a.policy.prices)
    assert a.j_star == pytest.approx(2.0 / 3.0, rel=1e-12)
    np.testing.assert_allclose(a.h, [-4.0, -8.0 / 3.0, 0.0], rtol=1e-12)
    rep = verify_structure(a)
    assert rep.h_monotone and rep.price_monotone and not rep.h_concave
    assert rep.violations == [("h_concave", 1)]
    assert rep.worst_violation == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_policy_iteration_and_rvi_agree_on_a_stiff_chain():
    # shrunk from a wider arrival family: lam(0)/U = 6.5e-5, so each damped sweep
    # shrinks the span by only ~3e-5; RVI takes 4,123 greedy steps at this tol (and
    # 10,929 at 1e-9, past its default budget)
    lam = np.polynomial.Polynomial([6.54757023e-05, -3.86810303e-03, 7.61718750e-02, -0.5])
    spec = MdpSpec(2, [0.0, 1.0], RateModel(lam, np.polynomial.Polynomial([0.0, 1.0]), 1.0))
    tol = 1e-6
    a = policy_iteration(spec, tol=tol)
    b = relative_value_iteration(spec, tol=tol)
    np.testing.assert_array_equal(a.policy.prices, b.policy.prices)
    assert abs(a.j_star - b.j_star) <= tol * max(1.0, abs(a.j_star))


def test_real_roots_by_degree():
    columns = np.array([
        [0.0, 0.0, 0.0, 0.0],        # no roots
        [2.0, 0.0, 0.0, 0.0],        # a non-zero constant: none either
        [-3.0, 1.5, 0.0, 0.0],       # degree 1: 2
        [2.0, -3.0, 1.0, 0.0],       # degree 2: 1, 2
        [1.0, 0.0, 1.0, 0.0],        # +-i: real parts 0
        [-6.0, 11.0, -6.0, 1.0],     # degree 3 (eigvals): 1, 2, 3
        [-1.0, 1.0, 0.0, 1e-120],    # negligible leading coefficient: degree 1, root 1
    ]).T  # one polynomial per column, coefficients ascending down it
    roots = mdp._real_roots(columns)
    assert roots.shape == (3, 7)
    found = [np.sort(r[~np.isnan(r)]) for r in roots.T]
    expect = [[], [], [2.0], [1.0, 2.0], [0.0, 0.0], [1.0, 2.0, 3.0], [1.0]]
    for got, want in zip(found, expect):
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_real_roots_of_mixed_degrees_match_single_column_calls():
    # columns of degree 0 to 3 share one call; each must get exactly the roots,
    # in the same rows, that a call on that column alone returns
    rng = np.random.default_rng(29)
    coef = rng.normal(size=(4, 40))
    for col in range(40):
        coef[1 + col % 4 :, col] = 0.0  # degree col % 4
    coef[2, 5] = 1e-130  # below 1e-100 of the column's largest: degree 1
    coef[:2, 9] = [1.0, 2.0]
    coef[2, 9] = 1.0  # a double root at -1
    roots = mdp._real_roots(coef)
    for col in range(40):
        alone = mdp._real_roots(coef[:, col : col + 1])
        np.testing.assert_array_equal(roots[:, col : col + 1], alone)
    assert np.isnan(roots[:, 0::4]).all()
    assert (~np.isnan(roots[:, 3::4])).sum(axis=0).tolist() == [3] * 10
    assert np.isnan(roots[1:, 5]).all()
