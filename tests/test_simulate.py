import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from spottransit import simulate
from spottransit.mdp import (
    MdpSpec,
    Policy,
    RateModel,
    average_revenue,
    policy_iteration,
    policy_rates,
    steady_state,
)
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
    for field, value in [("start_state", 1.5), ("start_state", True), ("start_state", np.int64(1)),
                         ("n_batches", 2.5), ("n_batches", True), ("n_batches", "20")]:
        with pytest.raises(ValueError, match=field):
            SimConfig(K1_SPEC, K1_POLICY, horizon=10.0, seed=1, **{field: value})
    cfg = SimConfig(K1_SPEC, K1_POLICY, horizon=100.0, seed=1)
    assert cfg.warmup == pytest.approx(5.0)  # default 5% of horizon


@pytest.mark.parametrize("field,value,needle", [
    ("seed", True, "seed must be an integer, got True"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", "7", "seed must be an integer, got '7'"),
    ("seed", None, "seed must be an integer, got None"),
    ("seed", -1, "seed must be at least 0, got -1"),
    ("horizon", True, "horizon must be a real number, got True"),
    ("horizon", "10", "horizon must be a real number, got '10'"),
    ("horizon", None, "horizon must be a real number, got None"),
    ("horizon", np.bool_(True), "horizon must be a real number, got np.True_"),
    ("warmup", False, "warmup must be a real number, got False"),
    ("warmup", "1", "warmup must be a real number, got '1'"),
])
def test_config_refuses_a_bad_seed_horizon_or_warmup(field, value, needle):
    kw = {"horizon": 10.0, "seed": 1, field: value}
    with pytest.raises(ValueError) as exc:
        SimConfig(K1_SPEC, K1_POLICY, **kw)
    assert str(exc.value) == needle


def test_config_takes_numpy_reals_and_a_zero_seed():
    cfg = SimConfig(K1_SPEC, K1_POLICY, horizon=np.float64(100.0), seed=0, warmup=np.int64(3))
    assert cfg.warmup == 3 and simulate_policy(cfg).transitions > 0


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


def reference_simulate(cfg: SimConfig) -> SimResult:
    """Scalar event loop: one Philox draw pair, one state step and one accrual per
    transition.  simulate_policy must reproduce it bit for bit."""
    block = 1 << 16
    spec, policy = cfg.spec, cfg.policy
    lam, dlt = policy_rates(spec, policy)
    total = lam + dlt
    p_up = np.divide(lam, total, out=np.zeros_like(total), where=total > 0)

    n_states = spec.capacity + 1
    batch_len = (cfg.horizon - cfg.warmup) / cfg.n_batches
    occ_time = np.zeros((cfg.n_batches, n_states))

    def accrue(state, t0, t1):
        t0 = max(t0, cfg.warmup)
        t1 = min(t1, cfg.horizon)
        if t1 <= t0:
            return
        b0 = min(int((t0 - cfg.warmup) / batch_len), cfg.n_batches - 1)
        b1 = min(int((t1 - cfg.warmup) / batch_len), cfg.n_batches - 1)
        if b0 == b1:
            occ_time[b0, state] += t1 - t0
            return
        for b in range(b0, b1 + 1):
            lo = cfg.warmup + b * batch_len
            hi = lo + batch_len
            occ_time[b, state] += min(t1, hi) - max(t0, lo)

    rng = np.random.Generator(np.random.Philox(cfg.seed))
    exp = uni = np.empty(0)
    i = 0
    t = 0.0
    state = cfg.start_state
    transitions = 0
    stuck = None
    while t < cfg.horizon:
        rate = total[state]
        if rate <= 0.0:
            stuck = state
            accrue(state, t, cfg.horizon)
            break
        if i >= len(exp):
            exp = rng.exponential(size=block)
            uni = rng.random(size=block)
            i = 0
        e, u = exp[i], uni[i]
        i += 1
        t_next = t + e / rate
        accrue(state, t, t_next)
        t = t_next
        if t >= cfg.horizon:
            break
        state = state + 1 if u < p_up[state] else state - 1
        transitions += 1

    duration = cfg.horizon - cfg.warmup
    rev_rates = np.arange(n_states) * policy.prices
    batch_rev = occ_time @ rev_rates / batch_len
    batch_occ = occ_time / batch_len
    nb = cfg.n_batches
    return SimResult(
        revenue_rate_estimate=float(occ_time.sum(axis=0) @ rev_rates / duration),
        revenue_rate_stderr=float(batch_rev.std(ddof=1) / np.sqrt(nb)),
        occupancy=occ_time.sum(axis=0) / duration,
        occupancy_stderr=batch_occ.std(axis=0, ddof=1) / np.sqrt(nb),
        transitions=transitions,
        stuck_state=stuck,
    )


REFERENCE_DEPARTURES = [[0.0, 0.3], [0.0, 0.0, 0.3], [0.0, 0.0, 0.0, 0.3], [0.0, 0.0, 1.5],
                        [0.0, 0.0, 3.0]]


def _optimal(delta, capacity, n_prices=1000):
    spec = make_spec(delta, capacity, n_prices)
    return spec, policy_iteration(spec).policy


def _wandering_to_stuck():
    # symmetric walk on 1..39 above an empty state that posts the null price:
    # no arrivals and no departures there, so the chain sticks at 0 eventually
    spec = MdpSpec(40, np.linspace(0.0, 4.0, 5), RateModel.from_polynomials([4.0, -1.0], [0.0, 1.0], 4.0))
    return spec, Policy([4.0] + [2.0] * 39 + [4.0])


def _falling_to(dead, capacity):
    # no arrivals, so each transition steps one state down; state `dead` posts the price 0,
    # where nothing departs either, so a walk from n stops there after n - dead transitions
    spec = MdpSpec(capacity, np.array([0.0, 4.0]), RateModel.from_polynomials([0.0], [0.0, 0.3], 4.0))
    return spec, Policy([0.0 if n == dead else 4.0 for n in range(capacity + 1)])


BIT_CASES = [
    *[pytest.param(*_optimal(d, k), dict(horizon=2_000.0, seed=31 + k), id=f"model{m}-k{k}")
      for m, d in enumerate(REFERENCE_DEPARTURES) for k in (1, 10, 100)],
    pytest.param(*_optimal([0.0, 0.3], 1), dict(horizon=20_000.0, seed=20120213), id="c08-k1"),
    # ~233k transitions: several RNG blocks and many sub-chunk edges
    pytest.param(*_optimal([0.0, 0.3], 100), dict(horizon=100_000.0, seed=424242), id="c08-k100"),
    pytest.param(*_optimal([0.0, 0.0, 1.5], 10),
                 dict(horizon=1_000.0, seed=8, start_state=7, n_batches=7, warmup=0.0),
                 id="start7-batches7"),
    pytest.param(*_optimal([0.0, 0.3], 100),
                 dict(horizon=3_000.0, seed=9, start_state=100, n_batches=3, warmup=2_999.0),
                 id="short-window"),
    # batches of 0.016 against mean sojourns of 0.04-0.8: most pieces come from sojourns
    # that cross one or more batch edges; the last batch edge falls an ulp short of the horizon
    pytest.param(*_optimal([0.0, 0.3], 10, n_prices=200), dict(horizon=16.67, seed=42, n_batches=1000),
                 id="sojourns-span-batches"),
    pytest.param(*_wandering_to_stuck(), dict(horizon=1e6, seed=5, start_state=20), id="stuck-partway"),
    pytest.param(MdpSpec(3, np.linspace(0, 4, 50), RateModel.from_polynomials([0.0], [0.0, 0.3], 4.0)),
                 Policy([0.0, 0.0, 4.0, 4.0]), dict(horizon=100.0, seed=3, start_state=3),
                 id="stuck-after-two"),
    # the walk takes two draws per pass: stuck-after-two stops on the second draw of a pair,
    # this one on the first
    pytest.param(*_falling_to(4, 9), dict(horizon=100.0, seed=4, start_state=9),
                 id="stuck-on-first-draw"),
    pytest.param(*_falling_to(4, 10), dict(horizon=100.0, seed=4, start_state=4), id="stuck-at-start"),
    # the last draw of a chunk brings the walk to the dead state
    pytest.param(*_falling_to(4, simulate._CHUNK + 4),
                 dict(horizon=1e4, seed=6, start_state=simulate._CHUNK + 4), id="stuck-at-chunk-end"),
]


@pytest.mark.parametrize("spec,policy,kw", BIT_CASES)
def test_block_stepping_matches_scalar_loop(spec, policy, kw):
    cfg = SimConfig(spec, policy, **kw)
    assert_same_result(simulate_policy(cfg), reference_simulate(cfg))


def assert_same_result(got: SimResult, want: SimResult):
    for f in dataclasses.fields(SimResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b, f.name


@st.composite
def random_chains(draw):
    """A birth-death chain with random per-state prices, a horizon of up to ~150k transitions
    (past one RNG block), and random warmup, batches and start state.  A state is dead
    (lambda = delta = 0) where it posts the null price at 0, or, with no arrivals at all,
    the price 0 where departures vanish at 0 too."""
    capacity = draw(st.integers(1, 30))
    p_max = 4.0
    arrival = draw(st.sampled_from([[24.0, 0.0, -1.5], [3.0, -0.75], [0.0]]))
    departure = draw(st.sampled_from([[0.0, 0.3], [0.5, 1.0], [0.0, 0.0, 3.0]]))
    grid = np.linspace(0.0, p_max, draw(st.integers(2, 6)))
    rates = RateModel.from_polynomials(arrival, departure, p_max)
    spec = MdpSpec(capacity, grid, rates)
    idx = draw(st.lists(st.integers(0, len(grid) - 1), min_size=capacity, max_size=capacity))
    policy = Policy(grid[idx + [len(grid) - 1]])
    total = sum(policy_rates(spec, policy))  # positive at K at least, which posts p_max
    transitions = draw(st.sampled_from([150_000, 20_000, 3_000, 10]))
    horizon = transitions / float(np.median(total[total > 0]))
    warmup = draw(st.sampled_from([0.0, draw(st.floats(0.0, 0.9)) * horizon]))
    return SimConfig(spec, policy, horizon=horizon, seed=draw(st.integers(0, 2**32 - 1)),
                     warmup=warmup, start_state=draw(st.integers(0, capacity)),
                     n_batches=draw(st.integers(2, 25)))


# No shrink phase: shrinking reruns the scalar loop on examples of up to ~150k transitions
# and can take many minutes, so a failure is reported as drawn.
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow],
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(random_chains())
# one run always spans an RNG block
@example(SimConfig(*_optimal([0.0, 0.3], 30), horizon=40_000.0, seed=12, warmup=700.0,
                   start_state=30, n_batches=25))
def test_block_stepping_matches_scalar_loop_on_random_chains(cfg):
    assert_same_result(simulate_policy(cfg), reference_simulate(cfg))


def test_chunk_is_even_and_divides_the_block():
    assert simulate._CHUNK % 2 == 0 and simulate._BLOCK % simulate._CHUNK == 0


def test_wandering_chain_gets_stuck_partway():
    spec, policy = _wandering_to_stuck()
    res = simulate_policy(SimConfig(spec, policy, horizon=1e6, seed=5, start_state=20))
    assert res.stuck_state == 0 and res.transitions > 0
    assert res.occupancy[0] > 0.99


def test_block_stepping_memory_is_bounded():
    spec, policy = _optimal([0.0, 0.3], 100)
    cfg = SimConfig(spec, policy, horizon=50_000.0, seed=17)
    tracemalloc.start()
    try:
        res = simulate_policy(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.transitions > 1 << 16
    assert peak < 3 * 2**20  # one RNG block is 1 MiB; stepping it whole peaks near 6 MiB
