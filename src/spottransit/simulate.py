"""Continuous-time Monte Carlo check of the dynamic-pricing math.

Simulates the birth-death utilization chain under a fixed pricing
policy, with the per-state rates of `mdp.policy_rates` (nothing departs
the empty state, nothing arrives at the full one): sojourns are
exponential with the state's total rate, revenue accrues continuously
at n * p_n, and the post-warmup horizon is split into equal-time
batches whose means give the standard errors.  The estimates are
compared against the product-form steady state and the analytic average
revenue; agreement within three standard errors (and a small
total-variation distance on occupancy) validates both codes against
each other since they share nothing but those rates.

The chain is stepped in blocks of draws rather than one event at a time.
A plain Python loop over one sub-chunk of uniforms yields the state path
(stopping at a state with no way out); numpy then turns the matching
exponentials into sojourn ends with one sequential cumulative sum from
the current time, finds the first end at the horizon, and adds each
sojourn's post-warmup time into its (batch, state) cell in time order.
Every addition is the one the per-event loop would make, in the same
order, so a seed's results are bit-for-bit those of that loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import MdpSpec, Policy, average_revenue, policy_rates, steady_state
from .record import Record

# Philox draws come in blocks of _BLOCK exponentials, then _BLOCK uniforms.  The
# block size fixes the random stream: changing it changes every seeded result.
_BLOCK = 1 << 16
# Draws stepped per numpy pass.  It bounds the scratch arrays; results do not depend on it.
_CHUNK = 1 << 12
# Most transitions a run may expect.  The horizon times the largest total rate
# bounds the expected count, and a run past this would not end in useful time.
MAX_EXPECTED_TRANSITIONS = 1e9


@dataclass(frozen=True)
class SimConfig:
    spec: MdpSpec
    policy: Policy
    horizon: float
    seed: int
    warmup: float = None  # type: ignore[assignment]  # default: 5% of horizon
    start_state: int = 0
    n_batches: int = 20

    def __post_init__(self):
        if self.warmup is None:
            object.__setattr__(self, "warmup", 0.05 * self.horizon)
        if not (math.isfinite(self.horizon) and math.isfinite(self.warmup)):
            raise ValueError(f"horizon and warmup must be finite, got {self.horizon}, {self.warmup}")
        if not 0 <= self.warmup < self.horizon:
            raise ValueError(f"need horizon > warmup >= 0, got {self.horizon}, {self.warmup}")
        if not 0 <= self.start_state <= self.spec.capacity:
            raise ValueError(f"start state {self.start_state} outside 0..{self.spec.capacity}")
        if self.n_batches < 2:
            raise ValueError("batch-means stderr needs at least 2 batches")


@dataclass(frozen=True)
class SimResult(Record):
    revenue_rate_estimate: float
    revenue_rate_stderr: float
    occupancy: np.ndarray
    occupancy_stderr: np.ndarray
    transitions: int
    stuck_state: int | None = None


def simulate_policy(cfg: SimConfig) -> SimResult:
    """Run one seeded replication; identical config and seed reproduce the result bit-for-bit."""
    spec, policy = cfg.spec, cfg.policy
    lam, dlt = policy_rates(spec, policy)
    total = lam + dlt
    rate = float(total.max())
    if cfg.horizon * rate > MAX_EXPECTED_TRANSITIONS:
        raise ValueError(f"horizon {cfg.horizon:g} times the largest total rate {rate:.3g} "
                         f"allows {cfg.horizon * rate:.3g} expected transitions, over the limit "
                         f"{MAX_EXPECTED_TRANSITIONS:.0e}")
    p_up = np.divide(lam, total, out=np.zeros_like(total), where=total > 0)

    n_states = spec.capacity + 1
    batch_len = (cfg.horizon - cfg.warmup) / cfg.n_batches
    occ_time = np.zeros((cfg.n_batches, n_states))
    occ_cells = occ_time.reshape(-1)  # view: cell b * n_states + state

    def accrue(state: int, t0: float, t1: float):
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

    def accrue_path(states: np.ndarray, t: float, ends: np.ndarray):
        """accrue() for consecutive sojourns from t, in the same order and arithmetic."""
        starts = np.concatenate(([t], ends[:-1]))
        t0 = np.maximum(starts, cfg.warmup)
        t1 = np.minimum(ends, cfg.horizon)
        keep = t1 > t0
        b0, b1 = (np.minimum(((x - cfg.warmup) / batch_len).astype(np.intp), cfg.n_batches - 1)
                  for x in (t0, t1))
        cells, dt = b0 * n_states + states, t1 - t0
        lo = 0
        for i in [*np.flatnonzero(keep & (b0 != b1)).tolist(), len(states)]:
            k = keep[lo:i]
            np.add.at(occ_cells, cells[lo:i][k], dt[lo:i][k])
            if i < len(states):  # crosses a batch boundary
                accrue(int(states[i]), starts[i], ends[i])
            lo = i + 1

    rng = np.random.Generator(np.random.Philox(cfg.seed))
    up, dead = p_up.tolist(), (total <= 0.0).tolist()
    t = 0.0
    state = cfg.start_state
    transitions = 0
    stuck = None
    pos = _BLOCK
    while True:
        if pos >= _BLOCK:
            exp = rng.exponential(size=_BLOCK)
            uni = rng.random(size=_BLOCK)
            pos = 0
        path = []
        for u in uni[pos:pos + _CHUNK].tolist():
            if dead[state]:
                break
            path.append(state)
            state = state + 1 if u < up[state] else state - 1
        if path:
            states = np.array(path, dtype=np.intp)
            ends = exp[pos:pos + len(path)] / total[states]
            ends[0] += t
            np.cumsum(ends, out=ends)  # sequential adds: ends[i] == t + e_0/r_0 + ... + e_i/r_i
            end = int(np.searchsorted(ends, cfg.horizon))  # first sojourn reaching the horizon
            if end < len(ends):
                accrue_path(states[:end + 1], t, ends[:end + 1])
                transitions += end
                break
            accrue_path(states, t, ends)
            transitions += len(ends)
            t = ends[-1]
        pos += _CHUNK
        if dead[state]:  # the walk stopped at a state with no way out
            stuck = state
            accrue(state, t, cfg.horizon)
            break

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


@dataclass(frozen=True)
class ComparisonReport(Record):
    revenue_z: float
    occupancy_z: np.ndarray
    tv_distance: float
    analytic_revenue: float
    passed: bool


def _z(diff: float, stderr: float) -> float:
    if stderr > 0:
        return diff / stderr
    return 0.0 if diff == 0 else np.inf


def compare_to_analytic(result: SimResult, spec: MdpSpec, policy: Policy) -> ComparisonReport:
    """Score the simulation against the product-form chain; pass needs
    |revenue z| <= 3 and occupancy TV distance <= 0.02."""
    pi = steady_state(spec, policy)
    j = average_revenue(spec, policy)
    rev_z = _z(result.revenue_rate_estimate - j, result.revenue_rate_stderr)
    occ_z = np.array(
        [_z(o - p, s) for o, p, s in zip(result.occupancy, pi, result.occupancy_stderr)]
    )
    tv = 0.5 * float(np.abs(result.occupancy - pi).sum())
    return ComparisonReport(
        revenue_z=float(rev_z),
        occupancy_z=occ_z,
        tv_distance=tv,
        analytic_revenue=j,
        passed=bool(abs(rev_z) <= 3.0 and tv <= 0.02),
    )
