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
Its walk uses successor arrays in which a state with no way out (total
rate 0) is its own successor, so the walk needs no test for such a state.
Driven by shared draws, walks from two starts of one parity stay
ordered and, once they meet, never part, as in coupling from the past
(Propp and Wilson 1996).  So each chunk of draws is cut into lanes,
which numpy steps side by side from a guessed start, the chunk's start
state; one repair round steps again each lane whose start is not the
previous lane's end, until it meets its stored path.  A lane still apart
at its end sends the rest of the chunk to a plain one-draw-per-pass
loop, and the next few chunks too (see `_Chain.walk`).  numpy then cuts
the path at its first state with no way out, turns the matching
exponentials into sojourn ends with one sequential cumulative sum from
the current time, and finds the first end at the horizon.  One function
adds each run of sojourns (a chunk, or the stuck tail as a run of one)
into the (batch, state) cells in time order: one `np.add.at` of the
sojourn lengths when the run lies after the warmup, before the horizon
and inside one batch; else each sojourn is clipped to [warmup, horizon),
split into one piece per batch it touches, and every piece goes into one
`np.add.at`.  Every comparison and addition is the one the per-event
loop would make, in the same order, so a seed's results are bit-for-bit
those of that loop.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .mdp import MdpSpec, Policy, policy_rates, revenue_rate, steady_state
from .record import Record

# Philox draws come in blocks of _BLOCK exponentials, then _BLOCK uniforms.  The
# block size fixes the random stream: changing it changes every seeded result.
# standard_exponential draws the values exponential(scale=1) would, at the same
# stream position, through numpy's faster fill kernel.
_BLOCK = 1 << 16
# Draws walked per pass of the lockstep walk.  It bounds the scratch arrays; results do
# not depend on it.  It must divide _BLOCK.
_CHUNK = 1 << 13
# Draws per lane: each chunk is cut into _CHUNK // _LANE lanes stepped side by side.
# It must divide _CHUNK, and is even so that a lane's guessed start, the chunk's start
# state, has the parity of its true start.  Results do not depend on it.
_LANE = 16
# Most chunks walked plainly after a chunk whose lanes stayed apart (see _Chain.walk).
_MAX_WAIT = 8
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
        for name in ("horizon", "warmup"):
            value = getattr(self, name)
            if name == "warmup" and value is None:
                continue  # the default, computed below
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if self.warmup is None:
            object.__setattr__(self, "warmup", 0.05 * self.horizon)
        if not (math.isfinite(self.horizon) and math.isfinite(self.warmup)):
            raise ValueError(f"horizon and warmup must be finite, got {self.horizon}, {self.warmup}")
        if not 0 <= self.warmup < self.horizon:
            raise ValueError(f"need horizon > warmup >= 0, got {self.horizon}, {self.warmup}")
        for name in ("seed", "start_state", "n_batches"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if not 0 <= self.start_state <= self.spec.capacity:
            raise ValueError(f"start state {self.start_state} outside 0..{self.spec.capacity}")
        if self.n_batches < 2:
            raise ValueError("batch-means stderr needs at least 2 batches")
        if not (self.horizon - self.warmup) / self.n_batches > 0:  # underflows to 0 near 5e-324
            raise ValueError(f"horizon - warmup = {self.horizon - self.warmup:g} is too short to "
                             f"split into {self.n_batches} batches")


@dataclass(frozen=True)
class SimResult(Record):
    revenue_rate_estimate: float
    revenue_rate_stderr: float
    occupancy: np.ndarray
    occupancy_stderr: np.ndarray
    transitions: int
    stuck_state: int | None = None


class _Chain:
    """The walk's transition rule, from state s under draw u: to step_up[s] if
    u < p_up[s], else to step_dn[s]."""

    def __init__(self, p_up: np.ndarray, step_up: np.ndarray, step_dn: np.ndarray):
        self.p_up, self.step_up, self.step_dn = p_up, step_up, step_dn
        self.lists = p_up.tolist(), step_up.tolist(), step_dn.tolist()
        self.backoff = 0  # chunks walked plainly after the last fallback
        self.wait = 0  # chunks left to walk plainly before lanes are tried again

    def step(self, states: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Each state's successor under its draw."""
        return np.where(draws < self.p_up[states], self.step_up[states], self.step_dn[states])

    def plain(self, draws: np.ndarray, state: int, path: np.ndarray) -> int:
        """Walk one draw per pass, writing the state before each draw into `path`."""
        up, nu, nd = self.lists
        states = []
        for u in memoryview(draws):  # floats made one at a time cost less than draws.tolist()
            states.append(state)
            state = nu[state] if u < up[state] else nd[state]
        path[:] = states
        return state

    def walk(self, draws: np.ndarray, state: int, path: np.ndarray) -> int:
        """Walk from `state` through the _CHUNK `draws`, writing the state before each
        draw into `path`; return the state after the last draw.

        Every lane is stepped at once from a guess, the chunk's start state.  Each
        lane whose start is not the previous lane's end is stepped again from that
        end, until it meets its stored path: from the draw where the two states are
        equal, they share every later draw and so every later state.  If a lane is
        still apart at its end after this one repair round, the lanes after it may
        start wrong, and a plain loop walks the rest of the chunk from its end.  Such
        a fallback wastes the lockstep work, so the next chunks are walked plainly
        too: 1 after the first fallback in a row, then 3, 7 and at most _MAX_WAIT.
        """
        if self.wait:
            self.wait -= 1
            return self.plain(draws, state, path)
        lanes = path.reshape(-1, _LANE)  # view: lane j holds the states before draws j*_LANE...
        lane_draws = draws.reshape(-1, _LANE)
        lanes[:, 0] = state  # every lane's guess
        cur = lanes[:, 0]
        for i in range(1, _LANE):
            cur = lanes[:, i] = self.step(cur, lane_draws[:, i - 1])
        ends = self.step(cur, lane_draws[:, -1])
        bad = np.flatnonzero(lanes[1:, 0] != ends[:-1]) + 1
        if len(bad):
            cur = lanes[bad, 0] = ends[bad - 1]
            bad_draws = lane_draws[bad]
            for i in range(1, _LANE + 1):
                cur = self.step(cur, bad_draws[:, i - 1])
                if i < _LANE:
                    old = lanes[bad, i]
                    lanes[bad, i] = cur
                else:
                    old = ends[bad]
                    ends[bad] = cur
                if np.array_equal(cur, old):
                    break  # every repaired lane has met its stored path
            else:
                apart = np.flatnonzero(lanes[1:, 0] != ends[:-1])
                if len(apart):
                    self.backoff = self.wait = min(2 * self.backoff + 1, _MAX_WAIT)
                    first = (apart[0] + 1) * _LANE
                    return self.plain(draws[first:], int(ends[apart[0]]), path[first:])
        self.backoff = 0
        return int(ends[-1])


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
    last = cfg.n_batches - 1
    occ_time = np.zeros((cfg.n_batches, n_states))
    occ_cells = occ_time.reshape(-1)  # view: cell b * n_states + state

    def accrue(states: np.ndarray, starts: np.ndarray, ends: np.ndarray):
        """Add consecutive sojourns' time in [warmup, horizon) to their (batch, state) cells,
        piece by piece in time order, with the per-event loop's arithmetic."""
        b = min(int((starts[0] - cfg.warmup) / batch_len), last)
        if (cfg.warmup <= starts[0] and ends[-1] < cfg.horizon
                and b == min(int((ends[-1] - cfg.warmup) / batch_len), last)):
            # every sojourn lies in batch b and adds end - start to one cell
            np.add.at(occ_cells, b * n_states + states, ends - starts)
            return
        t0 = np.maximum(starts, cfg.warmup)
        t1 = np.minimum(ends, cfg.horizon)
        keep = t1 > t0
        states, t0, t1 = states[keep], t0[keep], t1[keep]
        b0, b1 = (np.minimum(((x - cfg.warmup) / batch_len).astype(np.intp), last)
                  for x in (t0, t1))
        span = b1 - b0 + 1  # batches each sojourn touches: one piece per batch
        of = np.repeat(np.arange(len(span)), span)  # the sojourn of each piece
        b = b0[of] + np.arange(len(of)) - np.repeat(np.cumsum(span) - span, span)
        t0, t1 = t0[of], t1[of]
        lo = cfg.warmup + b * batch_len
        # a sojourn inside one batch adds t1 - t0; a crossing one, its overlap with each batch
        dt = np.where(span[of] == 1, t1 - t0, np.minimum(t1, lo + batch_len) - np.maximum(t0, lo))
        np.add.at(occ_cells, b * n_states + states[of], dt)

    rng = np.random.Generator(np.random.Philox(cfg.seed))
    dead = total <= 0.0
    # successors of each state; a state with no way out is its own, so a walk that
    # reaches one ends its chunk there
    index = np.arange(n_states)
    chain = _Chain(p_up, np.where(dead, index, index + 1), np.where(dead, index, index - 1))
    walk = np.empty(_CHUNK, dtype=np.intp)
    t = 0.0
    state = cfg.start_state
    transitions = 0
    stuck = None
    pos = _BLOCK
    while True:
        if pos >= _BLOCK:
            exp = rng.standard_exponential(size=_BLOCK)
            uni = rng.random(size=_BLOCK)
            pos = 0
        state = chain.walk(uni[pos:pos + _CHUNK], state, walk)
        stop = np.flatnonzero(dead[walk])  # the path ends at its first state with no way out
        n = int(stop[0]) if len(stop) else _CHUNK
        if n:
            states = walk[:n]
            ends = exp[pos:pos + n] / total[states]
            ends[0] += t
            np.cumsum(ends, out=ends)  # sequential adds: ends[i] == t + e_0/r_0 + ... + e_i/r_i
            starts = np.concatenate(([t], ends[:-1]))
            end = int(np.searchsorted(ends, cfg.horizon))  # first sojourn reaching the horizon
            if end < n:
                accrue(states[:end + 1], starts[:end + 1], ends[:end + 1])
                transitions += end
                break
            accrue(states, starts, ends)
            transitions += n
            t = ends[-1]
        pos += _CHUNK
        if dead[state]:  # the walk stopped at a state with no way out
            stuck = state
            accrue(np.array([state]), np.array([t]), np.array([cfg.horizon]))
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
    analytic_occupancy: np.ndarray
    passed: bool


def _z(diff: float, stderr: float) -> float:
    if stderr > 0:
        return diff / stderr
    return 0.0 if diff == 0 else np.inf


def compare_to_analytic(result: SimResult, spec: MdpSpec, policy: Policy) -> ComparisonReport:
    """Score the simulation against the product-form chain; pass needs
    |revenue z| <= 3 and occupancy TV distance <= 0.02."""
    pi = steady_state(spec, policy)
    j = revenue_rate(pi, policy.prices)
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
        analytic_occupancy=pi,
        passed=bool(abs(rev_z) <= 3.0 and tv <= 0.02),
    )
