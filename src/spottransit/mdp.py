"""State-dependent dynamic pricing as an average-reward MDP.

Utilization is discretized in 1-Gbps steps into states n = 0..K.  At
state n the seller posts a price p_n; demand arrives as a Poisson
process with rate ``arrival(p)`` (clamped at zero, and zero at the null
price p_max) and departs with rate ``departure(p)``.  Revenue accrues
at rate n * p_n.  Full capacity forces the null price, so the chain
never overflows; the empty state has nothing to depart.

Uniformizing with U = max over the price grid of arrival + departure
turns the chain into a discrete-time one whose optimality equations are
(Puterman 1994, section 8)

    J* + h_n = max_p [ n p + h_n + arrival(p)/U (h_{n+1} - h_n)
                       + departure(p)/U (h_{n-1} - h_n) ]

with reflecting boundaries h_{-1} = h_0 (the empty system has no
customer to lose, so its departure term vanishes) and h_{K+1} = h_K
(the full state's arrival term vanishes).  The relative rewards are
normalized to h_K = 0.

Two solvers are provided: policy iteration with exact LU policy
evaluation, and relative value iteration with a span-seminorm stopping
rule.  Greedy improvement breaks ties toward the lowest price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.special import logsumexp


@dataclass(frozen=True)
class RateModel:
    """Arrival/departure rate functions of price, plus the null price."""

    arrival: Callable[[float], float]
    departure: Callable[[float], float]
    p_max: float

    def arrival_rate(self, p: float) -> float:
        return max(0.0, float(self.arrival(p)))

    def departure_rate(self, p: float) -> float:
        return float(self.departure(p))

    @classmethod
    def from_polynomials(cls, arrival_coeffs, departure_coeffs, p_max: float) -> "RateModel":
        """Coefficients in ascending order, e.g. [24, 0, -1.5] for 24 - 1.5 p^2."""
        lam = np.polynomial.Polynomial(arrival_coeffs)
        dlt = np.polynomial.Polynomial(departure_coeffs)
        return cls(arrival=lam, departure=dlt, p_max=float(p_max))


def uniform_grid(p_max: float, n: int = 1000) -> np.ndarray:
    return np.linspace(0.0, p_max, n)


@dataclass(frozen=True)
class MdpSpec:
    """Problem instance: capacity K (states 0..K), price grid, rate model."""

    capacity: int
    price_grid: np.ndarray
    rates: RateModel

    def __post_init__(self):
        object.__setattr__(self, "price_grid", np.asarray(self.price_grid, dtype=float))
        if self.capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {self.capacity}")
        g = self.price_grid
        if g.ndim != 1 or len(g) < 2:
            raise ValueError("price grid needs at least the prices 0 and p_max")
        if np.any(np.diff(g) <= 0):
            raise ValueError("price grid must be strictly increasing")
        if abs(g[0]) > 1e-12 or abs(g[-1] - self.rates.p_max) > 1e-9:
            raise ValueError("price grid must span [0, p_max] inclusive")
        lam, dlt = self.lam_grid, self.dlt_grid
        slack = 1e-9 * max(1.0, lam.max(initial=0.0), dlt.max(initial=0.0))
        if lam[-1] > slack:
            raise ValueError(f"arrival rate at the null price must be 0, got {lam[-1]}")
        if np.any(np.diff(lam) > slack):
            raise ValueError("arrival rate must be non-increasing in price")
        if np.any(np.diff(dlt) < -slack):
            raise ValueError("departure rate must be non-decreasing in price")
        if np.any(dlt[g > 0] <= 0.0):
            raise ValueError("departure rate must be positive at positive prices")

    @classmethod
    def from_config(cls, cfg: dict) -> "MdpSpec":
        """{"capacity": K, "arrival": coeffs, "departure": coeffs, "p_max": x, "price_points": N}"""
        missing = [k for k in ("capacity", "arrival", "departure", "p_max") if cfg.get(k) is None]
        if missing:
            raise ValueError(f"MDP config is missing {', '.join(map(repr, missing))}")
        capacity = cfg["capacity"]
        if not (isinstance(capacity, (int, float)) and math.isfinite(capacity)
                and capacity == int(capacity)):
            raise ValueError(f"capacity must be a finite whole number, got {capacity!r}")
        rates = RateModel.from_polynomials(cfg["arrival"], cfg["departure"], cfg["p_max"])
        grid = uniform_grid(rates.p_max, int(cfg.get("price_points", 1000)))
        return cls(capacity=int(capacity), price_grid=grid, rates=rates)

    @cached_property
    def lam_grid(self) -> np.ndarray:
        return np.array([self.rates.arrival_rate(p) for p in self.price_grid])

    @cached_property
    def dlt_grid(self) -> np.ndarray:
        return np.array([self.rates.departure_rate(p) for p in self.price_grid])

    def price_index(self, p: float) -> int:
        i = int(np.argmin(np.abs(self.price_grid - p)))
        if abs(self.price_grid[i] - p) > 1e-9 * max(1.0, abs(p)):
            raise ValueError(f"price {p} is not on the grid")
        return i


@dataclass(frozen=True)
class Policy:
    """Posted price per state n = 0..K; the full state must post the null price."""

    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "prices", np.asarray(self.prices, dtype=float))


def validate_policy(spec: MdpSpec, policy: Policy):
    if len(policy.prices) != spec.capacity + 1:
        raise ValueError(
            f"policy must have {spec.capacity + 1} prices (states 0..K), got {len(policy.prices)}"
        )
    for p in policy.prices:
        spec.price_index(p)
    if abs(policy.prices[-1] - spec.rates.p_max) > 1e-9:
        raise ValueError("the full state must post the null price p_max")


def uniformization_rate(spec: MdpSpec) -> float:
    """Largest total transition rate over the price grid."""
    u = float((spec.lam_grid + spec.dlt_grid).max())
    if u <= 0:
        raise ValueError("all transition rates are zero; nothing to uniformize")
    return u


def policy_rates(spec: MdpSpec, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Effective per-state (arrival, departure) rates; no departure from state 0."""
    validate_policy(spec, policy)
    lam = np.array([spec.rates.arrival_rate(p) for p in policy.prices])
    dlt = np.array([spec.rates.departure_rate(p) for p in policy.prices])
    dlt[0] = 0.0
    return lam, dlt


def steady_state(spec: MdpSpec, policy: Policy) -> np.ndarray:
    """Stationary distribution of the birth-death chain under the policy.

    pi_n is proportional to prod_{i<n} arrival_i / departure_{i+1}
    (computed in log space to dodge overflow on long ladders).  A free
    price at a low state makes its departure rate zero, so the chain,
    started empty, climbs past it for good: the distribution is the
    product form restricted to the recurrent class reached from state 0
    and zero elsewhere.
    """
    lam, dlt = policy_rates(spec, policy)
    K = spec.capacity
    # ceiling: first state whose posted price shuts off arrivals
    zero_up = np.nonzero(lam[:K] <= 0.0)[0]
    n_hi = int(zero_up[0]) if len(zero_up) else K
    # floor: highest zero-departure state at or below the ceiling
    zero_dn = np.nonzero(dlt[1 : n_hi + 1] <= 0.0)[0]
    n_lo = int(zero_dn[-1]) + 1 if len(zero_dn) else 0

    with np.errstate(divide="ignore"):
        log_ratio = np.log(lam[n_lo:n_hi]) - np.log(dlt[n_lo + 1 : n_hi + 1])
    log_w = np.concatenate([[0.0], np.cumsum(log_ratio)])
    pi = np.zeros(K + 1)
    pi[n_lo : n_hi + 1] = np.exp(log_w - logsumexp(log_w))
    return pi / pi.sum()


def average_revenue(spec: MdpSpec, policy: Policy) -> float:
    """Long-run revenue per unit time: sum_n pi_n * n * p_n."""
    pi = steady_state(spec, policy)
    states = np.arange(spec.capacity + 1)
    return float(np.sum(pi * states * policy.prices))


def _backup_matrix(h: np.ndarray, states: np.ndarray, prices: np.ndarray,
                   lam_u: np.ndarray, dlt_u: np.ndarray) -> np.ndarray:
    """Right side of the optimality equation for every (state, price) pair.

    q[i, j] = n p + h_n + lam_u[j] (h_{n+1} - h_n) + dlt_u[j] (h_{n-1} - h_n)
    for n = states[i] and p = prices[j], where lam_u and dlt_u are the
    rates at those prices over U; h_{-1} = h_0 and h_{K+1} = h_K.
    """
    h_n = h[states]
    up = h[np.minimum(states + 1, len(h) - 1)] - h_n
    dn = h[np.maximum(states - 1, 0)] - h_n
    q = np.multiply.outer(states, prices)
    q += h_n[:, None]
    q += np.multiply.outer(up, lam_u)
    q += np.multiply.outer(dn, dlt_u)
    return q


def bellman_backup(spec: MdpSpec, n: int, h: np.ndarray, p: float) -> float:
    """One-state backed-up value under relative reward vector h."""
    K = spec.capacity
    if not 0 <= n <= K:
        raise IndexError(f"state {n} outside 0..{K}")
    u = uniformization_rate(spec)
    lam_u, dlt_u = spec.rates.arrival_rate(p) / u, spec.rates.departure_rate(p) / u
    q = _backup_matrix(np.asarray(h, dtype=float), np.array([n]), np.array([p]), [lam_u], [dlt_u])
    return float(q[0, 0])


@dataclass(frozen=True)
class DpSolution:
    j_star: float
    h: np.ndarray
    policy: Policy
    iterations: int

    def to_dict(self) -> dict:
        return {
            "j_star": self.j_star,
            "h": [float(x) for x in self.h],
            "policy": [float(p) for p in self.policy.prices],
            "iterations": self.iterations,
        }

    def csv_rows(self):
        for n, (p, h) in enumerate(zip(self.policy.prices, self.h)):
            yield n, float(p), float(h)


def _greedy(spec: MdpSpec, h: np.ndarray, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy price index and backed-up value per state; ties go to the lowest
    price, and the full state is pinned to the null price."""
    states = np.arange(spec.capacity + 1)
    q = _backup_matrix(h, states, spec.price_grid, spec.lam_grid / u, spec.dlt_grid / u)
    idx = np.argmax(q, axis=1)
    idx[-1] = len(spec.price_grid) - 1
    return idx, q[states, idx]


def _evaluate_policy(spec: MdpSpec, idx: np.ndarray, u: float) -> tuple[float, np.ndarray]:
    """Exact (J, h) with h_K = 0 for a fixed policy, by dense LU.

    Unknowns are h_0..h_K and J: K+1 balance equations plus the
    normalization row.
    """
    K = spec.capacity
    prices = spec.price_grid[idx]
    lam = spec.lam_grid[idx] / u
    dlt = spec.dlt_grid[idx] / u
    dlt[0] = 0.0
    lam[K] = 0.0  # null price pinned; h_{K+1}=h_K would fold it into the diagonal anyway

    n_unknowns = K + 2
    a = np.zeros((n_unknowns, n_unknowns))
    b = np.zeros(n_unknowns)
    for n in range(K + 1):
        a[n, n] = lam[n] + dlt[n]
        if n < K:
            a[n, n + 1] = -lam[n]
        if n > 0:
            a[n, n - 1] = -dlt[n]
        a[n, K + 1] = 1.0
        b[n] = n * prices[n]
    a[K + 1, K] = 1.0

    try:
        lu, piv = scipy.linalg.lu_factor(a)
        x = scipy.linalg.lu_solve((lu, piv), b)
        x += scipy.linalg.lu_solve((lu, piv), b - a @ x)  # one refinement pass
    except scipy.linalg.LinAlgError as exc:
        raise RuntimeError(f"singular policy-evaluation system (degenerate rates): {exc}")
    if not np.all(np.isfinite(x)) or np.max(np.abs(a @ x - b)) > 1e-6 * max(1.0, np.abs(x).max()):
        raise RuntimeError("singular policy-evaluation system (degenerate rates)")
    return float(x[K + 1]), x[: K + 1]


def _no_demand_solution(spec: MdpSpec) -> DpSolution:
    """With zero arrivals at every price nothing is ever sold: J* = 0.

    Pricing is then irrelevant; by convention the lowest grid price is
    posted everywhere (null price at the full state) and h is zero.
    """
    prices = np.full(spec.capacity + 1, spec.price_grid[0])
    prices[-1] = spec.rates.p_max
    return DpSolution(
        j_star=0.0,
        h=np.zeros(spec.capacity + 1),
        policy=Policy(prices),
        iterations=0,
    )


def policy_iteration(spec: MdpSpec, tol: float = 1e-9, max_iter: int = 200) -> DpSolution:
    """Howard policy iteration; converges when the greedy policy is stable."""
    if not np.any(spec.lam_grid > 0):
        return _no_demand_solution(spec)
    u = uniformization_rate(spec)
    K = spec.capacity
    idx = np.full(K + 1, len(spec.price_grid) - 1)  # start from the null price everywhere
    j, h = _evaluate_policy(spec, idx, u)
    for it in range(1, max_iter + 1):
        new_idx, _ = _greedy(spec, h, u)
        if np.array_equal(new_idx, idx):
            break
        idx = new_idx
        j, h = _evaluate_policy(spec, idx, u)
    else:
        raise RuntimeError(f"policy iteration did not stabilize within {max_iter} iterations")

    residual = _bellman_residual(spec, j, h, u)
    if residual > tol * max(1.0, abs(j)):
        raise RuntimeError(
            f"converged policy leaves Bellman residual {residual:.3e} above tolerance"
        )
    return DpSolution(
        j_star=j,
        h=h,
        policy=Policy(spec.price_grid[idx]),
        iterations=it,
    )


def _bellman_residual(spec: MdpSpec, j: float, h: np.ndarray, u: float) -> float:
    _, best = _greedy(spec, h, u)
    return float(np.max(np.abs(j + h - best)))


def relative_value_iteration(
    spec: MdpSpec, tol: float = 1e-9, max_iter: int = 200_000, damping: float = 0.5
) -> DpSolution:
    """Value iteration on relative rewards with a span-seminorm stopping rule.

    Stops when span(Th - h) <= tol * max(1, |J|); the optimal average
    reward then lies within the span bracket.  Iterates are averaged
    with the previous vector (an aperiodicity transformation): the raw
    iteration can settle into a period-2 value oscillation whose span
    never shrinks, while the damped one contracts to machine level.
    """
    if not np.any(spec.lam_grid > 0):
        return _no_demand_solution(spec)
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must be in (0, 1]")
    u = uniformization_rate(spec)
    K = spec.capacity
    h = np.zeros(K + 1)
    for it in range(1, max_iter + 1):
        _, w = _greedy(spec, h, u)
        diff = w - h
        lo, hi = float(diff.min()), float(diff.max())
        j = 0.5 * (lo + hi)
        if hi - lo <= tol * max(1.0, abs(j)):
            h = w - w[K]
            break
        h = (1.0 - damping) * h + damping * (w - w[K])  # keep h_K = 0
    else:
        raise RuntimeError(f"relative value iteration did not reach span {tol} in {max_iter} sweeps")

    idx, _ = _greedy(spec, h, u)
    return DpSolution(
        j_star=j,
        h=h,
        policy=Policy(spec.price_grid[idx]),
        iterations=it,
    )


@dataclass(frozen=True)
class StructureReport:
    h_monotone: bool
    h_concave: bool
    price_monotone: bool
    violations: list

    def all_hold(self) -> bool:
        return self.h_monotone and self.h_concave and self.price_monotone


def verify_structure(sol: DpSolution, slack: float = 1e-9) -> StructureReport:
    """Check the three structural properties of an optimal solution.

    Relative rewards must be non-decreasing and concave in the state,
    and the policy prices non-decreasing; `slack` absorbs float noise.
    """
    j = np.diff(sol.h)
    viol = []
    for n in np.nonzero(j < -slack)[0]:
        viol.append(("h_monotone", int(n)))
    for n in np.nonzero(np.diff(j) > slack)[0]:
        viol.append(("h_concave", int(n) + 1))
    for n in np.nonzero(np.diff(sol.policy.prices) < -slack)[0]:
        viol.append(("price_monotone", int(n)))
    kinds = {k for k, _ in viol}
    return StructureReport(
        h_monotone="h_monotone" not in kinds,
        h_concave="h_concave" not in kinds,
        price_monotone="price_monotone" not in kinds,
        violations=viol,
    )
