"""State-dependent dynamic pricing as an average-reward MDP.

Utilization is discretized in 1-Gbps steps into states n = 0..K.  At
state n the seller posts a price p_n; demand arrives as a Poisson
process with rate ``arrival(p)`` (clamped at zero, and zero at the null
price p_max) and departs with rate ``departure(p)``.  Revenue accrues
at rate n * p_n.  Full capacity forces the null price, so the chain
never overflows; the empty state has nothing to depart.  The spec only
asks arrival(p_max) to be 0 within 1e-9 of the largest rate, so one
gather of per-state rates (`policy_rates`) also zeroes the full state's
arrivals; policy evaluation, the stationary law and the simulator all
take the chain's rates from it.

Uniformizing with U = max over the price grid of arrival + departure
turns the chain into a discrete-time one whose optimality equations are
(Puterman 1994, section 8)

    J* + h_n = max_p [ n p + h_n + arrival(p)/U (h_{n+1} - h_n)
                       + departure(p)/U (h_{n-1} - h_n) ]

with reflecting boundaries h_{-1} = h_0 (the empty system has no
customer to lose, so its departure term vanishes) and h_{K+1} = h_K
(the full state's arrival term vanishes).  The relative rewards are
normalized to h_K = 0.

Two solvers are provided: policy iteration, which evaluates each policy
by the product-form stationary law and two first-order recurrences in
the differences of h, and relative value iteration, an independent
check on it that never solves a linear system.  Relative value
iteration runs as modified policy iteration: an outer loop of greedy
steps, each followed by a fixed number of cheap damped sweeps of the
backup under that step's policy, run in place over buffers made once
per step.  It stops on the span of the last greedy backup, which
brackets J*, and its `iterations` count greedy steps.  One function,
`_backup`, holds the backup formula; every caller hands it the gaps of
h to the neighbours rather than h and the states.

Both improve greedily: each state takes the grid price with the largest
right side, ties going to the lowest price, and the full state keeps
the null price.  The right side at state n is a polynomial in p on each
run of grid prices where the clamped arrival rate stays positive (or
stays zero), so between its critical points and the run boundaries it
is monotone and only the two grid points around each of these special
points can win.  The greedy step evaluates windows of a few grid
points around them, O(K) cells instead of the O(K G) matrix, with the
same per-cell arithmetic, so its result is bit-identical to the full
argmax.  Its per-state arrays hold the states on the last, contiguous
axis (a few candidate rows of K+1 states each), so its reductions run
over a handful of long rows.  Where rounding could flatten a slope into
ties beyond a window, a rounding-error bound flags the state and its
whole row is scanned (see `_greedy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Largest capacity and price grid from_config accepts.  A greedy step holds a
# few arrays of c x (K+1) candidate cells, c = 6 per special point per state
# plus the shared windows (13-19 for the reference models: 0.7-1 KB per state
# at its peak), and a few of G cells.
_MAX_CAPACITY = 10**6
_MAX_PRICES = 10**6
# weight of the new iterate in relative value iteration's averaging step
_DAMPING = 0.5
# fixed-policy sweeps after each greedy step of relative value iteration
_INNER_SWEEPS = 30


def _finite_real(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, (int, float)) and math.isfinite(x)


@dataclass(frozen=True)
class RateModel:
    """Arrival/departure rate polynomials of price (scalar or array), and the null price."""

    arrival: np.polynomial.Polynomial
    departure: np.polynomial.Polynomial
    p_max: float

    def arrival_rate(self, p):
        return np.maximum(0.0, self.arrival(p))

    def departure_rate(self, p):
        return self.departure(p)

    @classmethod
    def from_polynomials(cls, arrival_coeffs, departure_coeffs, p_max: float) -> "RateModel":
        """Coefficients in ascending order, e.g. [24, 0, -1.5] for 24 - 1.5 p^2."""
        lam = np.polynomial.Polynomial(arrival_coeffs)
        dlt = np.polynomial.Polynomial(departure_coeffs)
        return cls(arrival=lam, departure=dlt, p_max=float(p_max))


@dataclass(frozen=True)
class MdpSpec:
    """Problem instance: capacity K (states 0..K), price grid, rate model."""

    capacity: int
    price_grid: np.ndarray
    rates: RateModel

    def __post_init__(self):
        object.__setattr__(self, "price_grid", np.asarray(self.price_grid, dtype=float))
        if not self.capacity >= 1:
            raise ValueError(f"capacity must be at least 1, got {self.capacity}")
        g = self.price_grid
        if g.ndim != 1 or len(g) < 2:
            raise ValueError("price grid needs at least the prices 0 and p_max")
        if not np.all(np.diff(g) > 0):  # also false for NaN, which fails every comparison
            raise ValueError("price grid must be finite and strictly increasing")
        if not (abs(g[0]) <= 1e-12 and abs(g[-1] - self.rates.p_max) <= 1e-9):
            raise ValueError("price grid must span [0, p_max] inclusive")
        if not math.isfinite(self.capacity * float(g[-1])):
            raise ValueError(f"the full state's revenue rate capacity x p_max overflows: "
                             f"{self.capacity} x {g[-1]:g}")
        lam, dlt = self.lam_grid, self.dlt_grid
        if not np.all(np.isfinite([lam, dlt])):
            raise ValueError("arrival and departure rates must be finite on the price grid")
        slack = 1e-9 * max(1.0, lam.max(initial=0.0), dlt.max(initial=0.0))
        if lam[-1] > slack:
            raise ValueError(f"arrival rate at the null price must be 0, got {lam[-1]}")
        if np.any(np.diff(lam) > slack):
            raise ValueError("arrival rate must be non-increasing in price")
        if np.any(np.diff(dlt) < -slack):
            raise ValueError("departure rate must be non-decreasing in price")
        if dlt[0] < 0.0:
            raise ValueError(f"departure rate at price 0 must be at least 0, got {dlt[0]}")
        if np.any(dlt[g > 0] <= 0.0):
            raise ValueError("departure rate must be positive at positive prices")

    @classmethod
    def from_config(cls, cfg: dict) -> "MdpSpec":
        """{"capacity": K, "arrival": coeffs, "departure": coeffs, "p_max": x, "price_points": N}"""
        if not isinstance(cfg, dict):
            raise ValueError(f"MDP config must be a JSON object, got {type(cfg).__name__}")
        required = ("capacity", "arrival", "departure", "p_max")
        keys = (*required, "price_points")
        unknown = [k for k in cfg if k not in keys]
        if unknown:
            raise ValueError(f"unknown MDP config key {unknown[0]!r}; keys are {', '.join(keys)}")
        missing = [k for k in required if cfg.get(k) is None]
        if missing:
            raise ValueError(f"MDP config is missing {', '.join(map(repr, missing))}")
        cfg = {"price_points": 1000, **cfg}
        for key, whole, low in [("capacity", True, 0), ("p_max", False, 0),
                                ("price_points", True, 1)]:
            x = cfg[key]
            if not _finite_real(x) or x <= low or (whole and x != int(x)):
                kind = "whole number" if whole else "number"
                raise ValueError(f"{key} must be a finite {kind} above {low}, got {x!r}")
        for key in ("arrival", "departure"):
            c = cfg[key]
            if not (isinstance(c, list) and c and all(map(_finite_real, c))):
                raise ValueError(f"{key} must be a non-empty list of finite numbers, got {c!r}")
        for key, top in (("capacity", _MAX_CAPACITY), ("price_points", _MAX_PRICES)):
            if cfg[key] > top:
                raise ValueError(f"{key} {int(cfg[key])} is above the limit of {top}")
        rates = RateModel.from_polynomials(cfg["arrival"], cfg["departure"], cfg["p_max"])
        grid = np.linspace(0.0, rates.p_max, int(cfg["price_points"]))
        return cls(capacity=int(cfg["capacity"]), price_grid=grid, rates=rates)

    # finite coefficients can still overflow on the grid; __post_init__ refuses a non-finite rate
    @cached_property
    def lam_grid(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.rates.arrival_rate(self.price_grid)

    @cached_property
    def dlt_grid(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.rates.departure_rate(self.price_grid)

    @cached_property
    def _uniformized(self) -> tuple[float, np.ndarray, np.ndarray]:
        """U = uniformization_rate(self), lam_grid / U and dlt_grid / U."""
        u = uniformization_rate(self)
        return u, self.lam_grid / u, self.dlt_grid / u

    @cached_property
    def _greedy_terms(self):
        """What `_greedy` needs of the spec beyond the grids.

        The candidates every state shares: the windows around the grid
        ends and around each kink (the first index of a new run of
        positive or zero clamped arrival rates).  The certificate's edges:
        the candidate rows (row, step) whose neighbour price one step
        outside is not a candidate, for the shared windows and for each
        root window.  The derivatives of the arrival and departure
        polynomials as two coefficient columns.  Whether a zero-arrival
        run holds more than the null price.  sum |c_k| p_max^k of each
        rate polynomial, which bounds its evaluation error over eps, and
        the larger of the two degrees.
        """
        lam, dlt = self.rates.arrival, self.rates.departure
        pos = self.lam_grid > 0
        G = len(pos)
        kinks = np.flatnonzero(pos[1:] != pos[:-1]) + 1
        fixed = np.unique(np.clip(np.r_[0, G, kinks][:, None] + _WINDOW, 0, G - 1))
        beyond = fixed + np.array([[-1], [1]])
        fixed_edge, side = np.nonzero(((beyond >= 0) & (beyond < G) & ~np.isin(beyond, fixed)).T)
        dl, dd = lam.deriv().coef, dlt.deriv().coef
        width = max(len(dl), len(dd))
        slopes = np.zeros((2, width, 1))
        slopes[0, : len(dl), 0], slopes[1, : len(dd), 0] = dl, dd
        clamped = not pos[:-1].all()
        # each polynomial piece has width - 1 roots, and each root a window of candidates
        f, w = len(fixed), (width - 1) * (1 + clamped) * len(_WINDOW)
        first = np.arange(f, f + w, len(_WINDOW))
        edge = np.concatenate([fixed_edge, first, first + len(_WINDOW) - 1])
        step = np.concatenate([2 * side - 1, np.repeat([-1, 1], len(first))])
        p = abs(self.price_grid[-1])
        with np.errstate(over="ignore"):  # an infinite bound certifies no state by its window
            rate_abs = [np.polynomial.polynomial.polyval(p, np.abs(c.coef)) for c in (lam, dlt)]
        degree = max(len(lam.coef), len(dlt.coef)) - 1
        return fixed, edge, step[:, None], slopes, clamped, rate_abs, degree


@dataclass(frozen=True)
class Policy:
    """Posted price per state n = 0..K; the full state must post the null price."""

    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "prices", np.asarray(self.prices, dtype=float))


def validate_policy(spec: MdpSpec, policy: Policy) -> np.ndarray:
    """Check the policy against the spec; returns the grid index of each price."""
    p, g = policy.prices, spec.price_grid
    if len(p) != spec.capacity + 1:
        raise ValueError(f"policy must have {spec.capacity + 1} prices (states 0..K), got {len(p)}")
    tol = 1e-9 * np.maximum(1.0, np.abs(p))
    idx = np.minimum(np.searchsorted(g, p - tol), len(g) - 1)  # lowest grid point within tol
    off = ~(np.abs(g[idx] - p) <= tol)  # NaN prices are off the grid too
    if off.any():
        raise ValueError(f"price {p[off][0]} is not on the grid")
    if idx[-1] != len(g) - 1:
        raise ValueError("the full state must post the null price p_max")
    return idx


def uniformization_rate(spec: MdpSpec) -> float:
    """Largest total transition rate over the price grid."""
    u = float((spec.lam_grid + spec.dlt_grid).max())
    if u <= 0:
        raise ValueError("all transition rates are zero; nothing to uniformize")
    return u


def _chain_rates(spec: MdpSpec, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-state (arrival, departure) rates of the chain posting grid price idx[n]
    at state n: nothing departs the empty state and nothing arrives at the full one."""
    lam, dlt = spec.lam_grid[idx], spec.dlt_grid[idx]
    dlt[0] = lam[-1] = 0.0
    return lam, dlt


def policy_rates(spec: MdpSpec, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Effective per-state (arrival, departure) rates of the policy's chain:
    none departs state 0 and none arrives at the full state K."""
    return _chain_rates(spec, validate_policy(spec, policy))


def _logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) with the maximum shifted out; the maximum must be finite."""
    top = x.max()
    return top + np.log(np.sum(np.exp(x - top)))


def _stationary_law(lam: np.ndarray, dlt: np.ndarray) -> tuple[np.ndarray, int]:
    """Stationary law of the birth-death chain with per-state rates lam, dlt
    started empty, and the top state of its recurrent class.

    pi_n is proportional to prod_{i<n} lam_i / dlt_{i+1} (computed in log
    space to dodge overflow on long ladders).  A state whose arrivals are
    shut off caps the class; a zero departure rate at a lower state lets
    the chain climb past it for good.  pi is the product form restricted
    to that recurrent class and zero elsewhere.
    """
    K = len(lam) - 1
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
    pi[n_lo : n_hi + 1] = np.exp(log_w - _logsumexp(log_w))  # log_w[0] = 0 is finite
    return pi / pi.sum(), n_hi


def steady_state(spec: MdpSpec, policy: Policy) -> np.ndarray:
    """Stationary distribution of the birth-death chain under the policy,
    on the recurrent class reached from state 0 (see `_stationary_law`)."""
    return _stationary_law(*policy_rates(spec, policy))[0]


def revenue_rate(pi: np.ndarray, prices: np.ndarray) -> float:
    """Long-run revenue per unit time of the chain with stationary law pi posting
    prices[n] at state n: sum_n pi_n * n * p_n."""
    return float(np.sum(pi * np.arange(len(pi)) * prices))


def average_revenue(spec: MdpSpec, policy: Policy) -> float:
    """Long-run revenue per unit time of the policy's chain (see `revenue_rate`)."""
    return revenue_rate(steady_state(spec, policy), policy.prices)


def _backup(rev, h_n, up, dn, lam_u, dlt_u, out=None) -> np.ndarray:
    """Right side of the optimality equation, elementwise over the broadcast
    of its arguments.

    q = n p + h_n + lam_u (h_{n+1} - h_n) + dlt_u (h_{n-1} - h_n), from the
    revenue rate rev = n p, h_n, the gaps up = h_{n+1} - h_n and
    dn = h_{n-1} - h_n to the neighbours (zero past the ends: h_{-1} = h_0
    and h_{K+1} = h_K), and the rates at the price over U.  q is written
    to `out` when it is given.
    """
    q = np.add(rev, h_n, out=out)
    q += up * lam_u
    q += dn * dlt_u
    return q


def _gaps(h: np.ndarray) -> np.ndarray:
    """d_n = h_n - h_{n-1} for n = 0..K+1 (K+2 entries), zero at both ends.
    State n's upper gap h_{n+1} - h_n is d_{n+1}, and its lower gap
    h_{n-1} - h_n is -d_n exactly, since rounding is symmetric."""
    d = np.zeros(len(h) + 1)
    np.subtract(h[1:], h[:-1], out=d[1:-1])
    return d


def bellman_backup(spec: MdpSpec, n: int, h: np.ndarray, p: float) -> float:
    """One-state backed-up value under relative reward vector h."""
    K = spec.capacity
    if not 0 <= n <= K:
        raise IndexError(f"state {n} outside 0..{K}")
    u = spec._uniformized[0]
    lam_u, dlt_u = spec.rates.arrival_rate(p) / u, spec.rates.departure_rate(p) / u
    h = np.asarray(h, dtype=float)
    d = _gaps(h)
    return float(_backup(n * p, h[n], d[n + 1], -d[n], lam_u, dlt_u))


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


def _real_roots(coef: np.ndarray) -> np.ndarray:
    """Real parts of the roots of each column's polynomial (ascending
    coefficients down the column), NaN-padded to one row per degree of the
    tallest column.

    The roots are the eigenvalues of each column's companion matrix,
    batched by trimmed degree: in closed form for degrees 1 and 2 (the
    matrix entry; half the trace plus or minus the root of the
    discriminant), by one `numpy.linalg.eigvals` call for each higher
    degree.  A leading coefficient that is zero, or below 1e-100 of the
    column's largest (its root then lies ~1e33 or more away), drops the
    column to a lower degree; a column of zeros has no roots.  Every real
    part is kept: a near-double root that rounding splits into a complex
    pair still marks its place.
    """
    width = len(coef)
    mag = np.abs(coef)
    live = mag > 1e-100 * mag.max(axis=0)
    deg = (live * np.arange(width)[:, None]).max(axis=0)
    roots = np.full((width - 1, coef.shape[1]), np.nan)
    for d in range(1, width):
        cols = np.flatnonzero(deg == d)
        if not len(cols):
            continue
        c = coef[:d, cols] / coef[d, cols]  # monic: p^d + c[d-1] p^(d-1) + ... + c[0]
        if d == 1:
            roots[0, cols] = -c[0]
        elif d == 2:
            half = -0.5 * c[1]
            disc = half * half - c[0]
            big = half + np.copysign(np.sqrt(np.maximum(disc, 0.0)), half)
            roots[0, cols] = big
            # the product of the roots over the larger one; unused (and maybe 0/0) where disc < 0
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                roots[1, cols] = np.where(disc < 0.0, half, c[0] / big)
        else:
            comp = np.zeros((len(cols), d, d))
            comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
            comp[:, :, -1] = -c.T
            roots[:d, cols] = np.linalg.eigvals(comp).real.T
    return roots


# candidate prices around a special point at grid index i (from searchsorted):
# i-1 and i are the two grid points around it, one more on each side absorbs
# root error, and the outermost two are the edges the certificate checks
_WINDOW = np.arange(-3, 3)
# most cells per block when rows that fail the certificate are scanned in full
_FULL_ROW_CELLS = 1 << 20
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).smallest_subnormal


def _greedy(spec: MdpSpec, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy price index and backed-up value per state; ties go to the lowest
    price, and the full state is pinned to the null price.

    Same result, bit for bit, as the argmax over the whole (K+1) x G backup
    matrix, from a few candidate prices per state.  For state n the backup
    is n p + h_n + a_n lam(p) + b_n dlt(p), with a_n, b_n the differences
    of h to the neighbours over U: one polynomial in p on each run of grid
    prices where the clamped arrival rate stays positive, another (without
    the lam term) where it stays zero.  Between special points -- the grid
    ends, the run boundaries and the critical points of either polynomial
    -- the backup is strictly monotone on the grid, so a neighbour beats
    every grid point but the two around a special point.  The candidates
    are the window i-3..i+2 around each special point.

    Every per-state array holds the states on its last, contiguous axis:
    the coefficients are (width, K+1), the roots (r, K+1) and the
    candidate cells (cells, K+1), so each reduction over a state's cells
    runs down short columns of long rows.

    Rounding can still flatten a slope into a plateau of near-ties whose
    lowest index the full argmax would return.  So each state is
    certified: a window edge that faces unevaluated grid points must lie
    below the state's best by more than twice a bound on the rounding
    error of q, so that nothing on the monotone stretch beyond it reaches
    the best.  States that fail are evaluated on the whole grid.
    """
    grid, K = spec.price_grid, spec.capacity
    G = len(grid)
    fixed, edge, step, slopes, clamped, rate_abs, degree = spec._greedy_terms
    u, lam_u, dlt_u = spec._uniformized
    d = _gaps(h)
    up, dn = d[1:], -d[:-1]
    a, b = up / u, dn / u  # (h_{n+1} - h_n)/U and (h_{n-1} - h_n)/U, zero past the ends
    n = np.arange(K + 1)

    coef = slopes[0] * a + slopes[1] * b
    coef[0] += n
    roots = _real_roots(coef)
    if clamped:  # the critical points of the zero-arrival piece
        coef = slopes[1] * b
        coef[0] += n
        roots = np.concatenate([roots, _real_roots(coef)])
    f = len(fixed)
    cand = np.empty((f + len(roots) * len(_WINDOW), K + 1), dtype=np.intp)
    cand[:f] = fixed[:, None]
    win = cand[f:].reshape(len(roots), len(_WINDOW), K + 1)
    np.add(np.searchsorted(grid, roots)[:, None], _WINDOW[:, None], out=win)
    np.maximum(win, 0, out=win)
    np.minimum(win, G - 1, out=win)
    cand[:, K] = G - 1

    q = _backup(n * grid.take(cand), h, up, dn, lam_u.take(cand), dlt_u.take(cand))
    best = q.max(axis=0)
    idx = np.where(q == best, cand, G).min(axis=0)

    # certificate: each window edge facing unevaluated prices must be clearly below the best
    # q is four roundings of sums of terms bounded by `scale`, two of which hold a
    # Horner evaluation of degree d: |q - exact| <= (d + 4) eps scale, plus one
    # subnormal spacing per rounding for underflow; one more eps for slack
    # an infinite rate bound times a zero gap is NaN, which certifies nothing either
    with np.errstate(over="ignore", invalid="ignore"):
        scale = n * grid[-1] + np.abs(h) + np.abs(a) * rate_abs[0] + np.abs(b) * rate_abs[1]
        err = (degree + 5) * (_EPS * scale + _TINY)
    beyond = cand[edge, :K] + step
    near = ~(q[edge, :K] < best[:K] - 2 * err[:K])
    cols, states = np.nonzero(near & (beyond >= 0) & (beyond < G))
    if len(states):  # certified after all if the price beyond the edge was evaluated
        seen = (cand[:, states] == beyond[cols, states]).any(axis=0)
        bad = np.unique(states[~seen])
        per = max(1, _FULL_ROW_CELLS // G)
        for lo in range(0, len(bad), per):
            r = bad[lo : lo + per, None]
            full = _backup(r * grid, h[r], up[r], dn[r], lam_u, dlt_u)
            idx[r[:, 0]], best[r[:, 0]] = full.argmax(axis=1), full.max(axis=1)
    return idx, best


def _affine_scan(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """x with x_n = a_n x_{n-1} + c_n and x_{-1} = 0, by recursive doubling
    (Kogge and Stone 1973): after the step of shift s, (a_n, c_n) is the
    composition of the maps n-2s+1..n, so log2(len) vectorised steps."""
    a, c = a.copy(), c.copy()
    s = 1
    while s < len(c):
        c[s:] += a[s:] * c[:-s]
        a[s:] *= a[:-s]
        s *= 2
    return c


def _evaluate_policy(spec: MdpSpec, idx: np.ndarray) -> tuple[float, np.ndarray]:
    """(J, h) with h_K = 0 for a fixed policy (Puterman 1994, section 8.6).

    J is the product-form revenue rate.  h then solves the K+1 balance
    equations dlt_n D_{n-1} - lam_n D_n = n p_n - J =: b_n (rates over U,
    D_n = h_{n+1} - h_n), which have rank K when the policy has one
    recurrent class.  Dropping equation m, for the most likely state m,
    leaves two first-order recurrences in the differences: upward from
    state 0 below m, D_n = (dlt_n D_{n-1} - b_n) / lam_n with dlt_0 = 0,
    and downward from K above m, D_{n-1} = (lam_n D_n + b_n) / dlt_n with
    lam_K = 0.  Both run toward the mode, where the stationary law grows,
    so their multipliers are typically below 1.  Below m every lam_n > 0
    and above m every dlt_n > 0 (m lies in the recurrent class); a
    zero coefficient restarts a recurrence (transient states under a
    zero-departure floor).  h_n = -(D_n + ... + D_{K-1}).
    """
    K, u = spec.capacity, spec._uniformized[0]
    states, prices = np.arange(K + 1), spec.price_grid[idx]
    lam, dlt = _chain_rates(spec, idx)
    pi, n_hi = _stationary_law(lam, dlt)
    if np.any(dlt[n_hi + 1 :] <= 0.0):
        raise RuntimeError("policy has two closed classes; its average reward is not unique")
    j = revenue_rate(pi, prices)
    b = states * prices - j
    lam, dlt = lam / u, dlt / u

    m = int(np.argmax(pi))  # equation m holds only through J, to J's rounding over pi_m
    h = np.zeros(K + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused below
        # D_0..D_{m-1} upward, then D_{K-1}..D_m downward: lam_K = 0 restarts the scan
        a = np.concatenate([dlt[:m] / lam[:m], (lam[m + 1 :] / dlt[m + 1 :])[::-1]])
        c = np.concatenate([-b[:m] / lam[:m], (b[m + 1 :] / dlt[m + 1 :])[::-1]])
        x = _affine_scan(a, c)
        h[K - 1 :: -1] = -np.cumsum(np.concatenate([x[m:], x[:m][::-1]]))  # D_{K-1} first
        d = np.diff(h)
        resid = dlt * np.append(0.0, d) - lam * np.append(d, 0.0) - b
    r = np.abs(resid).max()
    if not (math.isfinite(j) and np.isfinite(h).all() and math.isfinite(r)):
        raise RuntimeError("policy evaluation overflowed: the model's values exceed the float range")
    if r > 1e-6 * max(1.0, abs(j), np.abs(h).max()):
        raise RuntimeError("singular policy-evaluation system (degenerate rates)")
    return j, h


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


def _check_tol(tol: float) -> None:
    if not (_finite_real(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number above 0, got {tol!r}")


# roundings in one backup and the evaluation of h: the Bellman residual of an exact
# solve can reach a few ulps of the largest of J and |h|, whatever tol asks
_FLOOR_ULPS = 4


def policy_iteration(spec: MdpSpec, tol: float = 1e-9, max_iter: int = 200) -> DpSolution:
    """Howard policy iteration; converges when the greedy policy is stable.

    The stable policy is accepted when its Bellman residual is at most
    tol * max(1, |J|) plus the rounding floor `_FLOOR_ULPS` eps
    max(|J|, max|h|); a stiff chain's h can be so large that rounding alone
    exceeds the tolerance, and refusing it would blame the solve.
    """
    _check_tol(tol)
    if not np.any(spec.lam_grid > 0):
        return _no_demand_solution(spec)
    idx = np.full(spec.capacity + 1, len(spec.price_grid) - 1)  # null price everywhere
    j, h = _evaluate_policy(spec, idx)
    for it in range(1, max_iter + 1):
        new_idx, best = _greedy(spec, h)
        if np.array_equal(new_idx, idx):
            break
        idx = new_idx
        j, h = _evaluate_policy(spec, idx)
    else:
        raise RuntimeError(f"policy iteration did not stabilize within {max_iter} iterations")

    residual = float(np.max(np.abs(j + h - best)))  # the last greedy step backs up this h
    bound = tol * max(1.0, abs(j))
    floor = _FLOOR_ULPS * _EPS * max(abs(j), float(np.max(np.abs(h))))
    if residual > bound + floor:
        raise RuntimeError(
            f"converged policy leaves Bellman residual {residual:.3e} above tolerance "
            f"{bound:.3e} plus rounding floor {floor:.3e}"
        )
    return DpSolution(
        j_star=j,
        h=h,
        policy=Policy(spec.price_grid[idx]),
        iterations=it,
    )


def _sweep_policy(spec: MdpSpec, idx: np.ndarray, h: np.ndarray) -> None:
    """`_INNER_SWEEPS` damped sweeps of the backup under the policy idx,
    h <- (1 - D) h + D (w - w_K) with w the backup of h, updating h in place.

    The rates and n p are gathered once, and every sweep writes into the
    same two buffers: the gaps of h (see `_gaps`) and the backup w.  The
    lower gap h_{n-1} - h_n is the negated upper gap of state n-1, so the
    departure rates are negated once instead; each product and sum is the
    one the backup at gathered gaps would round, in the same order.
    """
    K, u = spec.capacity, spec._uniformized[0]
    lam, dlt = _chain_rates(spec, idx)
    rev, lam_u, neg_dlt_u = np.arange(K + 1) * spec.price_grid[idx], lam / u, dlt / -u
    d, w = np.zeros(K + 2), np.empty(K + 1)
    h_hi, h_lo, d_in, d_up, d_dn = h[1:], h[:-1], d[1:-1], d[1:], d[:-1]  # views, made once
    for _ in range(_INNER_SWEEPS):
        np.subtract(h_hi, h_lo, out=d_in)  # the gaps of h, as `_gaps` computes them
        _backup(rev, h, d_up, d_dn, lam_u, neg_dlt_u, out=w)
        w -= w[K]  # keep h_K = 0
        w *= _DAMPING
        h *= 1.0 - _DAMPING
        h += w


def relative_value_iteration(spec: MdpSpec, tol: float = 1e-9, max_iter: int = 10_000) -> DpSolution:
    """Relative value iteration as modified policy iteration (Puterman and
    Shin 1978; Puterman 1994, ch. 8), with a span-seminorm stop.

    Each outer step is a full greedy backup Th.  It stops when
    span(Th - h) <= tol * max(1, |J|), J the mid-range of Th - h; for any
    h, min(Th - h) <= J* <= max(Th - h) (Odoni 1969), so the reported J*
    carries that bracket.  Otherwise h moves to the backup, and then
    `_INNER_SWEEPS` cheap sweeps under the greedy step's policy follow
    (`_sweep_policy`): the same backup at the chosen prices only, with
    rates and n p gathered once and h updated in place.
    Every update is averaged with the previous vector (an aperiodicity
    transformation): the raw iteration can settle into a period-2 value
    oscillation whose span never shrinks, while the damped one contracts
    to machine level.  `iterations` and `max_iter` count greedy steps.
    """
    _check_tol(tol)
    if not np.any(spec.lam_grid > 0):
        return _no_demand_solution(spec)
    K = spec.capacity
    h = np.zeros(K + 1)
    # values past the float range turn the span non-finite, which is refused by name
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            idx, w = _greedy(spec, h)
            diff = w - h
            lo, hi = float(diff.min()), float(diff.max())
            if not math.isfinite(hi - lo):
                raise RuntimeError(f"relative value iteration overflowed at greedy step {it}: "
                                   "the model's values exceed the float range")
            j = 0.5 * (lo + hi)
            if hi - lo <= tol * max(1.0, abs(j)):
                h = w - w[K]
                break
            h = (1.0 - _DAMPING) * h + _DAMPING * (w - w[K])  # keep h_K = 0
            _sweep_policy(spec, idx, h)
        else:
            raise RuntimeError(
                f"relative value iteration did not reach span {tol} in {max_iter} greedy steps"
            )

    idx, _ = _greedy(spec, h)
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
    worst_violation: float  # largest violation over its scale (see verify_structure); 0 if none

    def all_hold(self) -> bool:
        return self.h_monotone and self.h_concave and self.price_monotone


def verify_structure(sol: DpSolution, slack: float = 1e-9) -> StructureReport:
    """Check the three structural properties of an optimal solution.

    Relative rewards must be non-decreasing and concave in the state,
    and the policy prices non-decreasing; `slack` absorbs float noise.
    `worst_violation` is the largest breach relative to max(1, max|h|)
    for the h properties and to max(1, max price) for the prices, so
    rounding noise (~1e-16) reads apart from a real breach.
    """
    j = np.diff(sol.h)
    h_scale = max(1.0, float(np.abs(sol.h).max()))
    p_scale = max(1.0, float(np.abs(sol.policy.prices).max()))
    # (kind, breach size per position, state offset, scale): a breach is a size above slack
    checks = [("h_monotone", -j, 0, h_scale), ("h_concave", np.diff(j), 1, h_scale),
              ("price_monotone", -np.diff(sol.policy.prices), 0, p_scale)]
    viol = [(kind, int(n) + off) for kind, x, off, _ in checks for n in np.flatnonzero(x > slack)]
    kinds = {k for k, _ in viol}
    return StructureReport(
        h_monotone="h_monotone" not in kinds,
        h_concave="h_concave" not in kinds,
        price_monotone="price_monotone" not in kinds,
        violations=viol,
        worst_violation=max(float((x[x > slack] / sc).max(initial=0.0)) for _, x, _, sc in checks),
    )
