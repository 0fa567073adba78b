"""Expected-profit maximization for spot transit under overflow risk.

The seller prices capacity C (Gbps) sold at p $/Mbps with unit cost r.
Billable demand is d(p) + eps; whenever it spills past C the overflow
is penalized at m $/Mbps, so the expected profit is

    E[R(p)] = (p - r) d(p) - m * E[(d(p) - C + eps)+]

which is quasiconcave in p for any decreasing convex demand curve.  Its
derivative has the closed form

    E'[R(p)] = d(p) + d'(p) (p - r - m Pr(eps > C - d(p)))

and the optimizer locates the unique stationary point by bracketing a
sign change of E' and bisecting.  In exact arithmetic E' < 0 at the
bracket's upper end, but at large prices d'(p) can underflow to 0, so
that E' there reads 0.0 (or d(p) > 0 when only the slope underflows) and
no sign change shows.  A golden-section pass over the same bracket then
maximizes the profit itself; quasiconcavity makes both routes exact.
Both searches stop at an absolute bracket width of 1e-10, or earlier
when the bracket spans adjacent doubles and can no longer shrink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .demand import DemandSpec
from .record import Record
from .uncertainty import UncertaintyModel

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# absolute bracket width at which the price search stops; from about 5e5 $/Mbps up
# adjacent doubles lie farther apart, so the search also stops when it cannot shrink
_PRICE_TOL = 1e-10


@dataclass(frozen=True)
class MarketParams:
    """Spot-market constants: cost r, overflow penalty m, capacity C.

    ``r_bar``/``p_bar`` (regular-transit cost and price) are optional
    and only needed for the price-advantage check and welfare baselines.
    """

    r: float
    m: float
    capacity: float
    r_bar: float = None  # type: ignore[assignment]
    p_bar: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError(f"provision cost r must be positive, got {self.r}")
        # m = 0 is allowed so the risk-free benchmark price is computable
        if self.m < 0:
            raise ValueError(f"overflow penalty m must be non-negative, got {self.m}")
        if not self.capacity > 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")


@dataclass(frozen=True)
class StaticSolution(Record):
    """Solved spot price and its profit decomposition."""

    p_star: float
    expected_profit: float
    risk_free_profit: float
    overflow_loss: float
    overflow_probability: float
    elasticity_at_opt: float


def validate_market(d: DemandSpec, u: UncertaintyModel, mp: MarketParams):
    """Check the cross-cutting model assumptions (noise support below capacity)."""
    if not u.b < mp.capacity:
        raise ValueError(
            f"noise support must sit below capacity (b={u.b} >= C={mp.capacity}); "
            "positive residual capacity is a model assumption"
        )


def expected_profit(d: DemandSpec, u: UncertaintyModel, mp: MarketParams, p):
    """(p - r) d(p) - m * E[(d(p) - C + eps)+].  Accepts scalar or array p."""
    dem = d.demand(p)
    return (np.asarray(p, dtype=float) - mp.r) * dem - mp.m * u.partial_overshoot(mp.capacity - dem)


def profit_derivative(d: DemandSpec, u: UncertaintyModel, mp: MarketParams, p):
    """d(p) + d'(p) (p - r - m Pr(eps > C - d(p))).  Accepts scalar or array p."""
    dem = d.demand(p)
    tail = u.tail_probability(mp.capacity - dem)
    return dem + d.slope(p) * (np.asarray(p, dtype=float) - mp.r - mp.m * tail)


def _golden_max(f, lo: float, hi: float) -> float:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    dd = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(dd)
    while b - a > _PRICE_TOL and a < c < dd < b:
        if fc >= fd:
            b, dd, fd = dd, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, dd, fd
            dd = a + _GOLDEN * (b - a)
            fd = f(dd)
    return 0.5 * (a + b)


def optimize_price(d: DemandSpec, u: UncertaintyModel, mp: MarketParams) -> StaticSolution:
    """Solve for the unique profit-maximizing spot price.

    Raises ValueError when the market assumptions fail or when no
    interior maximum exists in (r, upper bracket) -- both signal
    degenerate parameters rather than solver failure.
    """
    validate_market(d, u, mp)
    lo = mp.r * (1.0 + 1e-6)
    hi = d.upper_bracket(mp.r, mp.m)
    if not lo < hi:
        raise ValueError(
            f"no price range above cost: r={mp.r} vs upper bracket {hi} (degenerate parameters)"
        )

    f = lambda p: profit_derivative(d, u, mp, p)
    f_lo, f_hi = f(lo), f(hi)
    if f_lo <= 0:
        raise ValueError("profit is non-increasing at the cost floor; degenerate parameters")

    if f_hi < 0:
        # bisect the sign change of E'
        a, b = lo, hi
        while b - a > _PRICE_TOL:
            mid = 0.5 * (a + b)
            if not a < mid < b:  # adjacent doubles
                break
            if f(mid) > 0:
                a = mid
            else:
                b = mid
        p_star = 0.5 * (a + b)
    else:
        # no sign change (E'(hi) underflowed): maximize the quasiconcave profit itself
        p_star = _golden_max(lambda p: expected_profit(d, u, mp, p), lo, hi)
        if hi - p_star <= 2.0 * _PRICE_TOL or p_star - lo <= 2.0 * _PRICE_TOL:
            raise ValueError("no interior stationary point in the search bracket; degenerate parameters")

    dem = d.demand(p_star)
    phi = (p_star - mp.r) * dem
    lam = mp.m * u.partial_overshoot(mp.capacity - dem)
    return StaticSolution(
        p_star=p_star,
        expected_profit=phi - lam,
        risk_free_profit=phi,
        overflow_loss=lam,
        overflow_probability=u.tail_probability(mp.capacity - dem),
        elasticity_at_opt=d.elasticity(p_star),
    )


def regular_price(d_bar: DemandSpec, r_bar: float) -> float:
    """Profit-maximizing price of the regular (aggregate) market, (p - r̄) d̄(p).

    The closed form is the demand family's ``regular_price``.  The solution
    always carries elasticity above one; if it does not, the inputs are
    inconsistent and a ValueError is raised.
    """
    if not r_bar > 0:
        raise ValueError(f"regular cost must be positive, got {r_bar}")
    p_bar = d_bar.regular_price(r_bar)
    if not d_bar.elasticity(p_bar) > 1.0:
        raise ValueError("regular price solves to elasticity <= 1; inconsistent demand curve")
    return p_bar


@dataclass(frozen=True)
class PriceAdvantage(Record):
    """Sufficient-condition check for the spot price undercutting the regular price."""

    condition_holds: bool
    discount_observed: bool
    bound_value: float  # cost ceiling: r̄ - m (1 - 1/σ(p*)) * tail bound


def check_price_advantage(
    d: DemandSpec, u: UncertaintyModel, mp: MarketParams, sol: StaticSolution
) -> PriceAdvantage:
    """Evaluate r <= r̄ - m (1 - 1/σ(p*)) * theta^2/(theta^2 + (C - d(p*) - mu)^2).

    The last factor is the one-sided Chebyshev bound on the overflow
    probability; when the condition holds, the spot price is provably
    below the regular price.  Requires r̄ and p̄ on the market params.
    """
    if mp.r_bar is None or mp.p_bar is None:
        raise ValueError("price-advantage check needs both r_bar and p_bar")
    t = mp.capacity - d.demand(sol.p_star)
    # above-mean overflow threshold is the normal operating regime; if the
    # optimum sits below the mean, fall back on the trivial probability bound
    bound = u.cantelli_bound(t) if t > u.mu else 1.0
    sigma = d.elasticity(sol.p_star)
    ceiling = mp.r_bar - mp.m * (1.0 - 1.0 / sigma) * bound
    return PriceAdvantage(
        condition_holds=bool(mp.r <= ceiling),
        discount_observed=bool(sol.p_star < mp.p_bar),
        bound_value=float(ceiling),
    )
