"""Expected-profit maximization for spot transit under overflow risk.

The seller prices capacity C (Gbps) sold at p $/Mbps with unit cost r.
Billable demand is d(p) + eps; whenever it spills past C the overflow
is penalized at m $/Mbps, so the expected profit is

    E[R(p)] = (p - r) d(p) - m * E[(d(p) - C + eps)+]

which is quasiconcave in p for any decreasing convex demand curve.  With
T(p) = Pr(eps > C - d(p)), its derivative is

    E'[R(p)] = d(p) + d'(p) (p - r - m T(p)) = -d'(p) g(p),
    g(p)     = d(p)/(-d'(p)) - (p - r - m T(p)),

and -d' > 0, so g has the sign of E'.  g = 0 is Lerner's inverse-elasticity
rule with the expected overflow charge m T(p) added to the unit cost.  The
optimizer brackets the unique root of g above the cost floor and bisects it.
The markup d/(-d') is a closed form of each demand family, so g keeps its
sign at the bracket's upper end even where d and d' underflow there: g is at
most -(r + m) 1e-6 at the iso-elastic bracket and r - v/alpha < 0 at the
linear choke price.  The search stops at an absolute bracket width of 1e-10,
or earlier when the bracket spans adjacent doubles and can no longer shrink.

``optimize_prices`` solves a whole table at once, and ``optimize_price``
is a table of one row.  Each row's bracket is checked on its own; the
rows of one demand family are then stacked into a curve, noise model and
market whose fields are arrays, and one bisection loop halves every
bracket together.  A row stops by the rule above, by itself, while the
others go on, so each row sees the midpoints a lone solve would see.
The stacked g and solution fields do per element what the scalar code
does with the same IEEE operations (numpy ``power`` works per element, and
the noise model's normal CDF applies the stdlib ``math.erfc`` to each
element), so the prices come out bit for bit as one row at a time.  A row
keeps its own error when its bracket is empty, its g is not positive at
the cost floor, or its solution has a non-finite field (demand that
overflows at the optimum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .demand import DemandSpec
from .record import Record
from .uncertainty import UncertaintyModel

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
    """d(p) + d'(p) (p - r - m Pr(eps > C - d(p))), as -d'(p) g(p).  Accepts scalar or array p."""
    return -d.slope(p) * _markup_gap(d, u, mp, p)


def _markup_gap(d: DemandSpec, u: UncertaintyModel, mp: MarketParams, p):
    """g(p) = d(p)/(-d'(p)) - (p - r - m Pr(eps > C - d(p))), which has the sign of E'."""
    tail = u.tail_probability(mp.capacity - d.demand(p))
    return d.markup(p) - (np.asarray(p, dtype=float) - mp.r - mp.m * tail)


def optimize_price(d: DemandSpec, u: UncertaintyModel, mp: MarketParams) -> StaticSolution:
    """Solve for the unique profit-maximizing spot price.

    Raises ValueError when the market assumptions fail or when no
    interior maximum exists in (r, upper bracket) -- both signal
    degenerate parameters rather than solver failure.
    """
    (result,) = optimize_prices([(d, u, mp)])
    if isinstance(result, Exception):
        raise result
    return result


def optimize_prices(problems) -> list:
    """Solve a table of (d, u, mp) problems at once.

    Returns, per problem in order, its StaticSolution or the ValueError
    that ``optimize_price`` raises for it.  Rows of one demand family are
    priced together; one row's error never reaches another row.
    """
    out = [None] * len(problems)
    families = {}
    for i, (d, _, _) in enumerate(problems):
        families.setdefault(type(d), []).append(i)
    for rows in families.values():
        _solve_rows(problems, rows, out)
    return out


def _solve_rows(problems, rows, out):
    try:
        _solve_stacked(problems, rows, out)
    except ValueError as exc:
        # a stacked evaluation raised for some row: solve each row alone
        if len(rows) == 1:
            out[rows[0]] = exc
        else:
            for i in rows:
                _solve_rows(problems, [i], out)


def _stack(problems, rows):
    """The rows' (d, u, mp), each as one instance of its class whose fields are
    arrays with one entry per row (None reads as nan).  The rows were checked when
    they were built, so the stacks skip ``__init__``, whose checks take scalars."""
    def stacked(objs):
        out = object.__new__(type(objs[0]))
        for f in fields(out):
            column = np.array([getattr(o, f.name) for o in objs], dtype=float)
            object.__setattr__(out, f.name, column)
        return out

    return tuple(stacked(objs) for objs in zip(*(problems[i] for i in rows)))


def _bracket(d: DemandSpec, u: UncertaintyModel, mp: MarketParams) -> tuple[float, float]:
    validate_market(d, u, mp)
    lo = mp.r * (1.0 + 1e-6)
    hi = d.upper_bracket(mp.r, mp.m)
    if not lo < hi:
        raise ValueError(
            f"no price range above cost: r={mp.r} vs upper bracket {hi} (degenerate parameters)"
        )
    return lo, hi


def _solve_stacked(problems, rows, out):
    """Fill out[i] for the rows i, which share a demand family."""
    brackets = {}
    for i in rows:
        try:
            brackets[i] = _bracket(*problems[i])
        except ValueError as exc:
            out[i] = exc
    if not brackets:
        return
    d, u, mp = _stack(problems, brackets)
    g = lambda p: _markup_gap(d, u, mp, p)
    lo, hi = np.array(list(brackets.values())).T
    if np.any(g(hi) >= 0):
        raise RuntimeError("the markup gap g is not negative at the upper bracket")
    rises = g(lo) > 0
    p_star = _bisect(g, lo, hi)
    solved = [i for i, ok in zip(brackets, rises) if ok]
    if solved:
        for i, sol in zip(solved, _solutions(*_stack(problems, solved), p_star[rises])):
            out[i] = sol
    for i in brackets.keys() - solved:
        out[i] = ValueError("profit is non-increasing at the cost floor; degenerate parameters")


def _bisect(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Midpoints of the final brackets of bisecting, per row, a sign change of f
    from positive at a to non-positive at b.  Each row stops by itself once its
    bracket is at most _PRICE_TOL wide or spans adjacent doubles."""
    while True:
        mid = 0.5 * (a + b)
        go = (b - a > _PRICE_TOL) & (a < mid) & (mid < b)
        if not go.any():
            return mid
        up = f(mid) > 0
        a = np.where(go & up, mid, a)
        b = np.where(go & ~up, mid, b)


def _solutions(d: DemandSpec, u: UncertaintyModel, mp: MarketParams, p: np.ndarray) -> list:
    """StaticSolution of each stacked row at its optimal price p, or the ValueError of a
    row with a non-finite field."""
    dem = d.demand(p)
    phi = (p - mp.r) * dem
    lam = mp.m * u.partial_overshoot(mp.capacity - dem)
    columns = (p, phi - lam, phi, lam, u.tail_probability(mp.capacity - dem), d.elasticity(p))
    return [StaticSolution(*row) if all(map(math.isfinite, row)) else ValueError(
                f"the solution at p*={row[0]!r} has a non-finite field; degenerate parameters")
            for row in zip(*(np.asarray(c).tolist() for c in columns))]


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
