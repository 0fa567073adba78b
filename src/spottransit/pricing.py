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
optimizer brackets the unique root of g above the cost floor and closes in on
it by an ITP search (interpolate, truncate, project; Oliveira and Takahashi,
ACM TOMS 47(1), 2020): each step takes the regula falsi point, pulled towards
the midpoint, within a radius of the midpoint that keeps the search within
_ITP_N0 = 10 steps of bisection's count ceil(log2(width/1e-10)), 11 where
rounding leaves the bracket a hair wider than that radius aims at.  g falls
strictly but has kinks where C - d(p) crosses the noise support's edges; the
search is as fast as the secant method on the smooth stretches, and the
projection bounds it where interpolation stalls.  On the CLI's IXP tables it
evaluates g about 16 times per table.
The markup d/(-d') is a closed form of each demand family, so g keeps its
sign at the bracket's upper end even where d and d' underflow there: g is at
most -(r + m) 1e-6 at the iso-elastic bracket and r - v/alpha < 0 at the
linear choke price.  Rounding in g swamps the iso-elastic margin only when
alpha - 1 is below about 1e-15; such a row is refused.  The search stops at
an absolute bracket width of 1e-10, or earlier when the bracket spans
adjacent doubles and can no longer shrink, and the price is the final
bracket's midpoint.

``solve_table`` solves a whole table at once: a curve, noise model and
market whose fields are arrays, one entry per row, as calibration builds
them.  ``optimize_prices`` gathers a list of rows into such a table per
demand family, and ``optimize_price`` is a table of one row.  Each row's
bracket is checked on its own, and one ITP loop steps every bracket
together.  Every quantity of a row's step, its step count included, is
its own, and a row stops by the rule above, by itself, while the others go
on, so each row sees the points a lone solve would see.  The stacked g and
solution fields do per element what the scalar code does with the same
IEEE operations (numpy ``power`` works per element, and the noise model's
normal CDF applies the stdlib ``math.erfc`` to each element), so the
prices come out bit for bit as one row at a time.  A row that failed
before the solve searches at nan and takes no steps.  A row keeps its own
error when its bracket is empty, its g is not positive at the cost floor
or not negative at the upper bracket, or its solution has a non-finite
field (demand that overflows at the optimum).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .demand import DemandSpec
from .record import RAISE, Record, Rows, columns, item, take
from .uncertainty import UncertaintyModel

# absolute bracket width at which the price search stops; from about 5e5 $/Mbps up
# adjacent doubles lie farther apart, so the search also stops when it cannot shrink
_PRICE_TOL = 1e-10
# ITP constants (see _itp): the truncation scale, over the initial bracket width, the
# truncation power, and the steps allowed beyond bisection's count
_ITP_K1 = 0.8
_ITP_K2 = 2.0
_ITP_N0 = 10


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
        self._validate(RAISE)

    def _validate(self, rows):
        rows.check(self.r > 0, lambda k: ValueError(
            f"provision cost r must be positive, got {item(self.r, k)}"))
        # m = 0 is allowed so the risk-free benchmark price is computable
        rows.check(np.logical_not(self.m < 0), lambda k: ValueError(
            f"overflow penalty m must be non-negative, got {item(self.m, k)}"))
        rows.check(self.capacity > 0, lambda k: ValueError(
            f"capacity must be positive, got {item(self.capacity, k)}"))


@dataclass(frozen=True)
class StaticSolution(Record):
    """Solved spot price and its profit decomposition."""

    p_star: float
    expected_profit: float
    risk_free_profit: float
    overflow_loss: float
    overflow_probability: float
    elasticity_at_opt: float


#: the fields of a StaticSolution, which are the columns of ``solve_table``
SOLUTION_FIELDS = tuple(f.name for f in fields(StaticSolution))


def validate_market(d: DemandSpec, u: UncertaintyModel, mp: MarketParams, rows=RAISE):
    """Check the cross-cutting model assumptions (noise support below capacity)."""
    rows.check(u.b < mp.capacity, lambda k: ValueError(
        f"noise support must sit below capacity (b={item(u.b, k)} >= C={item(mp.capacity, k)}); "
        "positive residual capacity is a model assumption"))


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
    """Solve a list of (d, u, mp) problems at once.

    Returns, per problem in order, its StaticSolution or the ValueError
    that ``optimize_price`` raises for it.  The rows of one demand family
    are gathered into one table for ``solve_table``; one row's error never
    reaches another row.
    """
    out = [None] * len(problems)
    families = {}
    for i, (d, _, _) in enumerate(problems):
        families.setdefault(type(d), []).append(i)
    for index in families.values():
        rows = Rows(len(index))
        sol = solve_table(*(columns(type(objs[0]), **{  # None reads as nan
            f.name: np.array([getattr(o, f.name) for o in objs], dtype=float)
            for f in fields(objs[0])}) for objs in zip(*(problems[i] for i in index))), rows)
        for i, exc, values in zip(index, rows.errors, zip(*(sol[f].tolist() for f in sol))):
            out[i] = exc if exc is not None else StaticSolution(*values)
    return out


def solve_table(d: DemandSpec, u: UncertaintyModel, mp: MarketParams, rows: Rows) -> dict:
    """The SOLUTION_FIELDS columns of a table whose d, u and mp hold one row per
    entry of their array fields.

    A row that has an error in ``rows`` is not solved, and a row the solve refuses
    gets there the ValueError ``optimize_price`` raises for it; the columns of such
    a row hold no meaning.  When the rows together raise one, each is solved alone.
    """
    table = Rows(len(rows), rows.errors)
    try:
        sol = _solve(d, u, mp, table)
    except ValueError as exc:
        if len(rows) == 1:
            table.errors, sol = [exc], dict.fromkeys(SOLUTION_FIELDS, np.array([np.nan]))
        else:
            alone = [Rows(1, [e]) for e in rows.errors]
            sols = [solve_table(*(take(x, [k]) for x in (d, u, mp)), one)
                    for k, one in enumerate(alone)]
            table.errors = [one.errors[0] for one in alone]
            sol = {name: np.concatenate([s[name] for s in sols]) for name in SOLUTION_FIELDS}
    rows.errors = table.errors
    return sol


# a row that goes non-finite is refused by name
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _solve(d: DemandSpec, u: UncertaintyModel, mp: MarketParams, rows: Rows) -> dict:
    validate_market(d, u, mp, rows)
    lo = mp.r * (1.0 + 1e-6)
    hi = d.upper_bracket(mp.r, mp.m)
    rows.check(lo < hi, lambda k: ValueError(
        f"no price range above cost: r={item(mp.r, k)} vs upper bracket {item(hi, k)} "
        "(degenerate parameters)"))
    # a row without a bracket searches at nan, where every family's curve is quiet
    lo, top = (np.where(rows.clean(), x, np.nan) for x in (lo, hi))
    g_lo, g_hi = _markup_gap(d, u, mp, np.array([lo, top]))  # (2, R) against (R,) fields
    rows.check(np.logical_not(g_hi >= 0), lambda k: ValueError(
        f"the markup gap g is not negative at the upper bracket {item(hi, k)!r} "
        "(rounding swamps it there); degenerate parameters"))
    rows.check(g_lo > 0, lambda k: ValueError(
        "profit is non-increasing at the cost floor; degenerate parameters"))
    # the rows the search solves; the others get an empty bracket, so they take no steps
    solved = rows.clean()
    a, b = _itp(lambda p: _markup_gap(d, u, mp, p), lo, np.where(solved, top, lo), g_lo, g_hi)
    p_star = np.where(solved, 0.5 * (a + b), np.nan)
    sol = _solutions(d, u, mp, p_star)
    finite = np.logical_and.reduce([np.isfinite(column) for column in sol.values()])
    rows.check(finite | ~solved, lambda k: ValueError(
        f"the solution at p*={item(p_star, k)!r} has a non-finite field; degenerate parameters"))
    return sol


def _itp(f, a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray):
    """Final brackets (a, b) of an ITP search, per row, for a sign change of f from
    positive at a (fa = f(a)) to non-positive at b (fb = f(b)).  Each row stops by
    itself once its bracket is at most _PRICE_TOL wide or spans adjacent doubles.

    A step takes the regula falsi point, moves it towards the midpoint by
    k1 w**_ITP_K2 (k1 = _ITP_K1 over the initial width w0, w the current width) but
    at least _PRICE_TOL/4, so that a point interpolation puts next to the root
    still moves the bracket's far end, and projects it into the radius around the
    midpoint within which the bracket still reaches _PRICE_TOL by step
    ceil(log2(w0/_PRICE_TOL)) + _ITP_N0.  So no row takes more than _ITP_N0 steps
    beyond bisection's count, and one more where rounding leaves its bracket a hair
    wider than the projection aims at.  A point not strictly inside its bracket
    falls back to the midpoint.
    """
    a, b, fa, fb = (np.array(x, dtype=float) for x in (a, b, fa, fb))
    w = b - a
    k1 = _ITP_K1 / w
    # the radius bound (_PRICE_TOL/2) 2**(n_max - j) at step j; frexp and ldexp are exact
    mant, n_half = np.frexp(w / _PRICE_TOL)
    budget = np.ldexp(0.5 * _PRICE_TOL, n_half - (mant == 0.5) + _ITP_N0)
    while True:
        w = b - a
        mid = 0.5 * (a + b)
        go = (w > _PRICE_TOL) & (a < mid) & (mid < b)
        if not go.any():
            return a, b
        step = a + fa * w / (fa - fb) - mid  # regula falsi, from the midpoint
        truncate = np.maximum(k1 * w ** _ITP_K2, 0.25 * _PRICE_TOL)
        reach = np.maximum(np.minimum(np.abs(step) - truncate, budget - 0.5 * w), 0.0)
        x = mid + np.sign(step) * reach
        x = np.where((a < x) & (x < b), x, mid)
        fx = f(x)
        up = fx > 0
        for end, f_end, moves in ((a, fa, go & up), (b, fb, go & ~up)):
            np.copyto(end, x, where=moves)
            np.copyto(f_end, fx, where=moves)
        budget *= 0.5


def _solutions(d: DemandSpec, u: UncertaintyModel, mp: MarketParams, p: np.ndarray) -> dict:
    """The SOLUTION_FIELDS columns of the table's rows at their optimal prices p."""
    dem = d.demand(p)
    phi = (p - mp.r) * dem
    lam = mp.m * u.partial_overshoot(mp.capacity - dem)
    return dict(zip(SOLUTION_FIELDS, (p, phi - lam, phi, lam, u.tail_probability(mp.capacity - dem),
                                      d.elasticity(p))))


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
