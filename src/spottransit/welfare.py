"""Consumer surplus, baseline profit, and welfare accounting.

Consumer surplus is the willingness-to-pay left on the table at price p,

    S(p) = integral over x > p of (x - p) d(x) dx,

with a closed form per demand family (``DemandSpec.consumer_surplus``;
the iso-elastic integral needs alpha > 2 to converge and raises
``DivergentSurplusError`` otherwise).

Social welfare is surplus plus expected profit.  The report compares
the spot regime at its optimal price against the regular regime at
(p̄, r̄) and carries both relative and absolute gains, the absolute ones
also in dollars.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .demand import DemandSpec, DivergentSurplusError  # noqa: F401  (re-exported)
from .pricing import MarketParams, StaticSolution, expected_profit
from .record import RAISE, Record, Rows, item
from .uncertainty import UncertaintyModel

#: dollars per month per price*demand unit ($/Mbps * Gbps) under 95th-percentile billing
USD_PER_UNIT = 1000.0


def _pct_change(new, old):
    """100 (new - old) / old, and nan where old underflowed to 0."""
    return np.where(old != 0, 100.0 * (new - old) / old, np.nan)


def consumer_surplus(d: DemandSpec, p: float) -> float:
    """Willingness-to-pay left on the table at price p (the family's closed form)."""
    return d.consumer_surplus(p)


def baseline_profit(d: DemandSpec, p_bar: float, r_bar: float) -> float:
    """Profit the same elastic demand would yield at the regular price: (p̄ - r̄) d(p̄)."""
    return (p_bar - r_bar) * d.demand(p_bar)


def social_welfare(d: DemandSpec, u: UncertaintyModel, mp: MarketParams, p: float) -> float:
    """Surplus plus expected profit at price p."""
    return consumer_surplus(d, p) + expected_profit(d, u, mp, p)


@dataclass(frozen=True)
class WelfareReport(Record):
    surplus_spot: float
    surplus_regular: float
    profit_spot: float
    profit_regular: float
    welfare_spot: float
    welfare_regular: float
    profit_improvement_pct: float
    surplus_improvement_pct: float
    profit_gain_abs: float
    surplus_gain_abs: float
    profit_gain_usd: float
    surplus_gain_usd: float


#: the fields of a WelfareReport, which are the columns of ``welfare_table``
REPORT_FIELDS = tuple(f.name for f in fields(WelfareReport))


def welfare_report(
    d: DemandSpec, u: UncertaintyModel, mp: MarketParams, sol: StaticSolution
) -> WelfareReport:
    """Compare the solved spot regime against the regular regime at (p̄, r̄).

    When the spot price undercuts the regular price the surplus must come
    out strictly higher.  So must the profit whenever the spot cost is at
    most r̄ and the capacity carries the demand at p̄ under every noise draw:
    the spot seller could charge p̄ and earn (p̄ - r) d(p̄) >= (p̄ - r̄) d(p̄).
    A violation means the solved price is not the optimum and is reported
    as an error; outside those conditions a lower profit is reported as is.

    A field that is not finite (a figure that overflows, or a percentage of
    a base that underflows to 0) is refused by name with a ValueError,
    before the optimality check, which it would void.  This is a table of
    one row of ``welfare_table``.
    """
    if mp.r_bar is None or mp.p_bar is None:
        raise ValueError("welfare report needs both r_bar and p_bar")
    rep = welfare_table(d, u, mp, np.array([sol.p_star]), np.array([sol.expected_profit]), RAISE)
    return WelfareReport(*(item(rep[name], 0) for name in REPORT_FIELDS))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def welfare_table(d: DemandSpec, u: UncertaintyModel, mp: MarketParams, p_star: np.ndarray,
                  pi_spot: np.ndarray, rows: Rows) -> dict:
    """The REPORT_FIELDS columns of ``welfare_report`` for a table, whose d, u and mp
    hold one row per entry, at the solved prices and expected profits.  A row that
    has an error in ``rows`` is skipped, and a row the report refuses gets its error
    there; the columns of such a row hold no meaning."""
    # a row that failed before sits at nan, where its curve need not be defined
    p_bar = np.where(rows.clean(), mp.p_bar, np.nan)
    s_spot = d.consumer_surplus(p_star, rows)
    s_reg = d.consumer_surplus(p_bar, rows)
    pi_reg = baseline_profit(d, p_bar, mp.r_bar)
    rep = dict(zip(REPORT_FIELDS, (
        s_spot, s_reg, pi_spot, pi_reg, s_spot + pi_spot, s_reg + pi_reg,
        _pct_change(pi_spot, pi_reg), _pct_change(s_spot, s_reg),
        pi_spot - pi_reg, s_spot - s_reg, (pi_spot - pi_reg) * USD_PER_UNIT,
        (s_spot - s_reg) * USD_PER_UNIT)))
    for name, value in rep.items():
        rows.check(np.isfinite(value), lambda k: ValueError(
            f"welfare report {name} is {item(value, k)}; "
            "the scenario's figures leave the float range"))
    assured = (s_spot > s_reg) & (
        (pi_spot > pi_reg) | (mp.r > mp.r_bar) | (mp.capacity - d.demand(p_bar) < u.b))
    rows.check(np.logical_not(p_star < p_bar) | assured, lambda k: RuntimeError(
        "spot price is below the regular price but surplus/profit did not both "
        "improve although they must; the solved price is not the optimum"))
    return rep
