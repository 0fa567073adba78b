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

import math
from dataclasses import dataclass

from .demand import DemandSpec, DivergentSurplusError  # noqa: F401  (re-exported)
from .pricing import MarketParams, StaticSolution, expected_profit
from .record import Record
from .uncertainty import UncertaintyModel

#: dollars per month per price*demand unit ($/Mbps * Gbps) under 95th-percentile billing
USD_PER_UNIT = 1000.0


def _pct_change(new: float, old: float) -> float:
    """100 (new - old) / old, and nan where old underflowed to 0."""
    return 100.0 * (new - old) / old if old else math.nan


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
    before the optimality check, which it would void.
    """
    if mp.r_bar is None or mp.p_bar is None:
        raise ValueError("welfare report needs both r_bar and p_bar")
    s_spot = consumer_surplus(d, sol.p_star)
    s_reg = consumer_surplus(d, mp.p_bar)
    pi_spot = sol.expected_profit
    pi_reg = baseline_profit(d, mp.p_bar, mp.r_bar)
    rep = WelfareReport(
        surplus_spot=s_spot,
        surplus_regular=s_reg,
        profit_spot=pi_spot,
        profit_regular=pi_reg,
        welfare_spot=s_spot + pi_spot,
        welfare_regular=s_reg + pi_reg,
        profit_improvement_pct=_pct_change(pi_spot, pi_reg),
        surplus_improvement_pct=_pct_change(s_spot, s_reg),
        profit_gain_abs=pi_spot - pi_reg,
        surplus_gain_abs=s_spot - s_reg,
        profit_gain_usd=(pi_spot - pi_reg) * USD_PER_UNIT,
        surplus_gain_usd=(s_spot - s_reg) * USD_PER_UNIT,
    )
    for name, value in vars(rep).items():
        if not math.isfinite(value):
            raise ValueError(f"welfare report {name} is {value}; "
                             "the scenario's figures leave the float range")
    if sol.p_star < mp.p_bar and not (
        s_spot > s_reg
        and (pi_spot > pi_reg or mp.r > mp.r_bar or mp.capacity - d.demand(mp.p_bar) < u.b)
    ):
        raise RuntimeError(
            "spot price is below the regular price but surplus/profit did not both "
            "improve although they must; the solved price is not the optimum"
        )
    return rep
