"""Derive a complete pricing scenario from a regular price and observed demand.

Given the regular transit price p̄, the aggregate billable demand d̄ at
that price, the aggregate elasticity ᾱ, the elastic share β, and the
relative spot elasticity γ, this module produces everything the static
solver needs:

* regular cost   r̄ = p̄ (1 - 1/ᾱ)       (rational profit-maximizing seller)
* linear ᾱ       ᾱ_lin = d̄ / (p̄ - r̄)   (same r̄ for both demand families)
* spot demand    iso:    alpha = γ ᾱ,        v = β d̄ p̄^alpha
                 linear: alpha = β γ ᾱ_lin,  v = β d̄ + alpha p̄
* capacity       C = (0.4 + β) d̄
* noise          mu, theta scaled by β, support mu' +/- 3 theta'

The "typical setting" is the field defaults of ``CalibrationInput``:
iso-elastic demand, r = 0.5 r̄ and m = p̄.  Scenarios where the
noise support reaches the capacity are rejected outright; a penalty at
or below the capacity price only voids the below-capacity guarantee at
the optimum, so it is surfaced as a flag and a warning instead of a
rejection (the reference m/p̄ sweep range dips into that territory).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .demand import DemandSpec, DivergentSurplusError, demand_family
from .pricing import MarketParams
from .record import RAISE, Rows, columns, item, row
from .uncertainty import UncertaintyModel


class CalibrationError(ValueError):
    """Scenario violates a model assumption and cannot be priced."""


#: Q2 2011 median GigE transit price ($/Mbps) by region
REGION_PRICES = {"london": 7.5, "newyork": 7.0, "hongkong": 22.0}

#: Reference IXP statistics: peak and average traffic (Gbps), week-ahead
#: prediction error mean/sd (Gbps), and the region whose price applies.
#: The raw traces are not bundled; peak*0.9 serves as the billable-demand
#: proxy when no trace is supplied.
IXP_STATS = {
    "linx": {"region": "london", "peak": 1200.0, "average": 797.1, "mu": -15.9278, "theta": 174.8157},
    "mskix": {"region": "london", "peak": 688.5, "average": 416.0, "mu": 2.2313, "theta": 115.0810},
    "nix": {"region": "london", "peak": 217.8, "average": 129.6, "mu": -1.2458, "theta": 30.2338},
    "nyiix": {"region": "newyork", "peak": 205.9, "average": 157.7, "mu": 3.9486, "theta": 26.0743},
    "espanix": {"region": "london", "peak": 198.0, "average": 172.5, "mu": -1.0476, "theta": 22.3824},
    "hkix": {"region": "hongkong", "peak": 180.0, "average": 119.8, "mu": 1.7689, "theta": 22.0919},
}

PEAK_DEMAND_PROXY = 0.9  # d̄ ~= 0.9 * peak when no trace is available


#: the numeric inputs, the fields a table's columns may set per row
NUMERIC_FIELDS = ("p_bar", "d_bar", "beta", "gamma", "alpha_bar", "mu", "theta", "r_ratio", "m_ratio")

#: the input's checks in order: the fields each reads, whether their values pass (for
#: numbers or for columns of them), and the message, formatted with those values, of
#: the ValueError of values that do not
_INPUT_CHECKS = (
    *(((name,), np.isfinite, name + " must be finite, got {}") for name in NUMERIC_FIELDS[:7]),
    (("p_bar",), lambda x: x > 0, "p_bar must be positive, got {}"),
    (("d_bar",), lambda x: x > 0, "d_bar must be positive, got {}"),
    (("beta",), lambda x: (0 < x) & (x < 1), "elastic share beta must be in (0, 1), got {}"),
    (("gamma",), lambda x: x > 1, "relative elasticity gamma must exceed 1, got {}"),
    (("alpha_bar",), lambda x: x > 1, "aggregate elasticity must exceed 1, got {}"),
    (("theta",), lambda x: x > 0, "error sd theta must be positive, got {}"),
    (("r_ratio", "m_ratio"), lambda r, m: (0 < r) & (r < math.inf) & (0 < m) & (m < math.inf),
     "cost and penalty ratios must be positive and finite, got {}, {}"),
)


@dataclass(frozen=True)
class CalibrationInput:
    p_bar: float        # regular price, $/Mbps
    d_bar: float        # aggregate billable demand at p_bar, Gbps
    beta: float = 0.5   # elastic share of the aggregate demand
    gamma: float = 1.25 # spot elasticity relative to the aggregate
    alpha_bar: float = 2.0
    mu: float = 0.0     # aggregate prediction-error mean, Gbps
    theta: float = 1.0  # aggregate prediction-error sd, Gbps
    demand_source: str = "explicit"  # provenance label carried into reports
    kind: str = "iso"   # demand family, a key of demand.FAMILIES
    r_ratio: float = 0.5  # spot cost r / r̄
    m_ratio: float = 1.0  # overflow penalty m / p̄
    label: str = "scenario"  # scenario name carried into reports

    def __post_init__(self):
        demand_family(self.kind)
        for names, ok, text in _INPUT_CHECKS:
            values = [getattr(self, name) for name in names]
            if not ok(*values):
                raise ValueError(text.format(*values))


def _preset(table: dict, name: str, what: str):
    try:
        return table[str(name).lower()]
    except KeyError:
        raise ValueError(f"unknown {what} {name!r}; expected one of {', '.join(table)}") from None


def region_price(region: str) -> float:
    """Regular price of a region preset in REGION_PRICES."""
    return _preset(REGION_PRICES, region, "region")


def ixp_input(name: str, **fields) -> CalibrationInput:
    """CalibrationInput of a bundled IXP with ``fields`` replaced.

    The preset is labelled NAME and takes d̄ from the 0.9*peak proxy; a
    given d_bar is an explicit demand source unless one is named.
    """
    stats = _preset(IXP_STATS, name, "IXP")
    if "d_bar" in fields:
        fields.setdefault("demand_source", "explicit")
    return CalibrationInput(**{
        "p_bar": region_price(stats["region"]),
        "d_bar": PEAK_DEMAND_PROXY * stats["peak"],
        "mu": stats["mu"],
        "theta": stats["theta"],
        "demand_source": "0.9*peak proxy",
        "label": name.upper(),
        **fields,
    })


def _regular_cost(p_bar, alpha_bar, rows):
    r_bar = p_bar * (1.0 - 1.0 / alpha_bar)
    rows.check(r_bar > 0, lambda k: ValueError("derived regular cost is non-positive"))
    return r_bar


def derive_regular_cost(inp: CalibrationInput) -> float:
    """Regular provision cost implied by a profit-maximizing regular price.

    The cost is pinned down by the iso-elastic first-order condition and
    is the same number for every demand family (the linear family's
    sensitivity is then chosen to be consistent with it).
    """
    return _regular_cost(inp.p_bar, inp.alpha_bar, RAISE)


def _finite(rows, what: str, **values) -> None:
    """Refuse a calibrated quantity that overflowed to a non-finite float."""
    for name, value in values.items():
        rows.check(np.isfinite(value), lambda k: CalibrationError(
            f"calibrated {what} {name} overflows to {item(value, k)}; "
            "the scenario's demand scale is too large to price"))


class _Steps:
    """Calibration over the columns of a table, a method per step in the order
    ``calibrate`` takes them.  Each gives a failing row its first error in ``rows``
    and notes the warnings a row earns while it has none; ``warn`` issues them."""

    def __init__(self, inp: CalibrationInput, overrides: dict):
        n = len(next(iter(overrides.values()))) if overrides else 1
        if overrides.keys() - set(NUMERIC_FIELDS) or any(len(v) != n for v in overrides.values()):
            raise ValueError("a table sets numeric fields only, one value per row")
        self.rows, self.notes = Rows(n), [[] for _ in range(n)]
        self.family = demand_family(inp.kind)
        given = {name: np.array(values, dtype=float) for name, values in overrides.items()}
        for names, ok, text in _INPUT_CHECKS:
            if not overrides.keys().isdisjoint(names):
                self.rows.check(ok(*(given.get(x, getattr(inp, x)) for x in names)),
                                lambda k: ValueError(text.format(*(
                                    overrides[x][k] if x in overrides else getattr(inp, x)
                                    for x in names))))
        # a row that fails a check takes the input's own values, which passed
        clean = self.rows.clean()
        self.f = {name: np.where(clean, given[name], getattr(inp, name)) if name in given
                  else np.full(n, float(getattr(inp, name))) for name in NUMERIC_FIELDS}

    def _note(self, flagged, text) -> None:
        for k in np.flatnonzero(flagged).tolist():
            if self.rows.errors[k] is None:
                self.notes[k].append(text(k))

    def regular_cost(self) -> np.ndarray:
        return _regular_cost(self.f["p_bar"], self.f["alpha_bar"], self.rows)

    def _curve(self, what: str, r_bar, share, relative) -> DemandSpec:
        f = self.f
        curve = self.family.calibrated(f["p_bar"], f["d_bar"], f["alpha_bar"], r_bar, share,
                                       relative, self.rows)
        _finite(self.rows, what, **{k: v for k, v in curve.to_dict().items() if k != "kind"})
        return curve

    def spot_demand(self, r_bar) -> tuple:
        """The curve, its surplus at p̄, and the rows where that diverges (which warn)."""
        spot = self._curve("spot demand", r_bar, self.f["beta"], self.f["gamma"])
        surplus = Rows(len(self.rows))
        s_bar = spot.consumer_surplus(self.f["p_bar"], surplus)
        diverges = np.array([isinstance(exc, DivergentSurplusError) for exc in surplus.errors])
        if any(surplus.errors):
            self._note(diverges, lambda k: f"{surplus.errors[k]}; the curve calibrates, but "
                                           "every priced row reports its surplus and is refused")
            self.rows.check(diverges | surplus.clean(), lambda k: surplus.errors[k])
        return spot, s_bar, diverges

    def regular_demand(self, r_bar) -> DemandSpec:
        return self._curve("regular demand", r_bar, 1.0, 1.0)

    def capacity_and_noise(self) -> tuple:
        f = self.f
        capacity = (0.4 + f["beta"]) * f["d_bar"]
        _finite(self.rows, "spot", capacity=capacity)
        noise = columns(UncertaintyModel, self.rows, mu=f["beta"] * f["mu"],
                        theta=f["beta"] * f["theta"], a=None, b=None)
        self.rows.check(noise.b < capacity, lambda k: CalibrationError(
            f"noise support reaches the capacity (b={item(noise.b, k)} >= C={item(capacity, k)}); "
            "scenario rejected"))
        return capacity, noise

    def market(self, r_bar, spot: DemandSpec, capacity) -> tuple:
        """The market, and whether the penalty exceeds the capacity price (which warns)."""
        f = self.f
        m = f["m_ratio"] * f["p_bar"]
        # the below-capacity guarantee at the optimum needs m above the price
        # at which spot demand fills the capacity
        p_cap = spot.capacity_price(capacity, self.rows)
        penalty_ok = m > p_cap
        self._note(~penalty_ok, lambda k: (
            f"penalty m={item(m, k)} does not exceed the capacity price {item(p_cap, k):.4g}; "
            "expected demand may exceed capacity at the optimum"))
        market = columns(MarketParams, self.rows, r=f["r_ratio"] * r_bar, m=m, capacity=capacity,
                         r_bar=r_bar, p_bar=f["p_bar"])
        return market, penalty_ok

    def warn(self, stop_at_error: bool = False) -> None:
        for notes, error in zip(self.notes, self.rows.errors):
            for text in notes:
                warnings.warn(text)
            if stop_at_error and error is not None:
                return


@np.errstate(all="ignore")
def _one_row(inp: CalibrationInput, step):
    """step(steps) on a table of the one row inp: its warnings issued, its error raised."""
    steps = _Steps(inp, {})
    out = step(steps)
    steps.warn()
    if steps.rows.errors[0] is not None:
        raise steps.rows.errors[0]
    return out


def derive_spot_demand(inp: CalibrationInput) -> DemandSpec:
    """Spot (elastic) demand curve: beta*d̄ at the regular price, elasticity gamma*ᾱ there."""
    return row(_one_row(inp, lambda steps: steps.spot_demand(steps.regular_cost())[0]), 0)


def derive_regular_demand(inp: CalibrationInput) -> DemandSpec:
    """Aggregate demand curve passing through (p̄, d̄) with elasticity ᾱ there."""
    return row(_one_row(inp, lambda steps: steps.regular_demand(steps.regular_cost())), 0)


def derive_capacity_and_noise(inp: CalibrationInput) -> tuple[float, UncertaintyModel]:
    """Spot capacity (0.4 + beta) d̄ and the beta-scaled noise model."""
    capacity, noise = _one_row(inp, _Steps.capacity_and_noise)
    return capacity.item(0), row(noise, 0)


@dataclass(frozen=True)
class CalibratedScenario:
    inp: CalibrationInput  # the point it was calibrated from
    demand: DemandSpec
    uncertainty: UncertaintyModel
    market: MarketParams
    regular_demand: DemandSpec
    penalty_assumption_ok: bool


@dataclass(frozen=True)
class CalibratedTable:
    """The rows of a table as columns: its numeric ``inputs`` (name -> array) and one
    instance each of the curves, noise and market, whose fields are arrays.  ``rows``
    holds each row's first error; the other columns of such a row hold no meaning."""

    inputs: dict
    rows: Rows
    demand: DemandSpec
    uncertainty: UncertaintyModel
    market: MarketParams
    regular_demand: DemandSpec
    penalty_assumption_ok: np.ndarray


@np.errstate(all="ignore")  # a row that goes non-finite is refused by name
def calibrate_table(inp: CalibrationInput, overrides: dict | None = None,
                    stop_at_error: bool = False) -> CalibratedTable:
    """Calibrate a table at once: the input ``inp`` with, per row, the values of
    ``overrides`` (a numeric field's name -> one value per row; one row without).

    Each row gets the error ``calibrate`` raises for its input and, in row order,
    the warnings ``calibrate`` issues for it before that error: a diverging surplus,
    then a penalty at or below the capacity price.  With ``stop_at_error``, the rows
    after the first that fails issue none, as for a command that stops there.
    """
    steps = _Steps(inp, overrides or {})
    r_bar = steps.regular_cost()
    spot, s_bar, diverges = steps.spot_demand(r_bar)
    regular = steps.regular_demand(r_bar)
    # refused only now, so an overflowing curve is named first
    _finite(steps.rows, "spot demand", consumer_surplus=np.where(diverges, 0.0, s_bar))
    capacity, noise = steps.capacity_and_noise()
    market, penalty_ok = steps.market(r_bar, spot, capacity)
    steps.warn(stop_at_error)
    return CalibratedTable(steps.f, steps.rows, spot, noise, market, regular, penalty_ok)


def calibrate(inp: CalibrationInput) -> CalibratedScenario:
    """Full scenario derivation under the input's demand family and cost ratios: a
    table of one row."""
    table = calibrate_table(inp)
    if table.rows.errors[0] is not None:
        raise table.rows.errors[0]
    return CalibratedScenario(inp, *(row(x, 0) for x in (
        table.demand, table.uncertainty, table.market, table.regular_demand)),
        table.penalty_assumption_ok.item(0))
