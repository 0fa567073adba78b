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

from .demand import DemandSpec, DivergentSurplusError, demand_family
from .pricing import MarketParams
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
        for name in ("p_bar", "d_bar", "beta", "gamma", "alpha_bar", "mu", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.p_bar > 0:
            raise ValueError(f"p_bar must be positive, got {self.p_bar}")
        if not self.d_bar > 0:
            raise ValueError(f"d_bar must be positive, got {self.d_bar}")
        if not 0 < self.beta < 1:
            raise ValueError(f"elastic share beta must be in (0, 1), got {self.beta}")
        if not self.gamma > 1:
            raise ValueError(f"relative elasticity gamma must exceed 1, got {self.gamma}")
        if not self.alpha_bar > 1:
            raise ValueError(f"aggregate elasticity must exceed 1, got {self.alpha_bar}")
        if not self.theta > 0:
            raise ValueError(f"error sd theta must be positive, got {self.theta}")
        if not (0 < self.r_ratio < math.inf and 0 < self.m_ratio < math.inf):
            raise ValueError("cost and penalty ratios must be positive and finite, "
                             f"got {self.r_ratio}, {self.m_ratio}")


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


def derive_regular_cost(inp: CalibrationInput) -> float:
    """Regular provision cost implied by a profit-maximizing regular price.

    The cost is pinned down by the iso-elastic first-order condition and
    is the same number for every demand family (the linear family's
    sensitivity is then chosen to be consistent with it).
    """
    r_bar = inp.p_bar * (1.0 - 1.0 / inp.alpha_bar)
    if not r_bar > 0:
        raise ValueError("derived regular cost is non-positive")
    return r_bar


def _finite(what: str, **values) -> None:
    """Refuse a calibrated quantity that overflowed to a non-finite float."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise CalibrationError(
                f"calibrated {what} {name} overflows to {value}; "
                "the scenario's demand scale is too large to price"
            )


def _finite_curve(what: str, curve: DemandSpec) -> DemandSpec:
    _finite(what, **{k: v for k, v in curve.to_dict().items() if k != "kind"})
    return curve


def derive_spot_demand(inp: CalibrationInput) -> DemandSpec:
    """Spot (elastic) demand curve: beta*d̄ at the regular price, elasticity gamma*ᾱ there."""
    spot = _finite_curve("spot demand", demand_family(inp.kind).calibrated(
        inp.p_bar, inp.d_bar, inp.alpha_bar, derive_regular_cost(inp),
        share=inp.beta, relative=inp.gamma,
    ))
    try:
        spot.consumer_surplus(inp.p_bar)
    except DivergentSurplusError as exc:
        warnings.warn(f"{exc}; the curve calibrates, but every priced row reports its surplus "
                      "and is refused")
    return spot


def derive_regular_demand(inp: CalibrationInput) -> DemandSpec:
    """Aggregate demand curve passing through (p̄, d̄) with elasticity ᾱ there."""
    return _finite_curve("regular demand", demand_family(inp.kind).calibrated(
        inp.p_bar, inp.d_bar, inp.alpha_bar, derive_regular_cost(inp), share=1.0, relative=1.0
    ))


def derive_capacity_and_noise(inp: CalibrationInput) -> tuple[float, UncertaintyModel]:
    """Spot capacity (0.4 + beta) d̄ and the beta-scaled noise model."""
    capacity = (0.4 + inp.beta) * inp.d_bar
    _finite("spot", capacity=capacity)
    noise = UncertaintyModel(mu=inp.beta * inp.mu, theta=inp.beta * inp.theta)
    if not noise.b < capacity:
        raise CalibrationError(
            f"noise support reaches the capacity (b={noise.b} >= C={capacity}); "
            "scenario rejected"
        )
    return capacity, noise


@dataclass(frozen=True)
class CalibratedScenario:
    inp: CalibrationInput  # the point it was calibrated from
    demand: DemandSpec
    uncertainty: UncertaintyModel
    market: MarketParams
    regular_demand: DemandSpec
    penalty_assumption_ok: bool


def calibrate(inp: CalibrationInput) -> CalibratedScenario:
    """Full scenario derivation under the input's demand family and cost ratios."""
    r_bar = derive_regular_cost(inp)
    spot = derive_spot_demand(inp)
    regular = derive_regular_demand(inp)
    try:  # refused only now, so an overflowing curve is named first
        _finite("spot demand", consumer_surplus=spot.consumer_surplus(inp.p_bar))
    except DivergentSurplusError:
        pass  # derive_spot_demand warned of it
    capacity, noise = derive_capacity_and_noise(inp)
    m = inp.m_ratio * inp.p_bar

    # the below-capacity guarantee at the optimum needs m above the price
    # at which spot demand fills the capacity
    p_cap = spot.capacity_price(capacity)
    penalty_ok = m > p_cap
    if not penalty_ok:
        warnings.warn(
            f"penalty m={m} does not exceed the capacity price {p_cap:.4g}; "
            "expected demand may exceed capacity at the optimum"
        )

    market = MarketParams(
        r=inp.r_ratio * r_bar, m=m, capacity=capacity, r_bar=r_bar, p_bar=inp.p_bar
    )
    return CalibratedScenario(
        inp=inp,
        demand=spot,
        uncertainty=noise,
        market=market,
        regular_demand=regular,
        penalty_assumption_ok=penalty_ok,
    )
