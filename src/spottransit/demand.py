"""Price-dependent demand curves for elastic transit traffic.

Two canonical families are provided, both with prices in $/Mbps and
demand in Gbps:

* iso-elastic:  d(p) = v * p**-alpha   (constant elasticity alpha > 1)
* linear:       d(p) = v - alpha * p   on p in [0, v/alpha]

Pricing, welfare and calibration consume only the ``DemandSpec``
protocol, and ``FAMILIES`` maps each ``kind`` string to its class, so a
new family is one class plus one registry entry.  Curves are
continuous, strictly decreasing, and convex on their domain; evaluation
outside the domain raises ``DomainError`` instead of clamping (a
silently clamped linear curve would corrupt the surplus integral).

``demand``, ``slope``, ``markup`` and ``elasticity`` accept scalars or
numpy arrays; scalars in, scalars out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Protocol

import numpy as np


class DomainError(ValueError):
    """Price or quantity outside the demand curve's domain."""


class DivergentSurplusError(ValueError):
    """Iso-elastic surplus integral diverges for alpha <= 2."""


class DemandSpec(Protocol):
    """What every demand family provides to the pricing, welfare and calibration code.

    Beyond the curve and its slope, a family gives ``markup(p)`` = d(p)/(-d'(p)) in a
    closed form that stays finite where d and d' underflow, the price
    ``upper_bracket(r, m)`` above which the profit derivative cannot stay positive,
    the lowest price ``capacity_price(C)`` at which demand does not exceed C, the
    maximizer ``regular_price(r_bar)`` of (p - r_bar) d(p), ``consumer_surplus(p)``,
    and ``calibrated(...)``: the curve through (p_bar, share * d_bar) with elasticity
    relative * alpha_bar at p_bar, where p_bar is the optimal price at the regular
    cost r_bar = p_bar (1 - 1/alpha_bar); a fit that rounding moves off that anchor
    by more than ANCHOR_RTOL relative is refused with a ValueError.

    A family is a frozen dataclass whose fields are its numeric parameters.  The
    batched static solve stacks many rows into one instance whose fields are arrays,
    so ``demand``, ``slope``, ``markup`` and ``elasticity`` must also work elementwise
    there.
    """

    kind: ClassVar[str]  # registry key in FAMILIES and the "kind" of to_dict()
    # least surplus gain, in percent, the worst-case check expects of the spot regime
    worst_case_surplus_floor_pct: ClassVar[float]

    def demand(self, p): ...
    def slope(self, p): ...
    def markup(self, p): ...
    def elasticity(self, p): ...
    def inverse(self, q: float) -> float: ...
    def upper_bracket(self, r: float, m: float) -> float: ...
    def capacity_price(self, capacity: float) -> float: ...
    def regular_price(self, r_bar: float) -> float: ...
    def consumer_surplus(self, p: float) -> float: ...
    def to_dict(self) -> dict: ...
    @classmethod
    def calibrated(cls, p_bar: float, d_bar: float, alpha_bar: float, r_bar: float,
                   share: float, relative: float) -> DemandSpec: ...


#: Largest relative miss of a calibrated curve's anchor d(p_bar) = share * d_bar.
#: The linear fit misses it by about eps times the elasticity at p_bar, the digits that
#: v - alpha p_bar cancels: ~1e-16 on ordinary scenarios (at most 4.6e-16 on the
#: bundled sweep grids), while gamma = 1e300 at LINX cancels all of them.
ANCHOR_RTOL = 1e-6


def _ret(out):
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class IsoElasticDemand:
    """d(p) = v * p**-alpha with v > 0, alpha > 1."""

    v: float
    alpha: float
    kind: ClassVar[str] = "iso"
    worst_case_surplus_floor_pct: ClassVar[float] = 5.0

    def __post_init__(self):
        if not self.v > 0:
            raise ValueError(f"base demand v must be positive, got {self.v}")
        if not self.alpha > 1:
            raise ValueError(f"elasticity alpha must exceed 1, got {self.alpha}")

    def _check_price(self, p):
        if (np.asarray(p) <= 0).any():
            raise DomainError(f"iso-elastic demand needs p > 0, got {p}")

    def demand(self, p):
        self._check_price(p)
        return _ret(self.v * np.asarray(p, dtype=float) ** -self.alpha)

    def slope(self, p):
        """d'(p) = -alpha * v * p**-(alpha+1), strictly negative."""
        self._check_price(p)
        return _ret(-self.alpha * self.v * np.asarray(p, dtype=float) ** -(self.alpha + 1.0))

    def markup(self, p):
        """d(p)/(-d'(p)) = p/alpha."""
        self._check_price(p)
        return _ret(np.asarray(p, dtype=float) / self.alpha)

    def elasticity(self, p):
        """-p d'(p)/d(p); constant by construction."""
        self._check_price(p)
        return _ret(np.full_like(np.asarray(p, dtype=float), self.alpha))

    def inverse(self, q: float) -> float:
        """Price at which demand equals q."""
        if not q > 0:
            raise DomainError(f"iso-elastic demand is positive everywhere; q must be > 0, got {q}")
        return (self.v / q) ** (1.0 / self.alpha)

    def upper_bracket(self, r: float, m: float) -> float:
        # stationary point even with a fully-saturated tail lies below this
        return self.alpha * (r + m) / (self.alpha - 1.0) * (1.0 + 1e-6)

    def capacity_price(self, capacity: float) -> float:
        return self.inverse(capacity)

    def regular_price(self, r_bar: float) -> float:
        """r̄ / (1 - 1/alpha)."""
        return r_bar / (1.0 - 1.0 / self.alpha)

    def consumer_surplus(self, p: float) -> float:
        """v p^(2-alpha) / ((alpha-1)(alpha-2)); needs alpha > 2 to converge."""
        if self.alpha <= 2.0:
            raise DivergentSurplusError(
                f"surplus undefined for iso-elastic alpha={self.alpha} <= 2 "
                "(willingness-to-pay integral diverges)"
            )
        if not p > 0:
            raise DomainError(f"need p > 0, got {p}")
        try:
            power = p ** (2.0 - self.alpha)
        except OverflowError:  # as inf, so calibration refuses the surplus by name
            power = math.inf
        return self.v * power / ((self.alpha - 1.0) * (self.alpha - 2.0))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "v": self.v, "alpha": self.alpha}

    @classmethod
    def calibrated(cls, p_bar, d_bar, alpha_bar, r_bar, share, relative):
        alpha = relative * alpha_bar
        try:
            scale = p_bar**alpha
        except OverflowError:  # as inf, so calibration refuses the curve by name
            scale = math.inf
        v = share * d_bar * scale
        if v == 0.0:  # refused by name here: the constructor would blame v itself
            raise ValueError(
                f"calibrated demand v = share * d_bar * p_bar**alpha underflows to 0.0 "
                f"(p_bar={p_bar!r}, alpha={alpha!r}); the scenario's demand scale is too small "
                "to price")
        return cls(v=v, alpha=alpha)


@dataclass(frozen=True)
class LinearDemand:
    """d(p) = v - alpha * p on [0, v/alpha], with v > 0, alpha > 0."""

    v: float
    alpha: float
    kind: ClassVar[str] = "linear"
    worst_case_surplus_floor_pct: ClassVar[float] = 60.0

    def __post_init__(self):
        if not self.v > 0:
            raise ValueError(f"base demand v must be positive, got {self.v}")
        if not self.alpha > 0:
            raise ValueError(f"sensitivity alpha must be positive, got {self.alpha}")

    @property
    def choke_price(self) -> float:
        """Price v/alpha at which demand reaches zero."""
        return self.v / self.alpha

    def _check_price(self, p):
        p = np.asarray(p)
        if (p < 0).any() or (p > self.choke_price).any():
            raise DomainError(
                f"linear demand defined on [0, {self.choke_price!r}], got p={p}"
            )

    def demand(self, p):
        self._check_price(p)
        return _ret(self.v - self.alpha * np.asarray(p, dtype=float))

    def slope(self, p):
        self._check_price(p)
        return _ret(np.full_like(np.asarray(p, dtype=float), -self.alpha))

    def markup(self, p):
        """d(p)/(-d'(p)) = v/alpha - p."""
        self._check_price(p)
        return _ret(self.choke_price - np.asarray(p, dtype=float))

    def elasticity(self, p):
        """alpha*p / (v - alpha*p); increases with p, diverges at the choke price."""
        self._check_price(p)
        d = self.v - self.alpha * np.asarray(p, dtype=float)
        if np.any(d <= 0):
            raise DomainError("elasticity undefined at zero demand (choke price)")
        return _ret(self.alpha * np.asarray(p, dtype=float) / d)

    def inverse(self, q: float) -> float:
        if not 0 < q <= self.v:
            raise DomainError(f"linear demand only reaches quantities in (0, {self.v}], got {q}")
        return (self.v - q) / self.alpha

    def upper_bracket(self, r: float, m: float) -> float:
        return self.choke_price

    def capacity_price(self, capacity: float) -> float:
        # demand never exceeds a capacity at or above v, whatever the price
        return 0.0 if capacity >= self.v else self.inverse(capacity)

    def regular_price(self, r_bar: float) -> float:
        """(r̄ + v/alpha) / 2."""
        if not r_bar < self.choke_price:
            raise DomainError(
                f"regular cost {r_bar} at or above the choke price {self.choke_price}"
            )
        return 0.5 * (r_bar + self.choke_price)

    def consumer_surplus(self, p: float) -> float:
        """alpha (v/alpha - p)^3 / 6."""
        if p < 0 or p > self.choke_price:
            raise DomainError(f"linear surplus defined on [0, {self.choke_price}], got {p}")
        try:
            cube = (self.choke_price - p) ** 3
        except OverflowError:  # as inf, so calibration refuses the surplus by name
            cube = math.inf
        return self.alpha * cube / 6.0

    def to_dict(self) -> dict:
        return {"kind": self.kind, "v": self.v, "alpha": self.alpha}

    @classmethod
    def calibrated(cls, p_bar, d_bar, alpha_bar, r_bar, share, relative):
        # slope d̄/(p̄ - r̄) makes p̄ the optimal regular price at cost r̄,
        # which is elasticity alpha_bar at p̄; the share scales the slope
        if not p_bar > r_bar:
            raise ValueError(f"regular price {p_bar} must exceed the derived cost {r_bar}")
        alpha = share * relative * (d_bar / (p_bar - r_bar))
        v = share * d_bar + alpha * p_bar
        # v - alpha p_bar cancels the leading digits of v: a curve whose d(p_bar) misses
        # share * d_bar is rounding noise there (an infinite v is refused by its caller)
        anchor, at_p_bar = share * d_bar, v - alpha * p_bar
        if not abs(at_p_bar - anchor) <= ANCHOR_RTOL * anchor and math.isfinite(v):
            raise ValueError(
                f"calibrated linear demand gives d(p_bar) = {at_p_bar!r}, not its anchor "
                f"{anchor!r} within {ANCHOR_RTOL:g} relative; v and alpha*p_bar cancel below "
                "rounding at this scale")
        return cls(v=v, alpha=alpha)


#: The one place a demand family's ``kind`` string is resolved.
FAMILIES = {cls.kind: cls for cls in (IsoElasticDemand, LinearDemand)}


def demand_family(kind: str) -> type:
    """Demand class registered under ``kind``."""
    try:
        return FAMILIES[kind]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown demand kind {kind!r} (expected one of {', '.join(map(repr, FAMILIES))})"
        ) from None


def demand_from_dict(obj: dict) -> DemandSpec:
    """Build a demand curve from {"kind": "iso"|"linear", "v": ..., "alpha": ...}."""
    return demand_family(obj.get("kind"))(float(obj["v"]), float(obj["alpha"]))
