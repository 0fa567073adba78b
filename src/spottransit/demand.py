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
numpy arrays; scalars in, scalars out.  So do ``inverse``,
``capacity_price`` and ``consumer_surplus``, which also take a ``rows``
(``record.Rows``) that keeps each failing row's error instead of raising the
first, as a table needs; they take powers with Python's float power per
element, as the scalar formulas they replace did (numpy's ``power`` differs
from it in the last bit on some values), and read an overflow as inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Protocol

import numpy as np

from .record import RAISE, columns, item


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
    and ``calibrated(...)``: over columns (arrays with one entry per row), the curves
    through (p_bar, share * d_bar) with elasticity relative * alpha_bar at p_bar, where
    p_bar is the optimal price at the regular cost r_bar = p_bar (1 - 1/alpha_bar), as
    one instance whose fields are those columns; a row whose fit rounding moves off
    that anchor by more than ANCHOR_RTOL relative gets a ValueError in ``rows``, as
    does a row the family's field checks (``_validate``) refuse.

    A family is a frozen dataclass whose fields are its numeric parameters.  A table
    of rows is one instance whose fields are arrays, so every method must also work
    elementwise there.
    """

    kind: ClassVar[str]  # registry key in FAMILIES and the "kind" of to_dict()
    # least surplus gain, in percent, the worst-case check expects of the spot regime
    worst_case_surplus_floor_pct: ClassVar[float]

    def demand(self, p): ...
    def slope(self, p): ...
    def markup(self, p): ...
    def elasticity(self, p): ...
    def inverse(self, q: float, rows=RAISE) -> float: ...
    def upper_bracket(self, r: float, m: float) -> float: ...
    def capacity_price(self, capacity: float, rows=RAISE) -> float: ...
    def regular_price(self, r_bar: float) -> float: ...
    def consumer_surplus(self, p: float, rows=RAISE) -> float: ...
    def to_dict(self) -> dict: ...
    @classmethod
    def calibrated(cls, p_bar, d_bar, alpha_bar, r_bar, share, relative, rows) -> DemandSpec: ...


#: Largest relative miss of a calibrated curve's anchor d(p_bar) = share * d_bar.
#: The linear fit misses it by about eps times the elasticity at p_bar, the digits that
#: v - alpha p_bar cancels: ~1e-16 on ordinary scenarios (at most 4.6e-16 on the
#: bundled sweep grids), while gamma = 1e300 at LINX cancels all of them.
ANCHOR_RTOL = 1e-6


def _ret(out):
    return float(out) if np.ndim(out) == 0 else out


def _pow_or_inf(base: float, exp: float) -> float:
    try:
        return base ** exp
    except OverflowError:
        return math.inf


def _pow(base, exp):
    """base ** exp by Python's float power, per element of the broadcast arrays; an
    overflow reads as inf, so calibration refuses the value by name.  Callers pass
    bases in the formula's domain (nan elsewhere), so no element turns complex."""
    base, exp = np.asarray(base, dtype=float), np.asarray(exp, dtype=float)
    if base.shape != exp.shape:
        base, exp = np.broadcast_arrays(base, exp)
    bases, exps = base.ravel().tolist(), exp.ravel().tolist()
    try:
        out = [b ** e for b, e in zip(bases, exps)]
    except OverflowError:
        out = [_pow_or_inf(b, e) for b, e in zip(bases, exps)]
    return np.array(out).reshape(base.shape)


@dataclass(frozen=True)
class IsoElasticDemand:
    """d(p) = v * p**-alpha with v > 0, alpha > 1."""

    v: float
    alpha: float
    kind: ClassVar[str] = "iso"
    worst_case_surplus_floor_pct: ClassVar[float] = 5.0

    def __post_init__(self):
        self._validate(RAISE)

    def _validate(self, rows):
        rows.check(self.v > 0, lambda k: ValueError(
            f"base demand v must be positive, got {item(self.v, k)}"))
        rows.check(self.alpha > 1, lambda k: ValueError(
            f"elasticity alpha must exceed 1, got {item(self.alpha, k)}"))

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

    def inverse(self, q, rows=RAISE):
        """Price at which demand equals q."""
        ok = np.asarray(q) > 0
        rows.check(ok, lambda k: DomainError(
            f"iso-elastic demand is positive everywhere; q must be > 0, got {item(q, k)}"))
        return _ret(_pow(self.v / np.where(ok, q, np.nan), 1.0 / self.alpha))

    def upper_bracket(self, r: float, m: float) -> float:
        # stationary point even with a fully-saturated tail lies below this
        return self.alpha * (r + m) / (self.alpha - 1.0) * (1.0 + 1e-6)

    def capacity_price(self, capacity, rows=RAISE):
        return self.inverse(capacity, rows)

    def regular_price(self, r_bar: float) -> float:
        """r̄ / (1 - 1/alpha)."""
        return r_bar / (1.0 - 1.0 / self.alpha)

    def consumer_surplus(self, p, rows=RAISE):
        """v p^(2-alpha) / ((alpha-1)(alpha-2)); needs alpha > 2 to converge."""
        rows.check(np.logical_not(self.alpha <= 2.0), lambda k: DivergentSurplusError(
            f"surplus undefined for iso-elastic alpha={item(self.alpha, k)} <= 2 "
            "(willingness-to-pay integral diverges)"))
        ok = np.asarray(p) > 0
        rows.check(ok, lambda k: DomainError(f"need p > 0, got {item(p, k)}"))
        power = _pow(np.where(ok, p, np.nan), 2.0 - self.alpha)
        return _ret(self.v * power / ((self.alpha - 1.0) * (self.alpha - 2.0)))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "v": self.v, "alpha": self.alpha}

    @classmethod
    def calibrated(cls, p_bar, d_bar, alpha_bar, r_bar, share, relative, rows):
        alpha = relative * alpha_bar
        v = share * d_bar * _pow(p_bar, alpha)
        # refused by name here: the field checks would blame v itself
        rows.check(v != 0.0, lambda k: ValueError(
            f"calibrated demand v = share * d_bar * p_bar**alpha underflows to 0.0 "
            f"(p_bar={item(p_bar, k)!r}, alpha={item(alpha, k)!r}); the scenario's demand "
            "scale is too small to price"))
        return columns(cls, rows, v=v, alpha=alpha)


@dataclass(frozen=True)
class LinearDemand:
    """d(p) = v - alpha * p on [0, v/alpha], with v > 0, alpha > 0."""

    v: float
    alpha: float
    kind: ClassVar[str] = "linear"
    worst_case_surplus_floor_pct: ClassVar[float] = 60.0

    def __post_init__(self):
        self._validate(RAISE)

    def _validate(self, rows):
        rows.check(self.v > 0, lambda k: ValueError(
            f"base demand v must be positive, got {item(self.v, k)}"))
        rows.check(self.alpha > 0, lambda k: ValueError(
            f"sensitivity alpha must be positive, got {item(self.alpha, k)}"))

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

    def inverse(self, q, rows=RAISE):
        qs = np.asarray(q, dtype=float)
        rows.check((0 < qs) & (qs <= self.v), lambda k: DomainError(
            f"linear demand only reaches quantities in (0, {item(self.v, k)}], got {item(q, k)}"))
        return _ret((self.v - qs) / self.alpha)

    def upper_bracket(self, r: float, m: float) -> float:
        return self.choke_price

    def capacity_price(self, capacity, rows=RAISE):
        # demand never exceeds a capacity at or above v, whatever the price
        above = np.asarray(capacity) >= self.v
        return _ret(np.where(above, 0.0, self.inverse(np.where(above, self.v, capacity), rows)))

    def regular_price(self, r_bar: float) -> float:
        """(r̄ + v/alpha) / 2."""
        if not r_bar < self.choke_price:
            raise DomainError(
                f"regular cost {r_bar} at or above the choke price {self.choke_price}"
            )
        return 0.5 * (r_bar + self.choke_price)

    def consumer_surplus(self, p, rows=RAISE):
        """alpha (v/alpha - p)^3 / 6."""
        choke = self.choke_price
        rows.check(np.logical_not((np.asarray(p) < 0) | (p > choke)), lambda k: DomainError(
            f"linear surplus defined on [0, {item(choke, k)}], got {item(p, k)}"))
        return _ret(self.alpha * _pow(choke - p, 3.0) / 6.0)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "v": self.v, "alpha": self.alpha}

    @classmethod
    def calibrated(cls, p_bar, d_bar, alpha_bar, r_bar, share, relative, rows):
        # slope d̄/(p̄ - r̄) makes p̄ the optimal regular price at cost r̄,
        # which is elasticity alpha_bar at p̄; the share scales the slope
        rows.check(p_bar > r_bar, lambda k: ValueError(
            f"regular price {item(p_bar, k)} must exceed the derived cost {item(r_bar, k)}"))
        alpha = share * relative * (d_bar / (p_bar - r_bar))
        v = share * d_bar + alpha * p_bar
        # v - alpha p_bar cancels the leading digits of v: a curve whose d(p_bar) misses
        # share * d_bar is rounding noise there (an infinite v is refused by its caller)
        anchor, at_p_bar = share * d_bar, v - alpha * p_bar
        rows.check(np.logical_not(~(abs(at_p_bar - anchor) <= ANCHOR_RTOL * anchor)
                                  & np.isfinite(v)), lambda k: ValueError(
            f"calibrated linear demand gives d(p_bar) = {item(at_p_bar, k)!r}, not its anchor "
            f"{item(anchor, k)!r} within {ANCHOR_RTOL:g} relative; v and alpha*p_bar cancel "
            "below rounding at this scale"))
        return columns(cls, rows, v=v, alpha=alpha)


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
