"""Additive demand noise as a Gaussian truncated to a finite support.

The billable-demand model is D(p) = d(p) + eps where eps lives on
[a, b].  By default the support is mu +/- 3 sd, which keeps more than
99% of the Gaussian mass; the density is renormalized so it integrates
to exactly 1 on the support (the profit integral assumes a proper
density, and the residual ~0.27% mass has to go somewhere).

All tail quantities are closed forms in the error function, so they
vectorize over numpy arrays as well as plain floats.  The normal CDF is the
stdlib ``math.erfc`` applied to each element, so an array gives the same
bits as a loop of scalar calls.  The tail quantities evaluate it only on the
thresholds strictly inside the support; at or outside it they are constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .record import RAISE, Record, item

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)  # times, not over sqrt(2): within 21 ulps of scipy's ndtr on [-8, 8]


def _ret(out):
    return float(out) if out.ndim == 0 else out


def _ndtr_where(z: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """ndtr(z) where the boolean array ``inside`` (of z's shape) holds and 0 elsewhere;
    the stdlib erfc runs on those elements only, one Python call each."""
    out = np.zeros(z.shape)
    out[inside] = [0.5 * math.erfc(x) for x in np.multiply(z[inside], -_SQRT_HALF).tolist()]
    return out


def ndtr(z):
    """Standard normal cdf 0.5 erfc(-z sqrt(1/2)), per element, as float64."""
    z = np.asarray(z, dtype=float)
    return _ndtr_where(z, np.ones(z.shape, dtype=bool))


def _phi(z):
    """Standard normal pdf."""
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


@dataclass(frozen=True)
class UncertaintyModel(Record):
    """Truncated-Gaussian noise with nominal mean mu and sd theta (Gbps).

    ``a`` and ``b`` default to mu -/+ 3*theta.  They are stored
    explicitly so asymmetric supports remain expressible.
    """

    mu: float
    theta: float
    a: float = None  # type: ignore[assignment]
    b: float = None  # type: ignore[assignment]

    def __post_init__(self):
        self._validate(RAISE)

    def _validate(self, rows):
        """Check theta, fill in the default support and check it, for one row or a table
        (``record.columns``) of them."""
        rows.check(self.theta > 0, lambda k: ValueError(
            f"theta must be positive, got {item(self.theta, k)}"))
        if self.a is None:
            object.__setattr__(self, "a", self.mu - 3.0 * self.theta)
        if self.b is None:
            object.__setattr__(self, "b", self.mu + 3.0 * self.theta)
        rows.check(self.a < self.b, lambda k: ValueError(
            f"support must satisfy a < b, got [{item(self.a, k)}, {item(self.b, k)}]"))

    # z-scores of the support edges, the cdf at b and the contained Gaussian mass: fixed
    # per model, so computed once (cached_property writes the instance __dict__ directly,
    # which a frozen dataclass and a table's instance both allow)
    @cached_property
    def _za(self) -> float:
        return (self.a - self.mu) / self.theta

    @cached_property
    def _zb(self) -> float:
        return (self.b - self.mu) / self.theta

    @cached_property
    def _cdf_zb(self) -> float:
        return _ret(ndtr(self._zb))

    @cached_property
    def _mass(self) -> float:
        return _ret(self._cdf_zb - ndtr(self._za))

    @property
    def mean(self) -> float:
        """Exact mean of the truncated distribution (equals mu when the support is symmetric)."""
        return _ret(self.mu + self.theta * (_phi(self._za) - _phi(self._zb)) / self._mass)

    def density(self, x):
        """Renormalized pdf; zero outside [a, b]."""
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.theta
        inside = (x >= self.a) & (x <= self.b)
        out = np.where(inside, _phi(z) / (self.theta * self._mass), 0.0)
        return _ret(out)

    def tail_probability(self, t):
        """Pr(eps > t); 1 below the support, 0 above, non-increasing in t."""
        t = np.asarray(t, dtype=float)
        below, above = t <= self.a, t >= self.b
        z = (t - self.mu) / self.theta
        raw = (self._cdf_zb - _ndtr_where(z, ~(below | above))) / self._mass
        out = np.where(below, 1.0, np.where(above, 0.0, raw))
        out = np.minimum(np.maximum(out, 0.0), 1.0)
        return _ret(out)

    def partial_overshoot(self, t):
        """E[(eps - t)+] = integral of (x - t) f(x) dx from t to b.

        Closed form for the truncated Gaussian; convex, non-increasing,
        zero at and above b, and equal to mean - t at and below a.
        """
        t = np.asarray(t, dtype=float)
        below, above = t <= self.a, t >= self.b
        z = np.clip((t - self.mu) / self.theta, self._za, self._zb)
        zb = self._zb
        # E[(eps-t)+] on the interior: theta*(phi(z)-phi(zb))/mass - (t-mu)*Pr(eps>t)
        tail = (self._cdf_zb - _ndtr_where(z, ~(below | above))) / self._mass
        interior = self.theta * (_phi(z) - _phi(zb)) / self._mass - (t - self.mu) * tail
        # below the support the full support contributes: mean - t
        out = np.where(below, self.mean - t, np.where(above, 0.0, interior))
        out = np.maximum(out, 0.0)
        return _ret(out)

    def cantelli_bound(self, t):
        """One-sided Chebyshev bound theta^2 / (theta^2 + (t-mu)^2) on Pr(eps > t).

        Valid (and required) only for t > mu.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t <= self.mu):
            raise ValueError("the one-sided bound applies only above the mean (t > mu)")
        var = self.theta**2
        out = var / (var + np.square(t - self.mu))
        return _ret(out)


def uncertainty_from_dict(obj: dict) -> UncertaintyModel:
    """Build from {"mu":..., "theta":..., "a":..., "b":...}; a, b optional."""
    return UncertaintyModel(
        float(obj["mu"]),
        float(obj["theta"]),
        float(obj["a"]) if obj.get("a") is not None else None,
        float(obj["b"]) if obj.get("b") is not None else None,
    )
