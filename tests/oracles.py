"""Independent reference implementations used as test oracles.

Everything here is written from the model definitions directly (error
function, adaptive quadrature, brute-force grids) without touching the
package's closed forms, so agreement is meaningful.
"""

import math
import warnings

import numpy as np
from scipy.integrate import quad

SQRT2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)


def norm_cdf(z):
    return 0.5 * (1.0 + math.erf(z / SQRT2))


def trunc_pdf(x, mu, theta, a, b):
    """Renormalized Gaussian density on [a, b]."""
    if x < a or x > b:
        return 0.0
    mass = norm_cdf((b - mu) / theta) - norm_cdf((a - mu) / theta)
    return math.exp(-0.5 * ((x - mu) / theta) ** 2) / (theta * SQRT_2PI * mass)


def quad_tail(t, mu, theta, a, b):
    lo = max(t, a)
    if lo >= b:
        return 0.0
    val, _ = quad(lambda x: trunc_pdf(x, mu, theta, a, b), lo, b, limit=200)
    return val


def quad_overshoot(t, mu, theta, a, b):
    lo = max(t, a)
    if lo >= b:
        return 0.0
    val, _ = quad(lambda x: (x - t) * trunc_pdf(x, mu, theta, a, b), lo, b, limit=200)
    return val


def demand_value(kind, v, alpha, p):
    if kind == "iso":
        return v * p ** -alpha
    return v - alpha * p


def profit_quadrature(kind, v, alpha, r, m, capacity, mu, theta, a, b, p):
    """Expected profit at one price via adaptive quadrature of the overflow term."""
    dem = demand_value(kind, v, alpha, p)
    return (p - r) * dem - m * quad_overshoot(capacity - dem, mu, theta, a, b)


def profit_grid(kind, v, alpha, r, m, capacity, mu, theta, a, b, prices, n_nodes=64):
    """Vectorized expected profit on a price grid (Gauss-Legendre overflow term)."""
    prices = np.asarray(prices, dtype=float)
    dem = demand_value(kind, v, alpha, prices)
    t = capacity - dem
    lo = np.maximum(t, a)
    width = np.maximum(b - lo, 0.0)
    mass = norm_cdf((b - mu) / theta) - norm_cdf((a - mu) / theta)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    on = width > 0  # elsewhere no noise draw overflows and the term is exactly 0
    lo, t, width = lo[on], t[on], width[on]
    part = np.zeros_like(lo)
    for s, w in zip(nodes, weights):
        x = lo + 0.5 * (s + 1.0) * width
        pdf = np.exp(-0.5 * ((x - mu) / theta) ** 2) / (theta * SQRT_2PI * mass)
        part += w * (x - t) * pdf
    integral = np.zeros_like(prices)
    integral[on] = part * (0.5 * width)
    return (prices - r) * dem - m * integral


def surplus_quadrature(kind, v, alpha, p, rel_tail=1e-9):
    """Willingness-to-pay integral; iso-elastic uses a finite cutoff chosen so
    the neglected tail v P^(2-alpha)/(alpha-2) is below rel_tail of the result,
    integrated over geometric panels (one huge panel defeats adaptive quad)."""
    if kind == "linear":
        val, _ = quad(lambda x: (x - p) * (v - alpha * x), p, v / alpha, limit=200)
        return val
    rough = v * p ** (2.0 - alpha)
    cutoff = (rel_tail * rough * (alpha - 2.0) / v) ** (1.0 / (2.0 - alpha))
    total = 0.0
    lo = p
    while lo < cutoff:
        hi = min(2.0 * lo, cutoff)
        val, _ = quad(lambda x: (x - p) * v * x**-alpha, lo, hi, limit=200)
        total += val
        lo = hi
    return total


def random_instance(rng, kind=None):
    """Randomized calibrated market: returns (scenario, input) via the package
    calibration (assumption warnings silenced; draws keep B < C feasible)."""
    from spottransit.calibration import CalibrationInput, calibrate

    if kind is None:
        kind = "iso" if rng.random() < 0.5 else "linear"
    d_bar = rng.uniform(100.0, 1200.0)
    inp = CalibrationInput(
        p_bar=rng.uniform(5.0, 25.0),
        d_bar=d_bar,
        beta=rng.uniform(0.2, 0.7),
        gamma=rng.uniform(1.1, 2.0),
        alpha_bar=2.0,
        mu=rng.uniform(-0.02, 0.02) * d_bar,
        theta=rng.uniform(0.05, 0.15) * d_bar,
        kind=kind,
        r_ratio=rng.uniform(0.1, 0.9),
        m_ratio=rng.uniform(0.5, 1.5),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scen = calibrate(inp)
    return scen, inp
