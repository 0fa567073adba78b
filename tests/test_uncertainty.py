import math

import numpy as np
import pytest

from oracles import norm_cdf, quad_overshoot, quad_tail, trunc_pdf
from spottransit.record import Rows, columns
from spottransit.uncertainty import UncertaintyModel, _phi, ndtr, uncertainty_from_dict


def _table(models):
    """The models as one table instance, built as calibration builds its noise columns."""
    rows = Rows(len(models))
    table = columns(UncertaintyModel, rows, **{
        name: np.array([getattr(u, name) for u in models]) for name in ("mu", "theta", "a", "b")})
    assert rows.errors == [None] * len(models)
    return table

STD = UncertaintyModel(mu=0.0, theta=1.0)  # default support [-3, 3]


def test_default_support():
    u = UncertaintyModel(mu=10.0, theta=2.0)
    assert u.a == 4.0 and u.b == 16.0
    assert UncertaintyModel(0, 1, a=-1.0, b=5.0).a == -1.0


def test_validation():
    with pytest.raises(ValueError):
        UncertaintyModel(0, -1.0)
    with pytest.raises(ValueError):
        UncertaintyModel(0, 1, a=2.0, b=2.0)


def test_density_outside_support_and_symmetry():
    assert STD.density(-3.1) == 0.0
    assert STD.density(3.0001) == 0.0
    assert STD.density(1.3) == pytest.approx(STD.density(-1.3), rel=1e-14)
    # standard normal pdf at 0 renormalized by the 3-sigma mass
    expected = (1 / math.sqrt(2 * math.pi)) / (norm_cdf(3.0) - norm_cdf(-3.0))
    assert STD.density(0.0) == pytest.approx(expected, rel=1e-12)
    assert STD.density(0.0) == pytest.approx(0.40002, abs=1e-5)


def test_density_integrates_to_one():
    for u in [STD, UncertaintyModel(-15.9278, 174.8157), UncertaintyModel(2.0, 5.0, a=-4.0, b=20.0)]:
        total, _ = __import__("scipy.integrate", fromlist=["quad"]).quad(u.density, u.a, u.b, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_tail_probability_edges_and_fixture():
    assert STD.tail_probability(3.0) == 0.0
    assert STD.tail_probability(5.0) == 0.0
    assert STD.tail_probability(-3.0) == 1.0
    assert STD.tail_probability(0.0) == pytest.approx(0.5, rel=1e-14)  # symmetric support
    # erf oracle: (Phi(3) - Phi(1)) / (Phi(3) - Phi(-3))
    expected = (norm_cdf(3.0) - norm_cdf(1.0)) / (norm_cdf(3.0) - norm_cdf(-3.0))
    assert STD.tail_probability(1.0) == pytest.approx(expected, rel=1e-12)
    assert STD.tail_probability(1.0) == pytest.approx(0.1577312, abs=1e-7)


def test_tail_probability_against_quadrature():
    for u in [STD, UncertaintyModel(-7.9639, 87.40785), UncertaintyModel(1.0, 2.0, a=-3.0, b=8.0)]:
        for t in np.linspace(u.a - 10, u.b + 10, 23):
            assert u.tail_probability(t) == pytest.approx(
                quad_tail(t, u.mu, u.theta, u.a, u.b), abs=1e-9
            )


def test_tail_probability_monotone():
    ts = np.linspace(-4, 4, 200)
    vals = STD.tail_probability(ts)
    assert np.all(np.diff(vals) <= 1e-15)


def test_partial_overshoot_edges_and_fixture():
    assert STD.partial_overshoot(3.0) == 0.0
    assert STD.partial_overshoot(7.0) == 0.0
    assert STD.partial_overshoot(-4.0) == pytest.approx(4.0, rel=1e-12)  # E[eps] - t, symmetric
    # quadrature oracle agrees with (phi(0) - phi(3)) / mass at t = 0
    assert STD.partial_overshoot(0.0) == pytest.approx(
        quad_overshoot(0.0, 0.0, 1.0, -3.0, 3.0), abs=1e-9
    )
    assert STD.partial_overshoot(0.0) == pytest.approx(0.3955784, abs=1e-7)


def test_partial_overshoot_against_quadrature():
    for u in [STD, UncertaintyModel(-7.9639, 87.40785), UncertaintyModel(1.0, 2.0, a=-3.0, b=8.0)]:
        scale = u.theta
        for t in np.linspace(u.a - 2 * scale, u.b + scale, 19):
            assert u.partial_overshoot(t) == pytest.approx(
                quad_overshoot(t, u.mu, u.theta, u.a, u.b), abs=1e-9 * max(1.0, scale)
            )


def test_partial_overshoot_shape():
    ts = np.linspace(-5, 4, 400)
    vals = STD.partial_overshoot(ts)
    diffs = np.diff(vals)
    assert np.all(diffs <= 1e-12)           # non-increasing
    assert np.all(np.diff(diffs) >= -1e-9)  # convex
    assert np.all(vals >= 0)


def test_overshoot_derivative_is_minus_tail():
    # d/dt E[(eps-t)+] = -Pr(eps > t)
    for t in [-2.0, -0.5, 0.0, 1.2, 2.5]:
        h = 1e-6
        fd = (STD.partial_overshoot(t + h) - STD.partial_overshoot(t - h)) / (2 * h)
        assert fd == pytest.approx(-STD.tail_probability(t), abs=1e-6)


def test_cantelli_bound():
    assert STD.cantelli_bound(1.0) == pytest.approx(0.5)
    assert STD.cantelli_bound(3.0) == pytest.approx(0.1)
    linx = UncertaintyModel(-15.9278, 174.8157)
    expected = 174.8157**2 / (174.8157**2 + (300.0 - -15.9278) ** 2)
    assert linx.cantelli_bound(300.0) == pytest.approx(expected, rel=1e-12)
    assert linx.cantelli_bound(300.0) == pytest.approx(0.2344122, abs=1e-7)
    with pytest.raises(ValueError):
        STD.cantelli_bound(0.0)  # not valid at or below the mean


def test_cantelli_dominates_tail():
    rng = np.random.default_rng(19)
    for _ in range(50):
        mu = rng.uniform(-20, 20)
        theta = rng.uniform(0.1, 50)
        u = UncertaintyModel(mu, theta)
        for t in mu + rng.uniform(0.01, 4.0, size=10) * theta:
            assert u.cantelli_bound(t) >= u.tail_probability(t) - 1e-12


def test_density_quadrature_identity_with_tail():
    # integral of the density over [t, b] reproduces the tail probability
    from scipy.integrate import quad

    u = UncertaintyModel(3.0, 7.0)
    for t in [-10.0, 0.0, 5.0, 20.0]:
        lo = max(t, u.a)
        val = quad(u.density, lo, u.b, limit=200)[0] if lo < u.b else 0.0
        assert u.tail_probability(t) == pytest.approx(val, abs=1e-9)


def test_independent_pdf_agrees():
    u = UncertaintyModel(2.0, 3.0)
    for x in [-6.0, 0.0, 2.0, 8.0, 12.0]:
        assert u.density(x) == pytest.approx(trunc_pdf(x, 2.0, 3.0, u.a, u.b), rel=1e-12, abs=1e-15)


def test_json_roundtrip():
    u = UncertaintyModel(-7.9639, 87.40785)
    assert uncertainty_from_dict(u.to_dict()) == u
    v = uncertainty_from_dict({"mu": 0.0, "theta": 2.0})
    assert (v.a, v.b) == (-6.0, 6.0)


def test_ndtr_matches_scipy_and_arrays_equal_scalar_calls():
    from scipy.special import ndtr as scipy_ndtr

    z = np.concatenate([np.linspace(-8.0, 8.0, 16001), [0.0, -0.0, np.inf, -np.inf]])
    ours, ref = ndtr(z), scipy_ndtr(z)
    assert ours.dtype == np.float64 and ours.shape == z.shape
    assert ours[-4:].tolist() == [0.5, 0.5, 1.0, 0.0]
    kept = ref >= 1e-300
    assert np.all(np.abs(ours[kept] - ref[kept]) <= 1e-14 * ref[kept])
    # every element goes through the scalar function: arrays and 0-d inputs give the same bits
    scalars = [ndtr(x) for x in z.tolist()]
    assert all(s.ndim == 0 and s.dtype == np.float64 for s in scalars[:3])
    assert np.array(scalars).tobytes() == ours.tobytes()
    assert ndtr(z.reshape(-1, 5)).tobytes() == ours.tobytes()
    assert ndtr(np.asarray(1.5)).ndim == 0


def test_noise_constants_are_computed_once_and_stay_out_of_the_fields():
    u = UncertaintyModel(2.0, 3.0, a=-4.0, b=11.0)
    assert u.tail_probability(2.0) == u.tail_probability(2.0)
    cached = {k: v for k, v in vars(u).items() if k.startswith("_")}
    assert set(cached) == {"_za", "_zb", "_cdf_zb", "_mass"}
    assert all(isinstance(v, float) for v in cached.values())
    assert u == UncertaintyModel(2.0, 3.0, a=-4.0, b=11.0)
    assert hash(u) == hash(UncertaintyModel(2.0, 3.0, a=-4.0, b=11.0))
    assert list(u.to_dict()) == ["mu", "theta", "a", "b"]
    with pytest.raises(AttributeError):
        u.mu = 1.0


def test_stacked_model_gives_each_rows_tails_bit_for_bit():
    rng = np.random.default_rng(83)
    models = [UncertaintyModel(rng.uniform(-20, 20), rng.uniform(0.1, 50)) for _ in range(30)]
    models += [UncertaintyModel(1.0, 2.0, a=-3.0, b=8.0), STD]
    stacked = _table(models)
    for _ in range(5):
        t = np.array([u.mu + u.theta * rng.uniform(-4.0, 4.0) for u in models])
        t[::7] = [u.b for u in models[::7]]
        assert stacked.tail_probability(t).tolist() == [
            u.tail_probability(x) for u, x in zip(models, t.tolist())]
        assert stacked.partial_overshoot(t).tolist() == [
            u.partial_overshoot(x) for u, x in zip(models, t.tolist())]


def _full_cdf_tails(u, t):
    """Pr(eps > t) and E[(eps - t)+] with the cdf evaluated on every element."""
    t = np.asarray(t, dtype=float)
    raw = (u._cdf_zb - ndtr((t - u.mu) / u.theta)) / u._mass
    tail = np.where(t <= u.a, 1.0, np.where(t >= u.b, 0.0, raw))
    z = np.clip((t - u.mu) / u.theta, u._za, u._zb)
    inner = (u.theta * (_phi(z) - _phi(u._zb)) / u._mass
             - (t - u.mu) * ((u._cdf_zb - ndtr(z)) / u._mass))
    over = np.where(t <= u.a, u.mean - t, np.where(t >= u.b, 0.0, inner))
    return np.minimum(np.maximum(tail, 0.0), 1.0), np.maximum(over, 0.0)


def test_tails_take_the_cdf_of_interior_thresholds_only(monkeypatch):
    rng = np.random.default_rng(61)
    models = [UncertaintyModel(rng.uniform(-20, 20), rng.uniform(0.1, 50)) for _ in range(40)]
    models += [UncertaintyModel(1.0, 2.0, a=-3.0, b=8.0), STD]
    stacked = _table(models)
    fields = np.array([[u.mu, u.theta, u.a, u.b] for u in models]).T
    cases = [(stacked, t) for t in
             [fields[0] + fields[1] * rng.uniform(-4.5, 4.5, (3, len(models))),  # (3, R)
              fields[2], fields[3], np.where(rng.random(len(models)) < 0.5, fields[2], fields[3])]]
    for u in models[-3:]:
        cases += [(u, t) for t in [u.a, u.b, u.a - 1.0, u.b + 1.0, 0.5 * (u.a + u.b),
                                   u.mu + u.theta * rng.uniform(-4.5, 4.5, 500)]]

    erfc, seen = math.erfc, []
    for u, t in cases:
        tail, over = _full_cdf_tails(u, t)
        inside = int(np.sum((t > u.a) & (t < u.b)))
        with monkeypatch.context() as patch:  # count the erfc calls
            patch.setattr(math, "erfc", lambda x: seen.append(x) or erfc(x))
            seen.clear()
            got = u.tail_probability(t)
            assert np.asarray(got).tobytes() == tail.tobytes() and len(seen) == inside
            seen.clear()
            got = u.partial_overshoot(t)
            assert np.asarray(got).tobytes() == over.tobytes() and len(seen) == inside
        if np.ndim(t) == 0:
            assert isinstance(u.tail_probability(t), float)
