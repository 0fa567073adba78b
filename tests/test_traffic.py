import math

import numpy as np
import pytest

from spottransit.traffic import (
    TrafficSeries,
    load_series,
    percentile_95,
    predict_persistence,
    prediction_errors,
)

WEEK = 604800.0
STEP = 300.0
SAMPLES_PER_WEEK = int(WEEK / STEP)  # 2016


def write(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def diurnal(n_weeks, noise_sd=0.0, seed=0, base=100.0, amp=40.0):
    """Synthetic trace: one week of a daily sinusoid, tiled (bit-exact weekly
    period), plus optional Gaussian noise."""
    t = np.arange(SAMPLES_PER_WEEK) * STEP
    week = base + amp * np.sin(2 * np.pi * t / 86400.0)
    values = np.tile(week, n_weeks)
    if noise_sd > 0:
        values = values + np.random.default_rng(seed).normal(0.0, noise_sd, size=len(values))
    return TrafficSeries(0.0, STEP, np.clip(values, 0.0, None))


def test_load_two_row_csv(tmp_path):
    s = load_series(write(tmp_path, "0,1.0\n300,2.0\n"))
    assert len(s) == 2 and s.step == 300.0
    np.testing.assert_allclose(s.values, [1.0, 2.0])


def test_load_with_header_and_gap(tmp_path):
    text = "timestamp,gbps\n0,1.0\n300,2.0\n900,4.0\n"  # slot at 600 missing
    with pytest.warns(UserWarning, match="filled 1 missing"):
        s = load_series(write(tmp_path, text))
    assert len(s) == 4
    assert s.gaps_filled == 1
    assert s.values[2] == pytest.approx(3.0)  # mean of the neighbours


def test_load_malformed_row_names_line(tmp_path):
    with pytest.raises(ValueError, match="line 3"):
        load_series(write(tmp_path, "0,1.0\n300,2.0\n600,oops\n"))


def test_load_rejects_negative_and_empty(tmp_path):
    with pytest.raises(ValueError, match="negative"):
        load_series(write(tmp_path, "0,1.0\n300,-2.0\n"))
    with pytest.raises(ValueError, match="no samples"):
        load_series(write(tmp_path, "\n"))
    with pytest.raises(ValueError, match="increasing"):
        load_series(write(tmp_path, "300,1.0\n0,2.0\n"))


def test_load_bare_column_with_step_directive(tmp_path):
    s = load_series(write(tmp_path, "# step=60\n1.0\n2.0\n3.0\n"))
    assert s.step == 60.0 and len(s) == 3
    # one rule for every layout: a directive, even a bad one, is never replaced by the default
    assert load_series(write(tmp_path, "# step=60\n600,1.0\n")).step == 60.0
    with pytest.raises(ValueError, match="step"):
        load_series(write(tmp_path, "# step=0\n600,1.0\n"))


def test_percentile_nearest_rank():
    s = TrafficSeries(0.0, STEP, np.arange(1.0, 101.0))
    assert percentile_95(s) == 95.0
    assert percentile_95(TrafficSeries(0.0, STEP, np.full(50, 7.25))) == 7.25
    # permutation invariance
    rng = np.random.default_rng(2)
    shuffled = rng.permutation(s.values)
    assert percentile_95(TrafficSeries(0.0, STEP, shuffled)) == 95.0


def test_percentile_week_rank_oracle():
    rng = np.random.default_rng(4)
    vals = rng.uniform(0.0, 500.0, size=SAMPLES_PER_WEEK)
    s = TrafficSeries(0.0, STEP, vals)
    rank = math.ceil(0.95 * SAMPLES_PER_WEEK)
    assert rank == 1916
    assert percentile_95(s) == sorted(vals)[rank - 1]


def test_percentile_empty():
    with pytest.raises(ValueError):
        percentile_95(TrafficSeries(0.0, STEP, np.array([])))


def test_persistence_periodic_series_zero_residuals():
    s = diurnal(4)
    pred = predict_persistence(s, WEEK)
    assert len(pred) == len(s) - SAMPLES_PER_WEEK
    assert pred.start_time == s.start_time + WEEK
    np.testing.assert_allclose(pred.values, s.values[SAMPLES_PER_WEEK:], atol=1e-12)
    rep = prediction_errors(s, WEEK)
    assert rep.residual_mean == 0.0 and rep.residual_sd == 0.0
    assert rep.degenerate
    assert rep.residual_count == len(s) - SAMPLES_PER_WEEK


def test_persistence_constant_series():
    s = TrafficSeries(0.0, STEP, np.full(2 * SAMPLES_PER_WEEK, 42.0))
    rep = prediction_errors(s, WEEK)
    assert rep.residual_mean == 0.0 and rep.residual_sd == 0.0 and rep.degenerate


def test_persistence_window_validation():
    s = diurnal(1)
    with pytest.raises(ValueError, match="too short"):
        predict_persistence(s, WEEK)
    with pytest.raises(ValueError, match="multiple"):
        predict_persistence(diurnal(4), WEEK + 17.0)
    for window in (math.inf, -math.inf, -WEEK, 0.0, math.nan):
        for fn in (predict_persistence, prediction_errors):
            with pytest.raises(ValueError, match="window must be a finite number of seconds above 0"):
                fn(diurnal(4), window)


def test_persistence_structural_idempotence():
    s = diurnal(4, noise_sd=3.0, seed=8)
    pred = predict_persistence(s, WEEK)
    pred2 = predict_persistence(pred, WEEK)
    np.testing.assert_allclose(pred2.values, pred.values[: len(pred) - SAMPLES_PER_WEEK])


def test_noise_residual_sd_sqrt2():
    # week-ahead differences of independent noise have sd sqrt(2)*noise_sd
    sd = 5.0
    s = diurnal(4, noise_sd=sd, seed=12)
    rep = prediction_errors(s, WEEK)
    assert rep.residual_count == 3 * SAMPLES_PER_WEEK
    assert rep.residual_sd == pytest.approx(math.sqrt(2.0) * sd, rel=0.05)
    assert abs(rep.residual_mean) < 0.5


def test_qq_points_near_identity_for_gaussian_residuals():
    s = diurnal(4, noise_sd=5.0, seed=21)
    rep = prediction_errors(s, WEEK)
    qq = rep.qq_points
    n = len(qq)
    central = qq[int(0.05 * n) : int(0.95 * n)]
    assert np.max(np.abs(central[:, 0] - central[:, 1])) < 0.05
    # count matches and theoretical quantiles are sorted
    assert n == rep.residual_count
    assert np.all(np.diff(qq[:, 0]) > 0)


def test_report_serialization():
    rep = prediction_errors(diurnal(4, noise_sd=2.0, seed=5), WEEK)
    d = rep.to_dict()
    assert d["residual_count"] == rep.residual_count
    assert len(d["qq_points"]) == rep.residual_count
