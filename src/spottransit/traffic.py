"""Traffic time-series ingestion, 95th-percentile billing, and week-ahead
persistence prediction.

Input CSV is either two columns ``timestamp_seconds,gbps`` (optional
header row) or a single ``gbps`` column preceded by a ``step=<seconds>``
header line.  Missing 5-minute slots are restored by linear
interpolation so the persistence-window arithmetic stays aligned; the
number of filled samples is kept on the series and surfaced as a
warning.

The billable percentile uses the nearest-rank rule (sort ascending,
take the element at 1-based rank ceil(0.95 n)), matching ISP billing
practice; note an interpolating percentile can differ by up to one
sample.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri  # standard normal quantile

from .record import Record

_DEFAULT_STEP = 300.0  # seconds: the 5-minute billing sample


@dataclass
class TrafficSeries:
    start_time: float
    step: float
    values: np.ndarray
    gaps_filled: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if np.any(self.values < 0):
            raise ValueError("traffic samples must be non-negative")

    def __len__(self) -> int:
        return len(self.values)


def load_series(path) -> TrafficSeries:
    """Parse a traffic CSV; restore missing slots by linear interpolation.

    The step is the ``step=`` directive if there is one, else the smallest
    timestamp spacing, else 300 s (bare values or a single timestamped row).
    """
    rows = []
    step_directive = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip().lstrip("#").strip()
            if not text:
                continue
            low = text.lower().replace(" ", "")
            if low.startswith("step="):
                step_directive = float(low.split("=", 1)[1])
                continue
            parts = [c.strip() for c in text.split(",") if c.strip() != ""]
            try:
                nums = [float(c) for c in parts]
            except ValueError:
                if lineno == 1:
                    continue  # header row such as "timestamp,gbps"
                raise ValueError(f"{path}: unparseable row at line {lineno}: {line!r}")
            if len(nums) == 1:
                ts = None
                gbps = nums[0]
            elif len(nums) == 2:
                ts, gbps = nums
            else:
                raise ValueError(f"{path}: expected 1 or 2 columns at line {lineno}")
            if gbps < 0:
                raise ValueError(f"{path}: negative traffic value at line {lineno}")
            rows.append((ts, gbps))
    if not rows:
        raise ValueError(f"{path}: no samples found")

    timestamps = [ts for ts, _ in rows]
    step = _DEFAULT_STEP if step_directive is None else step_directive
    if all(ts is None for ts in timestamps):
        return TrafficSeries(0.0, step, np.array([g for _, g in rows]))
    if any(ts is None for ts in timestamps):
        raise ValueError(f"{path}: mixed bare and timestamped rows")

    ts = np.array(timestamps, dtype=float)
    vals = np.array([g for _, g in rows], dtype=float)
    diffs = np.diff(ts)
    if np.any(diffs <= 0):
        bad = int(np.argmax(diffs <= 0)) + 2
        raise ValueError(f"{path}: timestamps not strictly increasing near line {bad}")
    if len(ts) == 1:
        return TrafficSeries(ts[0], step, vals)

    if step_directive is None:
        step = float(diffs.min())
    ratio = diffs / step
    if np.any(np.abs(ratio - np.round(ratio)) > 1e-6):
        raise ValueError(f"{path}: sample spacing is not a multiple of the step {step}")

    full_ts = np.arange(ts[0], ts[-1] + 0.5 * step, step)
    filled = np.interp(full_ts, ts, vals)
    gaps = len(full_ts) - len(ts)
    if gaps > 0:
        warnings.warn(f"{path}: filled {gaps} missing sample(s) by linear interpolation")
    return TrafficSeries(ts[0], step, filled, gaps_filled=gaps)


def percentile_95(s: TrafficSeries) -> float:
    """Nearest-rank 95th percentile of the samples (the billable demand)."""
    n = len(s)
    if n == 0:
        raise ValueError("empty series")
    rank = math.ceil(0.95 * n)  # 1-based
    return float(np.sort(s.values)[rank - 1])


def _window_samples(s: TrafficSeries, window: float) -> int:
    if not (math.isfinite(window) and window > 0):
        raise ValueError(f"window must be a finite number of seconds above 0, got {window!r}")
    w = window / s.step
    if abs(w - round(w)) > 1e-9:
        raise ValueError(f"window {window}s is not a multiple of the step {s.step}s")
    w = int(round(w))
    if len(s) * s.step < 2 * window:
        raise ValueError(
            f"series too short: {len(s)} samples of {s.step}s cannot cover two {window}s windows"
        )
    return w


def predict_persistence(s: TrafficSeries, window: float = 604800.0) -> TrafficSeries:
    """Persistence forecast: the value at time t is the value at t - window.

    Returns the predicted series aligned to the tail of the input (it
    starts one window later and has len(s) - window/step samples).
    """
    w = _window_samples(s, window)
    return TrafficSeries(s.start_time + window, s.step, s.values[: len(s) - w].copy())


@dataclass
class PredictionReport(Record):
    residual_mean: float
    residual_sd: float
    residual_count: int
    qq_points: np.ndarray  # (k, 2): theoretical normal quantile, sample quantile
    degenerate: bool = False


def prediction_errors(s: TrafficSeries, window: float = 604800.0) -> PredictionReport:
    """Residual statistics (actual - persistence forecast) and normal Q-Q data.

    Q-Q pairs use k/(n+1) plotting positions against the standardized,
    sorted residuals.  A constant residual vector cannot be
    standardized and is flagged as degenerate.
    """
    w = _window_samples(s, window)
    residuals = s.values[w:] - s.values[:-w]
    n = len(residuals)
    mean = float(residuals.mean())
    sd = float(residuals.std(ddof=1)) if n > 1 else 0.0
    if sd == 0.0:
        return PredictionReport(mean, sd, n, np.empty((0, 2)), degenerate=True)
    positions = np.arange(1, n + 1) / (n + 1.0)
    qq = np.column_stack([ndtri(positions), np.sort((residuals - mean) / sd)])
    return PredictionReport(mean, sd, n, qq)

