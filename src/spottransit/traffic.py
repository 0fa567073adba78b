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
from statistics import NormalDist

import numpy as np

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


# Lines that differ only in their ASCII digits parse alike: float() accepts a token
# exactly when it accepts the token with every digit replaced by 0.  So each distinct
# digit-masked shape is read once, and the lines of one shape are converted together.
_MASK_DIGITS = str.maketrans("123456789", "000000000")


def _directive(line: str):
    """The value text of a ``step=`` line (spaces removed), or None for any other line."""
    low = line.strip().lstrip("#").strip().lower().replace(" ", "")
    return low.split("=", 1)[1] if low.startswith("step=") else None


def _parses(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class _Layout:
    """How every line of one digit-masked shape reads."""

    kind: str          # "blank", "step", "data", or refused: "bad step", "bad", "columns"
    width: int = 0     # comma-separated fields of a data line
    keep: tuple = ()   # the non-empty fields: the line's one or two columns
    cut: int = 0       # whitespace and '#'s before the first field

    @property
    def refused(self) -> bool:
        """Whether a line of this shape is an error (line 1 may still be a header)."""
        return self.kind in ("bad step", "bad", "columns")


def _layout(shape: str) -> _Layout:
    text = shape.strip().lstrip("#").strip()
    if not text:
        return _Layout("blank")
    value = _directive(shape)
    if value is not None:
        return _Layout("step" if _parses(value) else "bad step")
    fields = text.split(",")
    keep = tuple(j for j, c in enumerate(fields) if c.strip() != "")
    if not all(_parses(fields[j]) for j in keep):
        return _Layout("bad")
    if len(keep) not in (1, 2):
        return _Layout("columns")
    return _Layout("data", len(fields), keep,
                   len(shape) - len(shape.lstrip().lstrip("#").lstrip()))


_BLOCK_CHARS = 1 << 16  # lines are read and converted about 64 kB at a time


def _read_block(block: list, known: dict):
    """Classify and convert a block of lines.

    Returns the layouts of the block's distinct shapes, each line's index into
    them, and per line its column count (0 unless a sample line), timestamp
    (NaN unless two columns) and value.  ``known`` maps the digit-masked shapes
    seen so far in the file to their layouts.
    """
    shapes = "".join(block).translate(_MASK_DIGITS).split("\n")[:len(block)]
    ids = {shape: k for k, shape in enumerate(dict.fromkeys(shapes))}
    layouts = [known[s] if s in known else known.setdefault(s, _layout(s)) for s in ids]
    shape_of = np.fromiter(map(ids.__getitem__, shapes), dtype=np.intp, count=len(shapes))

    # convert the sample lines of each shape column by column, all in one array call
    tokens, groups = [], []
    order = np.argsort(shape_of, kind="stable")
    for lay, idx in zip(layouts, np.split(order, np.cumsum(np.bincount(shape_of))[:-1])):
        if lay.kind == "data":
            fields = ",".join([block[i] for i in idx.tolist()]).split(",")
            for j in lay.keep:
                column = fields[j::lay.width]
                tokens += [f[lay.cut:] for f in column] if j == 0 and lay.cut else column
            groups.append((idx, len(lay.keep)))
    values = np.array(tokens, dtype=float)
    cols = np.zeros(len(block), dtype=np.intp)
    stamps, gbps = np.full(len(block), np.nan), np.zeros(len(block))
    at = 0
    for idx, ncol in groups:
        rows = values[at:at + ncol * len(idx)].reshape(ncol, len(idx))
        at += rows.size
        cols[idx], gbps[idx] = ncol, rows[-1]
        if ncol == 2:
            stamps[idx] = rows[0]
    return layouts, shape_of, cols, stamps, gbps


def load_series(path) -> TrafficSeries:
    """Parse a traffic CSV; restore missing slots by linear interpolation.

    A line is blank, a ``step=`` directive (spaces and a leading ``#`` allowed),
    or a row of one or two comma-separated numbers (empty fields are skipped, a
    leading ``#`` is dropped); an unparseable first line is a header.  The first
    line that breaks these rules, or holds a negative value, is reported.  The
    step is the last ``step=`` directive if there is one, else the smallest
    timestamp spacing, else 300 s (bare values or a single timestamped row).
    """
    known = {}  # digit-masked shape -> _Layout, each classified once per file
    # (columns, stamp, value, file line) of the sample lines
    samples = [(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.intp))]
    step_directive = None
    lineno = 0  # lines before the block
    with open(path) as fh:
        while block := fh.readlines(_BLOCK_CHARS):
            layouts, shape_of, cols, stamps, gbps = _read_block(block, known)
            refused = np.array([lay.refused for lay in layouts])[shape_of] | (gbps < 0)
            if lineno == 0:
                refused[0] &= layouts[shape_of[0]].kind != "bad"  # a header row such as "timestamp,gbps"
            if refused.any():
                i = int(np.argmax(refused))
                kind, line = layouts[shape_of[i]].kind, block[i]
                if kind == "bad step":
                    float(_directive(line))  # raises the conversion error
                if kind == "bad":
                    raise ValueError(f"{path}: unparseable row at line {lineno + i + 1}: {line!r}")
                if kind == "columns":
                    raise ValueError(f"{path}: expected 1 or 2 columns at line {lineno + i + 1}")
                raise ValueError(f"{path}: negative traffic value at line {lineno + i + 1}")
            steps = np.flatnonzero(np.array([lay.kind == "step" for lay in layouts])[shape_of])
            if len(steps):
                step_directive = float(_directive(block[steps[-1]]))
            rows = np.flatnonzero(cols)
            samples.append((cols[rows], stamps[rows], gbps[rows], lineno + rows + 1))
            lineno += len(block)

    cols, ts, vals, lines = (np.concatenate(part) for part in zip(*samples))
    if not len(cols):
        raise ValueError(f"{path}: no samples found")
    step = _DEFAULT_STEP if step_directive is None else step_directive
    bare = cols == 1
    if bare.all():
        return TrafficSeries(0.0, step, vals)
    if bare.any():
        raise ValueError(f"{path}: mixed bare and timestamped rows")

    diffs = np.diff(ts)
    if np.any(diffs <= 0):
        bad = lines[int(np.argmax(diffs <= 0)) + 1]  # the later sample of the first bad pair
        raise ValueError(f"{path}: timestamps not strictly increasing at line {bad}")
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


def persistence_residuals(s: TrafficSeries, window: float = 604800.0):
    """Residuals (actual - persistence forecast), their mean, and their sample
    sd (0 for a single residual)."""
    w = _window_samples(s, window)
    residuals = s.values[w:] - s.values[:-w]
    sd = float(residuals.std(ddof=1)) if len(residuals) > 1 else 0.0
    return residuals, float(residuals.mean()), sd


def prediction_errors(s: TrafficSeries, window: float = 604800.0) -> PredictionReport:
    """Residual statistics (actual - persistence forecast) and normal Q-Q data.

    Q-Q pairs use k/(n+1) plotting positions against the standardized,
    sorted residuals.  A constant residual vector cannot be
    standardized and is flagged as degenerate.
    """
    residuals, mean, sd = persistence_residuals(s, window)
    n = len(residuals)
    if sd == 0.0:
        return PredictionReport(mean, sd, n, np.empty((0, 2)), degenerate=True)
    positions = np.arange(1, n + 1) / (n + 1.0)
    # Wichura's AS241 normal quantile (Applied Statistics 37(3), 1988)
    quantiles = np.array(list(map(NormalDist().inv_cdf, positions.tolist())))
    qq = np.column_stack([quantiles, np.sort((residuals - mean) / sd)])
    return PredictionReport(mean, sd, n, qq)

