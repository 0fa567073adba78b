import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spottransit import traffic
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


_DEFAULT_STEP = 300.0


def reference_load_series(path) -> TrafficSeries:
    """The line-by-line parser that load_series replaced, kept as the oracle."""
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
            rows.append((ts, gbps, lineno))
    if not rows:
        raise ValueError(f"{path}: no samples found")

    timestamps = [ts for ts, _, _ in rows]
    step = _DEFAULT_STEP if step_directive is None else step_directive
    if all(ts is None for ts in timestamps):
        return TrafficSeries(0.0, step, np.array([g for _, g, _ in rows]))
    if any(ts is None for ts in timestamps):
        raise ValueError(f"{path}: mixed bare and timestamped rows")

    ts = np.array(timestamps, dtype=float)
    vals = np.array([g for _, g, _ in rows], dtype=float)
    diffs = np.diff(ts)
    if np.any(diffs <= 0):
        bad = rows[int(np.argmax(diffs <= 0)) + 1][2]
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


def parse_outcome(load, path):
    """What a parser makes of a file: the series bits and warnings, or the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            s = load(path)
        except ValueError as exc:
            return type(exc), str(exc)
    return (repr(s.start_time), repr(s.step), s.gaps_filled, s.values.dtype,
            s.values.tobytes(), [str(w.message) for w in caught])


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


@pytest.mark.parametrize("text,line", [
    ("timestamp,gbps\n0,1\n300,2\n300,3\n", 4),
    # a commented header, a directive, blank and bare-'#' lines (a '#' before text is data)
    ("# timestamp,gbps\nstep=300\n\n0,1\n#\n300,2\n\n# \n300,3\n600,4\n", 9),
    ("0,1\n300,2\n\n# 200,5\n", 4),
])
def test_load_non_increasing_timestamps_name_the_later_line(tmp_path, text, line):
    path = write(tmp_path, text)
    for block in (1, traffic._BLOCK_CHARS):
        with mock.patch.object(traffic, "_BLOCK_CHARS", block), \
                pytest.raises(ValueError, match=f"not strictly increasing at line {line}$"):
            load_series(path)
    assert _same_outcome(path, 1)


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


def test_qq_theoretical_quantiles_match_scipy_ndtri():
    from scipy.special import ndtri

    rep = prediction_errors(diurnal(4, noise_sd=2.0, seed=5), WEEK)
    n = rep.residual_count
    ref = ndtri(np.arange(1, n + 1) / (n + 1.0))
    # AS241 and scipy's ndtri differ by a few ulps: 4 ulps of 2.8 is 1.8e-15 absolute
    assert np.all(np.abs(rep.qq_points[:, 0] - ref) <= 1e-15 * np.abs(ref))
    assert rep.qq_points.dtype == np.float64


def test_report_serialization():
    rep = prediction_errors(diurnal(4, noise_sd=2.0, seed=5), WEEK)
    d = rep.to_dict()
    assert d["residual_count"] == rep.residual_count
    assert len(d["qq_points"]) == rep.residual_count


HEADERS = ["timestamp,gbps", "ts, value", "# time series", "#", "Time,Gbps,Extra"]
DIRECTIVES = ["step=60", "# step = 300", "STEP=1e2", "#step=6 0"]
BAD_DIRECTIVES = ["step=abc", "step=0", " # STEP = -5", "step=", "step=60,1"]
BLANK_LINES = ["", "   ", "#", "\t", "# "]
JUNK_LINES = ["# note", "#  a, b", ",", " , ,"]
GOOD_VALUES = ["1.0", "0", "-0", "2.5e1", "1_000", "+3", ".5", "7.", " 8 ", "inf", "nan"]
BAD_VALUES = ["oops", "1-2", "--1", "1__0", "e5", "0x10", "1.2.3", "-1.5", "-inf", "#4"]


@st.composite
def trace_texts(draw):
    """A traffic CSV mixing every line form load_series reads or refuses.

    Most files are all-timestamped or all-bare and most values are plain
    numbers, so that about a quarter of the files parse and the rest fail in
    every way the parser reports.
    """
    number = st.one_of(st.floats(0, 1e4, allow_nan=False).map(repr),
                       st.integers(0, 10**4).map(str))
    value = st.sampled_from([number] * 18 + [st.sampled_from(GOOD_VALUES),
                                             st.sampled_from(BAD_VALUES)]).flatmap(lambda v: v)
    step = draw(st.sampled_from([60, 300]))
    t = draw(st.integers(0, 10**6))
    main_form = draw(st.sampled_from(["stamped", "bare"]))
    lines = [draw(st.sampled_from(HEADERS))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 14))):
        form = draw(st.sampled_from(
            [main_form] * 40 + ["gap", "directive", "blank", "blank", "three", "junk", "bad"]))
        if form in ("stamped", "gap", "three"):
            # mostly on the step grid; sometimes a repeat, a step back or an off-step stamp
            t += step * draw(st.sampled_from([1] * 6 + [2, 3, 0, -1])) + draw(
                st.sampled_from([0] * 9 + [7]))
            stamp = draw(st.sampled_from([str(t), f"{t}.0", f"{t:e}", f" {t} "]))
            gbps = draw(value)
            if form == "stamped":
                row = draw(st.sampled_from([f"{stamp},{gbps}"] * 4 + [
                    f"{stamp}, {gbps}", f"#{stamp},{gbps}", f" # {stamp},,{gbps} "]))
            elif form == "gap":
                row = f"{stamp},,{gbps}"
            else:
                row = f"{stamp},{gbps},{draw(value)}"
        elif form == "bare":
            row = draw(st.sampled_from(["{}"] * 4 + [" {} ", ",{}", "{},", "# {}"])).format(
                draw(value))
        elif form == "directive":
            row = draw(st.sampled_from(DIRECTIVES * 2 + BAD_DIRECTIVES))
        elif form in ("blank", "junk"):
            row = draw(st.sampled_from(BLANK_LINES if form == "blank" else JUNK_LINES))
        else:
            row = draw(st.sampled_from(BAD_VALUES)) + "," + draw(value)
        lines.append(row)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = newline if draw(st.booleans()) else ""
    return newline.join(lines) + end


# corner cases of the line rules, kept as fixed regression examples (the generated runs
# found no disagreement to shrink)
PARSE_EXAMPLES = [
    "timestamp,gbps\r\n0,1.0\r\n300,2.0\r\n",
    "0,,1.0\n300,,2.0\n",
    "# 5\n# 6\n",
    " # 0 , 1.0 \n300,2\n",
    "# note\n0,1\n",
    "0,1\n# note\n",
    "step=abc\n0,oops\n",
    "0,oops\nstep=abc\n",
    "0,1,2\n300,-1\n",
    "0,-0\n300,-1\n",
    "1\n2\n300,3\n",
    "step=60\n1\n2\nstep=30\n",
    "0,1\n0,2\n",
    "0,1\n300,2\n450,3\n",
    "0,nan\n300,inf\n",
    "1_000,2\n1_300,3\n",
    "ts,#\n",
    "\r\r\n",
    "",
]


def _same_outcome(path, block):
    """load_series, reading `block` characters of lines at a time, agrees with the reference."""
    with mock.patch.object(traffic, "_BLOCK_CHARS", block):
        got = parse_outcome(load_series, path)
    return got == parse_outcome(reference_load_series, path)


@pytest.mark.parametrize("block", [1, traffic._BLOCK_CHARS])
@pytest.mark.parametrize("text", PARSE_EXAMPLES)
def test_load_series_matches_the_line_parser_on_corner_cases(tmp_path, text, block):
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    assert _same_outcome(path, block)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=trace_texts(), block=st.sampled_from([1, 20, 60, traffic._BLOCK_CHARS]))
def test_load_series_matches_the_line_parser(tmp_path_factory, text, block):
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    path.write_bytes(text.encode())
    assert _same_outcome(path, block)


def test_load_series_reads_a_long_trace_across_blocks(tmp_path):
    # 12 weeks of 5-minute samples with gaps: many blocks, bit-identical to the line parser
    n = 12 * SAMPLES_PER_WEEK
    rng = np.random.default_rng(11)
    vals = 500.0 + 100.0 * np.sin(np.arange(n) / 288.0 * 2 * np.pi) + rng.normal(0, 5.0, n)
    keep = np.ones(n, dtype=bool)
    keep[rng.choice(np.arange(1, n - 1), size=n // 100, replace=False)] = False
    rows = [f"{1_300_000_000 + 300 * i},{vals[i]:.4f}\n" for i in np.flatnonzero(keep)]
    path = write(tmp_path, "timestamp,gbps\n" + "".join(rows))
    assert path.stat().st_size > 4 * traffic._BLOCK_CHARS
    assert _same_outcome(path, traffic._BLOCK_CHARS)
    with pytest.warns(UserWarning, match=f"filled {n // 100} missing"):
        assert len(load_series(path)) == n
    # a refusal deep in the file names its line, counted across blocks
    for line, bad, needle in ((5000, "1,2,3", "expected 1 or 2 columns at line 5000"),
                              (20000, "1,-2", "negative traffic value at line 20000")):
        text = list(rows)
        text[line - 2] = bad + "\n"
        path = write(tmp_path, "timestamp,gbps\n" + "".join(text))
        with pytest.raises(ValueError, match=needle):
            load_series(path)
        assert _same_outcome(path, traffic._BLOCK_CHARS)
