"""Fuzz the CLI commands in-process: any config or scenario file and any
argument value that argparse takes must end in a report (exit 0) or in
exactly one `error:` line (exit 2), never a traceback.

For `mdp` and `simulate`, valid sizes stay small (capacity <= 12,
price_points <= 24, horizons up to 50 against rates of at most a few
hundred), so every example ends well under a second.  Rates of 1e200 and
more are refused before any walk by the transition limit, and non-finite
ones by the spec.

For `calibrate`, `static`, `worst-case` and `sweep`, a scenario is a
bundled IXP or an explicit base with up to three keys set to edge numbers,
wrong types or lists.  The only warnings a run may issue are calibration's
UserWarnings; any other, such as a numpy RuntimeWarning, would be a second
line on stderr in a shell.
"""

import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spottransit.cli import main

EDGE_NUMBERS = [0, 1, -1, 0.5, -1.5, 2, 24, 1e-300, 5e-324, -5e-324, 1e200, -1e200, 1e308,
                -1e308, math.inf, -math.inf, math.nan]
WRONG_TYPES = [None, True, False, "4", "", [], {}, [[1.0]], {"a": 1}, [None], ["1"]]
edge = st.sampled_from(EDGE_NUMBERS)
wrong = st.sampled_from(WRONG_TYPES)
coeffs = st.lists(st.one_of(edge, st.floats(-30, 30), wrong), min_size=0, max_size=4)


@st.composite
def valid_models(draw):
    """A model the spec accepts: arrivals a (1 - (p/p_max)^k), departures c + d p^j."""
    p_max = draw(st.sampled_from([0.5, 1.0, 4.0]))
    a, k = draw(st.sampled_from([0.0, 1.0, 24.0])), draw(st.integers(1, 3))
    arrival = [a] + [0.0] * (k - 1) + [-a / p_max**k]
    c, d = draw(st.sampled_from([0.0, 0.0, 1.0])), draw(st.sampled_from([0.3, 3.0]))
    departure = [c] + [0.0] * (draw(st.integers(1, 3)) - 1) + [d]
    return {"capacity": draw(st.integers(1, 12)), "arrival": arrival, "departure": departure,
            "p_max": p_max, "price_points": draw(st.integers(2, 24))}


@st.composite
def configs(draw):
    """A valid model with some keys changed, dropped or added, or a value of another type."""
    cfg = draw(valid_models())
    for key in draw(st.lists(st.sampled_from(sorted(cfg)), max_size=3, unique=True)):
        if key in ("arrival", "departure"):
            cfg[key] = draw(st.one_of(coeffs, edge, wrong))
        elif key == "capacity":
            cfg[key] = draw(st.one_of(edge, wrong, st.sampled_from([0, -3, 2.5, 1_000_001, 1e7])))
        elif key == "price_points":
            cfg[key] = draw(st.one_of(edge, wrong, st.sampled_from([1, 2, 2.5, 1_000_001])))
        else:
            cfg[key] = draw(st.one_of(edge, wrong, st.floats(-10, 10)))
    for key in draw(st.lists(st.sampled_from(sorted(cfg)), max_size=1)):
        del cfg[key]
    if draw(st.booleans()) and draw(st.booleans()):
        unknown = draw(st.sampled_from(["Capacity", "price_point", "seed", ""]))
        cfg[unknown] = draw(st.one_of(edge, wrong))
    # mostly the object; sometimes a file that holds no object at all
    return draw(st.one_of(st.just(cfg), st.just(cfg), st.just(cfg), wrong, edge))


# mostly a horizon the walk runs, and the default warmup
horizons = st.one_of(st.floats(1e-3, 50), st.floats(1e-3, 50), edge, st.floats(-1e3, 0))
warmups = st.one_of(st.none(), st.none(), st.floats(0, 50), edge)


def _float_arg(x) -> str:
    return repr(float(x))  # 'inf', 'nan' and '1e+200' parse as argparse's float


@pytest.mark.filterwarnings("error")  # in a shell, a warning is a second stderr line
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                   HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["mdp", "mdp-rvi", "simulate"]), cfg=configs(),
       horizon=horizons, warmup=warmups,
       seed=st.one_of(st.integers(-2, 3), st.sampled_from([2**63, 2**128, -(2**70)])))
def test_mdp_and_simulate_end_in_a_report_or_one_error_line(tmp_path_factory, capsys, command, cfg,
                                                             horizon, warmup, seed):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "cfg.json"
    path.write_text(json.dumps(cfg))  # inf and nan are written as Infinity and NaN
    argv = ["--out", str(work / "r"), command.split("-")[0], "--config", str(path)]
    if command == "mdp-rvi":
        argv += ["--algorithm", "rvi"]
    if command == "simulate":
        argv += [f"--seed={seed}", f"--horizon={_float_arg(horizon)}"]
        if warmup is not None:
            argv.append(f"--warmup={_float_arg(warmup)}")
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 2)
    if rc == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert not (work / "r.json").exists()
    else:
        assert err == ""
        assert json.loads((work / "r.json").read_text())["meta"]["command"] == command.split("-")[0]


SCENARIO_NUMBERS = ["p_bar", "d_bar", "mu", "theta", "gamma", "alpha_bar", "r_ratio", "m_ratio"]
SCENARIO_EDGES = EDGE_NUMBERS + [1.0000001, 1.05, 0.05, 0.95, 0.3000001, 1.7e308, 1e20, 1e-20,
                                 400, 1e300]


@st.composite
def scenarios(draw):
    """A bundled or explicit scenario with up to three keys set to edge numbers, wrong types
    or lists; sometimes an unknown kind, IXP or region."""
    kind = draw(st.sampled_from(["iso"] * 4 + ["linear"] * 4 + ["loglog", 3]))
    if draw(st.booleans()):
        scn = {"ixp": draw(st.sampled_from(["linx", "mskix", "nix", "nyiix", "espanix", "hkix",
                                            "linx", "hkix", "decix"])), "kind": kind}
    else:
        scn = {"d_bar": draw(st.sampled_from([100.0, 1080.0, 5e3])), "kind": kind,
               "mu": draw(st.sampled_from([0.0, -15.9, 3.9])),
               "theta": draw(st.sampled_from([1.0, 26.0, 174.8]))}
        scn.update(draw(st.sampled_from([{"p_bar": 7.5}, {"p_bar": 22.0}, {"region": "london"},
                                         {"region": "hongkong"}, {"region": "mars"}])))
    edge = st.sampled_from(SCENARIO_EDGES)
    edge_values = st.one_of(edge, edge, edge, edge, st.floats(-10, 10), st.floats(0.01, 5), wrong,
                            st.lists(edge, max_size=3))
    for key in draw(st.lists(st.sampled_from(SCENARIO_NUMBERS * 2 + ["beta"] * 2 + ["label"]),
                             max_size=3, unique=True)):
        if key == "beta":
            scn[key] = draw(st.one_of(edge_values, st.lists(st.floats(0.01, 0.99), min_size=1,
                                                            max_size=4)))
        else:
            scn[key] = draw(edge_values)
    return scn


def _values_arg(draw_values) -> str:
    return ",".join(repr(float(v)) if isinstance(v, (int, float)) else str(v)
                    for v in draw_values)


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["calibrate", "static", "worst-case", "sweep"]), scn=scenarios(),
       param=st.sampled_from(["r_ratio", "m_ratio", "gamma", "beta"]),
       values=st.one_of(st.none(),
                        st.lists(st.sampled_from(SCENARIO_EDGES), min_size=1, max_size=4),
                        st.lists(st.sampled_from(SCENARIO_EDGES + ["x", ""]), min_size=1,
                                 max_size=4)))
def test_scenario_commands_end_in_a_report_or_one_error_line(tmp_path_factory, capsys, command,
                                                             scn, param, values):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "scn.json"
    path.write_text(json.dumps(scn))
    argv = ["--out", str(work / "r"), "--scenario", str(path), command]
    if command == "sweep":
        argv += ["--param", param]
        if values is not None:
            argv.append(f"--values={_values_arg(values)}")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    err = capsys.readouterr().err
    others = [w for w in caught
              if not (w.category is UserWarning and w.filename.endswith("calibration.py"))]
    assert not others, [f"{w.category.__name__}: {w.message} ({w.filename})" for w in others]
    assert rc in (0, 2)
    if rc == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert not (work / "r.json").exists()
    else:
        assert err == ""
        assert json.loads((work / "r.json").read_text())["meta"]["command"] == command


# any JSON value: NaN and the infinities are written as the NaN/Infinity constants json
# reads back, and text may hold any code point, lone surrogates included
texts = st.one_of(st.text(st.characters(), max_size=8), st.sampled_from(["\ud800", "a,\nb"]))
json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), texts)
json_values = st.recursive(json_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(texts, inner, max_size=3)), max_leaves=8)
objects = st.dictionaries(texts, json_values, max_size=4)
MISSING = object()


@st.composite
def saved_reports(draw):
    """A report object with its meta, rows and columns each kept, dropped or mistyped, or
    any other JSON value."""
    report = {
        "meta": draw(st.one_of(objects, objects, st.just(MISSING), json_values)),
        "rows": draw(st.one_of(st.lists(objects, max_size=4), st.lists(objects, max_size=4),
                               st.lists(st.one_of(objects, json_values), min_size=1, max_size=3),
                               st.just(MISSING), json_values)),
        "columns": draw(st.one_of(st.just(MISSING), st.lists(texts, max_size=4),
                                  st.lists(json_values, min_size=1, max_size=3), json_values)),
    }
    report = {key: value for key, value in report.items() if value is not MISSING}
    report.update(draw(st.dictionaries(st.sampled_from(["extra", "Meta", ""]), json_values,
                                       max_size=1)))
    return draw(st.one_of(st.just(report), st.just(report), st.just(report), json_values))


def _is_report(saved) -> bool:
    """A report holds a meta object and a list of row objects, and its columns, if given,
    are a list of names."""
    return (isinstance(saved, dict) and isinstance(saved.get("meta"), dict)
            and isinstance(saved.get("rows"), list)
            and all(isinstance(row, dict) for row in saved["rows"])
            and isinstance(saved.get("columns", []), list)
            and all(isinstance(name, str) for name in saved.get("columns", [])))


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(saved=saved_reports(), fmt=st.sampled_from(["json", "csv"]))
def test_report_re_exports_a_report_or_ends_in_one_error_line(tmp_path_factory, capsys, saved,
                                                               fmt):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "saved.json"
    path.write_text(json.dumps(saved))
    capsys.readouterr()
    rc = main(["--out", str(work / "r"), "--format", fmt, "report", "--in", str(path)])
    err = capsys.readouterr().err
    out = work / f"r.{fmt}"
    if not _is_report(saved):
        lines = err.splitlines()
        assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: "), err
        assert not out.exists()
        return
    assert rc == 0 and err == ""
    rows = saved["rows"]
    columns = saved.get("columns") or (list(rows[0]) if rows else [])
    if fmt == "json":  # the report reads back as written: compare the texts, since NaN != NaN
        again = json.loads(out.read_text())
        assert list(again) == ["meta", "rows", "columns"]
        assert json.dumps(again) == json.dumps({"meta": saved["meta"], "rows": rows,
                                                "columns": columns})
    else:  # CSV does not quote, so only its encoding is checked
        assert out.read_bytes().decode("utf-8").endswith("\n")
