"""Answer checks: a call whose report is wrong counts as a failed operation.

Each check reads the report a call exported and returns an error string
(or None) plus the facts the per-pass cross-checks and the metrics use.
Checks run outside the timed region and outside any traced span.
"""

from __future__ import annotations

import json
import math

import numpy as np

from spottransit import mdp

GOLDEN_REL = 1e-9      # test_golden_static_run
REFERENCE_REL = 0.01   # acceptance table, K=100
PI_RVI_REL = 1e-6
AVERAGE_REVENUE_REL = 1e-9

PRICED = {"static", "worst-case", "sweep"}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _golden(rows: list, frozen_rows: list):
    if len(rows) != len(frozen_rows):
        return f"golden: {len(rows)} rows, expected {len(frozen_rows)}"
    for fresh, frozen in zip(rows, frozen_rows):
        for key, val in frozen.items():
            got = fresh.get(key)
            if isinstance(val, float):
                if not isinstance(got, (int, float)) or _rel(got, val) > GOLDEN_REL:
                    return f"golden: beta={frozen.get('beta')} {key}={got!r}, expected {val!r}"
            elif got != val:
                return f"golden: beta={frozen.get('beta')} {key}={got!r}, expected {val!r}"
    return None


def _priced(op, meta, rows, facts):
    bad = [r for r in rows if r.get("error")]
    if bad:
        return f"{len(bad)} row(s) carry an error, first: {bad[0]['error']}"
    if not rows:
        return "report has no rows"
    for r in rows:
        p = r.get("p_star")
        if not isinstance(p, (int, float)) or not math.isfinite(p) or p <= 0:
            return f"row beta={r.get('beta')} has no valid p_star: {p!r}"
    facts["solved_rows"] = len(rows)
    if "golden_rows" in op.facts:
        return _golden(rows, op.facts["golden_rows"])
    return None


def _calibrate(op, meta, rows, facts):
    if not rows or any(r.get("error") for r in rows):
        return "calibration report empty or carries an error"
    return None


def _predict(op, meta, rows, facts):
    want = op.facts
    got = (meta.get("samples"), meta.get("gaps_filled"), meta.get("residual_count"), len(rows))
    expected = (want["slots"], want["gaps"], want["residuals"], want["residuals"])
    if got != expected:
        return f"predict (samples, gaps, residuals, rows) = {got}, expected {expected}"
    return None


def _mdp(op, meta, rows, facts, config_path):
    capacity = op.facts["capacity"]
    if meta.get("capacity") != capacity or len(rows) != capacity + 1:
        return f"mdp report has capacity {meta.get('capacity')} and {len(rows)} rows"
    j_star = meta["j_star"]
    facts.update(j_star=j_star, iterations=meta["iterations"], solved_rows=len(rows),
                 structure_violations=len(meta["structure"]["violations"]))
    if capacity == 100 and _rel(j_star, op.facts["j_ref"]) > REFERENCE_REL:
        return f"J*={j_star} is not within 1% of the reference {op.facts['j_ref']}"
    if op.facts["algorithm"] == "pi":
        with open(config_path) as fh:
            spec = mdp.MdpSpec.from_config(json.load(fh))
        policy = mdp.Policy(np.array([r["price"] for r in rows]))
        revenue = mdp.average_revenue(spec, policy)
        if _rel(j_star, revenue) > AVERAGE_REVENUE_REL:
            return f"PI J*={j_star} but the policy's average revenue is {revenue}"
    return None


def _simulate(op, meta, rows, facts):
    facts.update(transitions=meta.get("transitions", 0), solved_rows=len(rows))
    if meta.get("passed") is not True:
        return (f"simulation cross-check failed: revenue_z={meta.get('revenue_z')}, "
                f"tv_distance={meta.get('tv_distance')}")
    return None


def check_op(op, report: dict):
    """Return (error or None, facts) for one call's parsed report."""
    meta, rows = report["meta"], report["rows"]
    facts = {"solved_rows": 0}
    command = meta.get("command")
    if command in PRICED:
        err = _priced(op, meta, rows, facts)
    elif command == "calibrate":
        err = _calibrate(op, meta, rows, facts)
    elif command == "predict":
        err = _predict(op, meta, rows, facts)
    elif command == "mdp":
        err = _mdp(op, meta, rows, facts, op.argv[op.argv.index("--config") + 1])
    elif command == "simulate":
        err = _simulate(op, meta, rows, facts)
    else:
        err = f"unexpected report command {command!r}"
    return err, facts


def cross_check(results) -> dict:
    """Per-pass checks that need two answers: PI and RVI J* must agree.

    Returns {index into results: error}; a disagreement is charged to the RVI call.
    """
    pi = {r.op.facts["model"]: r.facts["j_star"] for r in results
          if r.ok and r.op.cls == "pi_k100"}
    errors = {}
    for i, r in enumerate(results):
        if r.ok and r.op.cls == "rvi_k100":
            model = r.op.facts["model"]
            if model in pi and _rel(r.facts["j_star"], pi[model]) > PI_RVI_REL:
                errors[i] = f"RVI J*={r.facts['j_star']} disagrees with PI J*={pi[model]}"
    return errors
