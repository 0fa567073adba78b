"""Seeded input generation for the benchmark workloads.

Every file the program reads during a run is written here, into a
temporary directory, from the workload seed alone: the same seed gives
byte-identical inputs.  The program sees only the generated paths.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Bundled IXPs of the paper's typical-setting tables (calibration.IXP_STATS).
IXPS = ["linx", "mskix", "nix", "nyiix", "espanix", "hkix"]
KINDS = ["iso", "linear"]
SWEEP_PARAMS = ["r_ratio", "m_ratio", "gamma", "beta"]

# Acceptance-table rate models: arrival 24 - 1.5 p^2, p_max 4, 1000 prices.
ARRIVAL = [24.0, 0.0, -1.5]
P_MAX = 4.0
PRICE_POINTS = 1000
REFERENCE_MODELS = [
    # (name, departure coefficients, J* at K=100)
    ("0.3p", [0.0, 0.3], 388.7904),
    ("0.3p^2", [0.0, 0.0, 0.3], 360.8636),
    ("0.3p^3", [0.0, 0.0, 0.0, 0.3], 304.0449),
    ("1.5p^2", [0.0, 0.0, 1.5], 272.7983),
    ("3p^2", [0.0, 0.0, 3.0], 219.8632),
]

TRACE_STEP = 300.0  # 5-minute samples
SLOTS_PER_WEEK = 7 * 24 * 12

# Problem sizes.  "full" is what the benchmark measures; "tiny" keeps
# every code path and metric but finishes in seconds, for smoke tests.
SIZES = {
    "full": {
        "ixps": IXPS,
        "trace_weeks": 12,
        "models": REFERENCE_MODELS,
        "large_k": {"k1000": 1000, "k3000": 3000},
        "sim_horizon": 5e5,
    },
    "tiny": {
        "ixps": ["linx"],
        "trace_weeks": 3,
        "models": REFERENCE_MODELS[:1],
        "large_k": {"k1000": 150, "k3000": 250},
        "sim_horizon": 2e4,
    },
}


@dataclass
class Op:
    """One closed-loop call of ``spottransit.cli.main``."""

    name: str          # human label, unique within a pass
    cls: str           # latency class, e.g. "static", "pi_k1000"
    argv: list
    facts: dict = field(default_factory=dict)  # what the checks know about the answer


@dataclass
class Inputs:
    ops: list
    warmup: list
    facts: dict  # workload-wide ground truth (trace shape, golden rows, ...)


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def synthetic_trace(seed: int, weeks: int, path: Path) -> dict:
    """Write 5-minute traffic with a daily and weekly cycle and ~1% missing slots.

    Returns the ground truth the ``predict`` check compares against.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC5]))
    n = weeks * SLOTS_PER_WEEK
    t = np.arange(n)
    level = rng.uniform(400.0, 1200.0)
    day = 2.0 * np.pi * t / (24 * 12)
    week = 2.0 * np.pi * t / SLOTS_PER_WEEK
    shape = 1.0 + 0.3 * np.sin(day - rng.uniform(0.0, 2.0 * np.pi)) - 0.1 * np.cos(week)
    noise = np.empty(n)
    noise[0] = 0.0
    shocks = rng.normal(0.0, 0.02 * level, n)
    for i in range(1, n):  # AR(1) so week-ahead residuals look like the IXP ones
        noise[i] = 0.8 * noise[i - 1] + shocks[i]
    gbps = np.maximum(level * shape + noise, 0.0)

    # drop ~1% of interior slots; the program restores them by interpolation
    missing = np.sort(rng.choice(np.arange(1, n - 1), size=n // 100, replace=False))
    keep = np.ones(n, dtype=bool)
    keep[missing] = False
    start = 1_300_000_000.0
    with open(path, "w") as fh:
        fh.write("timestamp,gbps\n")
        for i in np.nonzero(keep)[0]:
            fh.write(f"{start + i * TRACE_STEP:.0f},{gbps[i]:.4f}\n")
    return {"slots": n, "gaps": len(missing), "residuals": n - SLOTS_PER_WEEK}


def _scenario_sweep(seed: int, size: dict, work: Path, golden: dict) -> Inputs:
    ops = []
    for ixp in size["ixps"]:
        for kind in KINDS:
            scn = _write_json(work / f"{ixp}_{kind}.json", {"ixp": ixp, "kind": kind})
            commands = [["calibrate"], ["static"], ["worst-case"]]
            commands += [["sweep", "--param", p] for p in SWEEP_PARAMS]
            for cmd in commands:
                label = "-".join([ixp, kind] + cmd[::2])
                ops.append(Op(label, cmd[0], ["--scenario", scn] + cmd))
    warmup = [Op("warmup-" + op.name, op.cls, op.argv) for op in ops[:7]]

    golden_scn = _write_json(work / "golden.json", golden["scenario"])
    ops.append(Op("golden-static", "static", ["--scenario", golden_scn, "static"],
                  {"golden_rows": golden["rows"]}))

    csv = work / "trace.csv"
    truth = synthetic_trace(seed, size["trace_weeks"], csv)
    trace_scn = _write_json(work / "trace_scenario.json",
                            {"region": "london", "trace": str(csv), "kind": "iso",
                             "label": "SYNTH"})
    ops.append(Op("trace-predict", "predict", ["predict", "--trace", str(csv)], dict(truth)))
    ops.append(Op("trace-static", "static", ["--scenario", trace_scn, "static"]))
    ops.append(Op("trace-sweep-m_ratio", "sweep",
                  ["--scenario", trace_scn, "sweep", "--param", "m_ratio"]))
    warmup.append(Op("warmup-trace-predict", "predict", ["predict", "--trace", str(csv)]))
    return Inputs(ops, warmup, truth)


def _mdp_config(work: Path, name: str, departure, capacity: int) -> str:
    cfg = {"capacity": capacity, "arrival": ARRIVAL, "departure": departure,
           "p_max": P_MAX, "price_points": PRICE_POINTS}
    return _write_json(work / f"mdp_{name.replace('^', '')}_k{capacity}.json", cfg)


def _mdp_solve(seed: int, size: dict, work: Path) -> Inputs:
    ops = []
    for name, departure, j_ref in size["models"]:
        base = {"model": name, "j_ref": j_ref}
        k100 = _mdp_config(work, name, departure, 100)
        ops.append(Op(f"{name}-pi-k100", "pi_k100", ["mdp", "--config", k100],
                      dict(base, capacity=100, algorithm="pi")))
        ops.append(Op(f"{name}-rvi-k100", "rvi_k100",
                      ["mdp", "--config", k100, "--algorithm", "rvi"],
                      dict(base, capacity=100, algorithm="rvi")))
        big = size["large_k"]["k1000"]
        cfg = _mdp_config(work, name, departure, big)
        ops.append(Op(f"{name}-pi-k{big}", "pi_k1000", ["mdp", "--config", cfg],
                      dict(base, capacity=big, algorithm="pi")))
    name, departure, j_ref = size["models"][0]
    huge = size["large_k"]["k3000"]
    cfg = _mdp_config(work, name, departure, huge)
    ops.append(Op(f"{name}-pi-k{huge}", "pi_k3000", ["mdp", "--config", cfg],
                  {"model": name, "j_ref": j_ref, "capacity": huge, "algorithm": "pi"}))
    warmup = [Op("warmup-" + op.name, op.cls, op.argv) for op in ops[:3]]
    # The models are the fixed reference table; the seed only sets the call order.
    random.Random(seed).shuffle(ops)
    return Inputs(ops, warmup, {})


def _simulate_long(seed: int, size: dict, work: Path) -> Inputs:
    name, departure, _ = REFERENCE_MODELS[0]
    cfg = _mdp_config(work, name, departure, 100)
    sim_seed = str(seed)  # every call of a run replays one seeded replication
    horizon = repr(size["sim_horizon"])
    op = Op(f"simulate-h{horizon}", "simulate",
            ["simulate", "--config", cfg, "--horizon", horizon, "--seed", sim_seed])
    warm = Op("warmup-simulate", "simulate",
              ["simulate", "--config", cfg, "--horizon", "1e4", "--seed", sim_seed])
    return Inputs([op], [warm], {})


def generate(workload: str, seed: int, size_name: str, work: Path, golden: dict) -> Inputs:
    size = SIZES[size_name]
    if workload == "scenario-sweep":
        return _scenario_sweep(seed, size, work, golden)
    if workload == "mdp-solve":
        return _mdp_solve(seed, size, work)
    if workload == "simulate-long":
        return _simulate_long(seed, size, work)
    raise ValueError(f"unknown workload {workload!r}")
