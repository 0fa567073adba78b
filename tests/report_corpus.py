"""The report-digest corpus: one SHA-256 per CLI report, so a change that
alters any byte of a report shows up.

`REPORTS` lists each report as its name and the `cli.main` arguments that
make it; each is exported once as JSON and once as CSV.  Besides the files,
each report's warnings (category and text, in the order the two runs issue
them) get a digest of their own, so a warning that changes, moves or goes
missing shows up too.  `digests` writes
the inputs the reports read into a fresh temporary directory, runs every
report in-process from that directory with relative paths only (so no
directory name enters a report), and hashes the files.  The manifest
records the Python version, numpy version and machine the digests were
made with, since the last bits of a float can change with either.

Regenerate the manifest after a change that alters reports on purpose:

    PYTHONPATH=src python tests/report_corpus.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from spottransit import cli

MANIFEST = Path(__file__).parent / "data" / "report_digests.json"

IXPS = ["linx", "mskix", "nix", "nyiix", "espanix", "hkix"]
SCENARIO_COMMANDS = [["calibrate"], ["static"], ["worst-case"]] + [
    ["sweep", "--param", p] for p in ("r_ratio", "m_ratio", "gamma", "beta")]
# the five reference rate models: arrival 24 - 1.5 p^2, p_max 4, 1000 prices, K = 100
MODELS = {"0.3p": [0, 0.3], "0.3p2": [0, 0, 0.3], "0.3p3": [0, 0, 0, 0.3],
          "1.5p2": [0, 0, 1.5], "3p2": [0, 0, 3.0]}

# scenarios whose sweeps hold error rows or issue calibration warnings
EDGE_SCENARIOS = {
    "linx_iso_alpha1.5.json": {"ixp": "linx", "alpha_bar": 1.5},
    "nix_iso_theta400.json": {"ixp": "nix", "theta": 400},
    "explicit_huge_d_bar.json": {"p_bar": 1.0, "d_bar": 1.7e308, "m_ratio": 0.01},
}
# (name, scenario file, sweep parameter, --values)
EDGE_SWEEPS = [
    # gamma <= 1 is refused by the input, 1e300 misses the linear anchor
    ("linx-linear-gamma-edges", "linx_linear.json", "gamma", "0.5,1.05,1e300,2"),
    # alpha = 1.5 gamma <= 2: the surplus diverges, with a warning per point
    ("linx-iso-alpha1.5-gamma", "linx_iso_alpha1.5.json", "gamma", "1.1,1.3,1.4,2"),
    # penalty warnings, and one point whose welfare check fails
    ("hkix-linear-m_ratio-edges", "hkix_linear.json", "m_ratio", "0.01,0.3,1,1e300"),
    ("nix-iso-theta400-beta", "nix_iso_theta400.json", "beta", "0.05,0.2,0.5,0.95"),
    ("explicit-huge-d_bar-beta", "explicit_huge_d_bar.json", "beta", "0.2,0.5"),
]

# (name, argv); a report that reads another report comes after it
REPORTS = (
    [(f"{ixp}-{kind}-{'-'.join(cmd[::2])}", ["--scenario", f"{ixp}_{kind}.json", *cmd])
     for ixp in IXPS for kind in ("iso", "linear") for cmd in SCENARIO_COMMANDS]
    + [(f"mdp-{model}-{alg}", ["mdp", "--config", f"mdp_{model}.json", "--algorithm", alg])
       for model in MODELS for alg in ("pi", "rvi")]
    + [(f"simulate-0.3p-seed{seed}", ["simulate", "--config", "mdp_0.3p.json", "--seed", str(seed)])
       for seed in (1, 2)]
    + [("predict", ["predict", "--trace", "trace.csv"]),
       ("trace-static", ["--scenario", "trace_scenario.json", "static"]),
       ("report-linx-iso-static", ["report", "--in", "linx-iso-static.json"])]
    + [(name, ["--scenario", scenario, "sweep", "--param", param, "--values", values])
       for name, scenario, param, values in EDGE_SWEEPS]
)


def environment() -> dict:
    """What the last bits of a report can depend on besides the code."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def _write_trace(path: str, weeks: int = 3, seed: int = 7) -> None:
    """Seeded 5-minute traffic with a daily and weekly cycle and 1% of the slots missing."""
    rng = np.random.default_rng(seed)
    n = weeks * 7 * 24 * 12
    t = np.arange(n)
    gbps = 800.0 * (1.0 + 0.3 * np.sin(2 * np.pi * t / 288) - 0.1 * np.cos(2 * np.pi * t / 2016))
    gbps += rng.normal(0.0, 16.0, n)
    keep = np.ones(n, dtype=bool)
    keep[rng.choice(np.arange(1, n - 1), size=n // 100, replace=False)] = False
    with open(path, "w") as fh:
        fh.write("timestamp,gbps\n")
        fh.writelines(f"{1_300_000_000 + 300 * i},{gbps[i]:.4f}\n" for i in np.flatnonzero(keep))


def _write_inputs() -> None:
    """Every file the reports read, into the working directory."""
    files = {f"{ixp}_{kind}.json": {"ixp": ixp, "kind": kind}
             for ixp in IXPS for kind in ("iso", "linear")}
    files.update({f"mdp_{model}.json": {"capacity": 100, "arrival": [24, 0, -1.5],
                                        "departure": dep, "p_max": 4, "price_points": 1000}
                  for model, dep in MODELS.items()})
    files["trace_scenario.json"] = {"region": "london", "trace": "trace.csv", "kind": "iso",
                                    "label": "SYNTH"}
    files.update(EDGE_SCENARIOS)
    for name, obj in files.items():
        Path(name).write_text(json.dumps(obj))
    _write_trace("trace.csv")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests() -> dict:
    """File name -> SHA-256 of every report, each made by `cli.main` in a fresh directory,
    and NAME.warnings -> SHA-256 of the warnings its two runs issue, one line each."""
    home, out = os.getcwd(), {}
    # each run prints the file it wrote
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        os.chdir(work)
        try:
            _write_inputs()
            for name, argv in REPORTS:
                issued = []
                for fmt in ("json", "csv"):
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        if cli.main(["--out", name, "--format", fmt, *argv]) != 0:
                            raise RuntimeError(f"report {name}.{fmt} failed")
                    issued += [f"{w.category.__name__}: {w.message}\n" for w in caught]
                    out[f"{name}.{fmt}"] = _sha256(Path(f"{name}.{fmt}").read_bytes())
                out[f"{name}.warnings"] = _sha256("".join(issued).encode())
        finally:
            os.chdir(home)
    return out


def main(argv) -> int:
    if argv != ["--write"]:
        print("usage: report_corpus.py --write", file=sys.stderr)
        return 2
    MANIFEST.write_text(json.dumps({**environment(), "digests": digests()}, indent=1) + "\n")
    print(f"wrote {MANIFEST} ({3 * len(REPORTS)} digests)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
