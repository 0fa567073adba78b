"""Span tracing installed from outside the program.

Wraps public functions and class methods of ``spottransit`` with
timing/counting wrappers, replacing each name everywhere it is looked
up (``cli`` imports ``simulate_policy`` by name, ``simulate`` imports
``steady_state``, ...).  Spans (name, start, end, parent) are kept in
flat in-memory columns and written out once at the end.  Nothing
inside ``src/`` is modified; ``uninstall`` restores every name.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

ROOT = "cli.main"

# metric name -> "module:attribute path" of every function it covers
TARGETS = {
    "cli.load_scenario": ["spottransit.cli:load_scenario"],
    "cli.export_report": ["spottransit.cli:export_report"],
    "calibration.calibrate": ["spottransit.calibration:calibrate"],
    "pricing.optimize_price": ["spottransit.pricing:optimize_price"],
    "pricing.profit_derivative": ["spottransit.pricing:profit_derivative"],
    "pricing.expected_profit": ["spottransit.pricing:expected_profit"],
    "uncertainty.tail_probability": ["spottransit.uncertainty:UncertaintyModel.tail_probability"],
    "uncertainty.partial_overshoot": ["spottransit.uncertainty:UncertaintyModel.partial_overshoot"],
    "demand.demand": ["spottransit.demand:IsoElasticDemand.demand",
                      "spottransit.demand:LinearDemand.demand"],
    "demand.slope": ["spottransit.demand:IsoElasticDemand.slope",
                     "spottransit.demand:LinearDemand.slope"],
    "welfare.welfare_report": ["spottransit.welfare:welfare_report"],
    "traffic.load_series": ["spottransit.traffic:load_series"],
    "traffic.prediction_errors": ["spottransit.traffic:prediction_errors"],
    "traffic.percentile_95": ["spottransit.traffic:percentile_95"],
    "mdp.spec_build": ["spottransit.mdp:MdpSpec.from_config"],
    "mdp.policy_iteration": ["spottransit.mdp:policy_iteration"],
    "mdp.relative_value_iteration": ["spottransit.mdp:relative_value_iteration"],
    "mdp.verify_structure": ["spottransit.mdp:verify_structure"],
    "mdp.steady_state": ["spottransit.mdp:steady_state"],
    "mdp.policy_rates": ["spottransit.mdp:policy_rates"],
    "simulate.simulate_policy": ["spottransit.simulate:simulate_policy"],
    "simulate.compare_to_analytic": ["spottransit.simulate:compare_to_analytic"],
}


class Tracer:
    def __init__(self):
        self.names = [ROOT] + list(TARGETS)
        self.enabled = False
        self.absent = []
        self._undo = []
        self._stack = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")

    def mark(self) -> int:
        """Number of spans recorded so far; spans [a, b) of two marks belong to one call."""
        return len(self._name)

    # -- recording ---------------------------------------------------------
    def _wrap(self, nid: int, fn):
        names, parents, starts, ends, stack = (
            self._name, self._parent, self._start, self._end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return traced

    def root(self, fn, *args):
        """Call fn(*args) under a root span (one benchmark operation)."""
        return self._wrap(0, fn)(*args)

    # -- installation ------------------------------------------------------
    def install(self):
        self.absent = []
        for nid, metric in enumerate(TARGETS, start=1):
            found = [self._patch(nid, target) for target in TARGETS[metric]]
            if not any(found):
                self.absent.append(metric)

    def _patch(self, nid: int, target: str) -> bool:
        module_name, path = target.split(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            return False
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            if raw is None:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(nid, raw.__func__))
            else:
                new = self._wrap(nid, raw)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
            return True
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        new = self._wrap(nid, fn)
        # rebind every module-level name that refers to the function
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("spottransit"):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, new)
                    self._undo.append((module, key, fn))
        return True

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------
    def columns(self):
        return (np.array(self._name, dtype=np.int32), np.array(self._parent, dtype=np.int32),
                np.array(self._start, dtype=np.float64), np.array(self._end, dtype=np.float64))

    def totals(self, ranges) -> dict:
        """Per metric name: calls, inclusive seconds and self seconds over span ranges.

        Self time is a span's duration minus the time its child spans cover.
        """
        name, parent, start, end = self.columns()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        keep = np.zeros(len(dur), dtype=bool)
        for lo, hi in ranges:
            keep[lo:hi] = True
        k = len(self.names)
        calls = np.bincount(name[keep], minlength=k)
        total = np.bincount(name[keep], weights=dur[keep], minlength=k)
        own = np.bincount(name[keep], weights=self_time[keep], minlength=k)
        return {n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
                for i, n in enumerate(self.names)}

    def dump(self, path):
        name, parent, start, end = self.columns()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=end)
