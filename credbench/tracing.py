"""Spans and counts recorded from outside the program.

The tracer wraps public functions of the ``cred`` modules at every name a
``cred`` module binds them under (``from .milp import solve_milp`` in
``cred.dispatch`` is a separate binding from ``cred.milp.solve_milp``), so
no program file is edited.  Wrappers are installed for one operation at a
time and removed afterwards.  Spans (name, start, end, parent, operation)
and counts stay in memory until the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _milp_size(counts, result, exc, args, kwargs):
    if exc is None:
        lp = result.program.base
        counts["dispatch.milp_rows"] += lp.n_rows
        counts["dispatch.milp_cols"] += lp.n_vars
        counts["dispatch.milp_binaries"] += len(result.program.binary_vars)


def _lp_result(counts, result, exc, args, kwargs):
    if exc is None:
        counts["milp.simplex_iterations"] += result.iterations
        counts["milp.lp_infeasible"] += result.status == "infeasible"


def _bb_nodes(counts, result, exc, args, kwargs):
    if exc is None:
        counts["milp.bb_nodes"] += result.node_count or 0


def _shed_fallback(counts, result, exc, args, kwargs):
    allow_shed = kwargs.get("allow_shed", args[2] if len(args) > 2 else False)
    if exc is not None and type(exc).__name__ == "InfeasibleError" and not allow_shed:
        counts["dispatch.shed_fallbacks"] += 1


def _pairs(counts, result, exc, args, kwargs):
    if exc is None:
        counts["linearize.pairs_kept"] += len(result)


def _table(counts, result, exc, args, kwargs):
    if exc is None:
        counts["linearize.grid_points"] += len(result.grid_abscissas)
        counts["linearize.anchors"] += len(result.points)


def _steps(counts, result, exc, args, kwargs):
    if exc is None:
        counts["simulate.steps"] += len(result.times) - 1


def _branch(counts, result, exc, args, kwargs):
    if exc is None:
        counts[f"workflow.branch.{result.branch_taken}"] += 1


@dataclass(frozen=True)
class Probe:
    """One traced function: span name, defining module, attribute, counter."""

    name: str
    module: str
    attr: str
    on_exit: Callable | None = None


PROBES = (
    Probe("workflow.run_workflow", "cred.workflow", "run_workflow", _branch),
    Probe("scenario.scenario_from_dict", "cred.scenario", "scenario_from_dict"),
    Probe("scenario.load_samples", "cred.scenario", "load_samples"),
    Probe("uncertainty", "cred.uncertainty", "worst_case_gain"),
    Probe("uncertainty", "cred.uncertainty", "moments_from_samples"),
    Probe("uncertainty", "cred.uncertainty", "robust_gain"),
    Probe("uncertainty", "cred.uncertainty", "apply_budget_clamp"),
    Probe("dispatch.solve_cred", "cred.dispatch", "solve_cred", _shed_fallback),
    Probe("dispatch.build_cred_milp", "cred.dispatch", "build_cred_milp", _milp_size),
    Probe("dispatch.stability_precheck", "cred.dispatch", "stability_precheck"),
    Probe("dispatch.validate_solution", "cred.dispatch", "validate_solution"),
    Probe("milp.solve_milp", "cred.milp", "solve_milp", _bb_nodes),
    Probe("milp.solve_lp", "cred.milp", "solve_lp", _lp_result),
    Probe("linearize.select_critical_pairs", "cred.linearize", "select_critical_pairs", _pairs),
    Probe("linearize.build_segment_table", "cred.linearize", "build_segment_table", _table),
    Probe("grid.build_state_space", "cred.grid", "build_state_space"),
    Probe("stability.eigen_decompose", "cred.stability", "eigen_decompose"),
    Probe("linalg.eigvals", "numpy.linalg", "eigvals"),
    Probe("simulate.simulate", "cred.simulate", "simulate", _steps),
    Probe("simulate.classify_trajectory", "cred.simulate", "classify_trajectory"),
)

#: span names whose self time (span minus child spans) is reported too
SELF_TIME = ("workflow.run_workflow", "milp.solve_milp", "linearize.build_segment_table")

#: span names whose call count is reported
CALL_COUNTS = (
    "milp.solve_lp", "dispatch.solve_cred", "dispatch.validate_solution",
    "linearize.build_segment_table", "grid.build_state_space",
    "stability.eigen_decompose", "linalg.eigvals",
)

#: counters kept by the probes, reported per operation
COUNTERS = (
    "milp.bb_nodes", "milp.simplex_iterations", "dispatch.milp_rows",
    "dispatch.milp_cols", "dispatch.milp_binaries", "dispatch.shed_fallbacks",
    "linearize.pairs_kept", "linearize.grid_points", "linearize.anchors", "simulate.steps",
)

BRANCHES = ("no_attack", "precheck_stable", "cred_applied", "cred_infeasible_shed")


def _binding_sites(original) -> list:
    """Every (module, attribute) of cred and numpy.linalg bound to original."""
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "cred" or mod_name.startswith("cred.")
                               or mod_name == "numpy.linalg"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, attr))
    return sites


class Tracer:
    """In-memory spans and counts; wrappers live only inside ``operation``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(float)  # counter name -> total over traced ops
        self.ops = 0
        self._stack = []
        self._op = None
        self._sites = []  # (module, attr, original, wrapper)
        for probe in PROBES:
            original = getattr(sys.modules[probe.module], probe.attr)
            wrapper = self._wrap(probe, original)
            for mod, attr in _binding_sites(original):
                self._sites.append((mod, attr, original, wrapper))

    def _wrap(self, probe: Probe, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [probe.name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if probe.on_exit is not None:
                    probe.on_exit(counts, None, exc, args, kwargs)
                raise
            span[2] = clock()
            stack.pop()
            if probe.on_exit is not None:
                probe.on_exit(counts, result, None, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def operation(self, op_id: int):
        """Trace the calls made inside the block as operation op_id."""
        self._op = op_id
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original, _ in self._sites:
                setattr(mod, attr, original)
            self._op = None
            self._stack.clear()
            self.ops += 1

    def per_op_metrics(self) -> dict:
        """Per-layer metrics averaged over the traced operations."""
        ops = max(self.ops, 1)
        spans = self.spans
        total = defaultdict(float)  # name -> inclusive time, outermost spans only
        calls = defaultdict(int)
        child_time = defaultdict(float)  # span index -> time in direct children
        for idx, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total[name] += end - start
        self_time = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(spans):
            if name in SELF_TIME:
                self_time[name] += end - start - child_time[idx]

        out = {f"{name}.s": total[name] / ops for name in dict.fromkeys(p.name for p in PROBES)}
        out.update({f"{name}.self_s": self_time[name] / ops for name in SELF_TIME})
        out.update({f"{name}.calls": calls[name] / ops for name in CALL_COUNTS})
        out.update({name: self.counts[name] / ops for name in COUNTERS})
        lp_calls = calls["milp.solve_lp"]
        out["milp.lp_infeasible_frac"] = self.counts["milp.lp_infeasible"] / lp_calls if lp_calls else 0.0
        out["dispatch.validation_retries"] = self._validation_retries() / ops
        out.update({f"workflow.branch.{b}": self.counts[f"workflow.branch.{b}"] / ops
                    for b in BRANCHES})
        out["trace.spans_per_op"] = len(spans) / ops
        return out

    def _validation_retries(self) -> int:
        """Validation calls after the first within one operation."""
        per_op = defaultdict(int)
        for name, _, _, _, op in self.spans:
            if name == "dispatch.validate_solution":
                per_op[op] += 1
        return sum(max(0, n - 1) for n in per_op.values())

    def write(self, path) -> None:
        """Write spans and counts as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts), "ops": self.ops}, fh)
