"""Measurement loop, metrics and reporting of the cred benchmark (see run.py)."""

from __future__ import annotations

import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from importlib import import_module
from pathlib import Path

import cred
import cred.grid
import cred.scenario
import cred.systems
import cred.workflow
import numpy as np
import scipy

import gate
import tracing
import workloads
from speed import Speed

# the package rebinds the name ``cred.simulate`` to the function
SIMULATE = import_module("cred.simulate")

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: seed whose results are stored in reference.json
DEFAULT_SEED = 0

#: seed kept out of every tuning run, for confirming a claimed gain
HELD_OUT_SEED = 20261017

#: set-up is repeated this many times per run, spread over the run, and
#: the median reported
SETUP_REPEATS = 7

#: run in a fresh interpreter to time the program's import
IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import cred.grid, cred.scenario, cred.simulate, cred.systems, cred.workflow; "
    "print(time.perf_counter() - start)"
)

#: candidate percentiles for the tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: samples that must lie beyond the tail percentile
TAIL_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND of n samples beyond it.

    The samples beyond percentile p are the n - ceil(n p / 100) largest.
    With fewer than 2 * TAIL_BEYOND samples no ladder entry qualifies and
    the tail is the maximum (percentile 100).
    """
    for p in TAIL_LADDER:
        rank = -(-round(n * p * 1000) // 100000)  # ceil(n p / 100), exact in integers
        if n - rank >= TAIL_BEYOND:
            return p
    return 100.0


def percentile_value(values, p: float) -> float:
    """Nearest-rank percentile: the ceil(n p / 100)-th smallest value."""
    ordered = sorted(values)
    rank = max(1, -(-round(len(ordered) * p * 1000) // 100000))
    return ordered[rank - 1]


def _stage(exc: BaseException) -> str:
    match = re.match(r"\[([\w-]+)\]", str(exc))
    return match.group(1) if match else "unstaged"


def _blas_threads():
    """Thread count of the BLAS numpy uses, or None when it cannot be asked."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def declared_metrics(kind: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares ("end_to_end" or "per_layer")."""
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


class Bench:
    """One workload's pool, its operations and its gate."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.items = workloads.generate(workload, seed)
        self.sample_paths = workloads.write_samples(self.items, workdir)
        self.bundles = [cred.scenario.scenario_from_dict(item.doc) for item in self.items]
        self.step = workload == "step_response"
        self.loops = [self._closed_loop(j) for j in range(len(self.items))] if self.step else None

    def _closed_loop(self, j: int):
        item = self.items[j]
        ss = workloads.closed_loop(self.bundles[j].model, item.attack_gain, item.droop_gain)
        lam_max = float(np.abs(np.linalg.eigvals(ss.state_matrix)).max())
        return ss, min(0.02, 1.0 / (12.0 * lam_max))

    def warm_up(self) -> None:
        """One operation on the shipped desk scenario, the same for every seed."""
        doc = cred.systems.three_area_system()
        if self.step:
            bundle = cred.scenario.scenario_from_dict(doc)
            n = bundle.model.areas
            ss = cred.grid.build_state_space(bundle.model, cred.grid.AttackProfile.none(n),
                                             cred.grid.DroopSchedule.none(n))
            SIMULATE.classify_trajectory(SIMULATE.simulate(ss, np.full(n, 0.01), t_end=60.0))
        else:
            cfg = cred.workflow.WorkflowConfig(mode="worst_case")
            cred.workflow.run_workflow(cfg, bundle=cred.scenario.scenario_from_dict(doc))

    def operation(self, j: int):
        """Run operation j; returns its result.  Names resolve at call time."""
        item = self.items[j]
        if self.step:
            ss, dt = self.loops[j]
            traj = SIMULATE.simulate(ss, item.step, t_step=1.0, t_end=60.0, dt=dt)
            return SIMULATE.classify_trajectory(traj)
        path = self.sample_paths[j]
        cfg = cred.workflow.WorkflowConfig(
            samples_path=None if path is None else str(path),
            detection_score=item.detection_score,
            detection_threshold=workloads.DETECTION_THRESHOLD,
            eta=workloads.ETA,
            mode=item.mode,
        )
        return cred.workflow.run_workflow(cfg, bundle=cred.scenario.scenario_from_dict(item.doc))

    def check(self, j: int, result, reference: dict | None) -> list:
        if self.step:
            return gate.check_step(self.loops[j][0], result, reference)
        return gate.check_workflow(self.items[j], self.bundles[j], result, reference)

    def record(self, result) -> dict:
        if self.step:
            return {"label": result}
        return {"branch": result.branch_taken, "final_cost": result.final_cost}


def _load_reference(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


class Outcomes:
    """Op timings and verdicts of one mode (bare or traced)."""

    def __init__(self, k: int):
        self.intervals = [[] for _ in range(k)]  # (start, end) of each run of op j
        self.attempted = 0
        self.passed = 0
        self.wrong = 0  # results the gate rejected
        self.failures = Counter()

    def add(self, j: int, start: float, end: float, error: BaseException | None,
            failed_checks: list):
        self.intervals[j].append((start, end))
        self.attempted += 1
        if error is not None:
            self.failures[f"{_stage(error)}:{type(error).__name__}"] += 1
        elif failed_checks:
            self.wrong += 1
            for name in failed_checks:
                self.failures[f"gate:{name}"] += 1
        else:
            self.passed += 1

    def times(self, speed: Speed | None = None) -> list:
        """Per op, its wall times, or its reference times when given the speed."""
        return [[(end - start) * (1.0 if speed is None else speed.scale(start, end))
                 for start, end in runs] for runs in self.intervals]

    def ops_per_s(self, speed: Speed | None = None) -> float:
        """Passed operations per second over one pass of the ops that ran.

        The pass share times the op count over the sum of the per-op median
        times, so that a last pass cut off by the clock does not tilt the mix.
        """
        per_op = [statistics.median(t) for t in self.times(speed) if t]
        return self.passed / self.attempted * len(per_op) / sum(per_op)


def run_one(bench: Bench, j: int, reference: dict, outcomes: Outcomes, tracer=None):
    """Time operation j (optionally traced), gate it, record the outcome."""
    error, result = None, None
    with tracer.operation(j) if tracer is not None else nullcontext():
        start = time.perf_counter()
        try:
            result = bench.operation(j)
        except Exception as exc:  # a failed operation is a measurement, not a crash
            error = exc
        end = time.perf_counter()
    checks = [] if error is not None else bench.check(j, result, reference.get(str(j)))
    outcomes.add(j, start, end, error, checks)
    return result, error, checks


def import_seconds() -> float:
    """Time to import the program in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


class Setup:
    """Repeated set-ups of one workload: import, inputs, parsing, warm-up."""

    def __init__(self, workload: str, seed: int, workdir: Path, speed: Speed):
        self.workload, self.seed, self.workdir, self.speed = workload, seed, workdir, speed
        self.timings = []  # (start, end, wall seconds) of each set-up

    def once(self) -> Bench:
        """Import in a fresh interpreter, then generate, write and parse the inputs and warm up."""
        self.speed.sample()
        start = time.perf_counter()
        import_s = import_seconds()
        inner = time.perf_counter()
        sub = self.workdir / f"setup{len(self.timings)}"
        sub.mkdir()
        bench = Bench(self.workload, self.seed, sub)
        bench.warm_up()
        end = time.perf_counter()
        self.timings.append((start, end, import_s + end - inner))
        self.speed.sample()
        return bench

    def seconds(self, scaled: bool = True) -> float:
        """Median set-up time, in reference seconds unless scaled is false."""
        return statistics.median(
            wall * (self.speed.scale(start, end) if scaled else 1.0)
            for start, end, wall in self.timings)


def measure(bench: Bench, seconds: float, reference: dict, speed: Speed, tracer=None,
            setups=None) -> tuple:
    """Passes over the pool until `seconds` of wall time have gone by.

    A bare run also completes its first pass, so every operation of the
    pool has a sample; a traced run only averages over the ops it ran.
    When given `setups`, the set-ups still missing are run at even
    intervals of the run, so that they see the same machine as the ops.
    """
    k = len(bench.items)
    bare, traced = Outcomes(k), Outcomes(k)
    due = [] if setups is None else [
        seconds * r / SETUP_REPEATS for r in range(len(setups.timings), SETUP_REPEATS)]
    start = time.perf_counter()
    i = 0
    while (i < k and tracer is None) or time.perf_counter() - start < seconds:
        speed.tick()
        if due and time.perf_counter() - start >= due[0]:
            due.pop(0)
            setups.once()
        j = i % k
        if tracer is None:
            run_one(bench, j, reference, bare)
        else:
            # bare and traced back to back, alternating which goes first
            order = (None, tracer) if (i // k + j) % 2 == 0 else (tracer, None)
            for tr in order:
                run_one(bench, j, reference, traced if tr is not None else bare, tr)
        i += 1
    for _ in due:
        setups.once()
    speed.sample()
    return bare, traced


def _timings(bare: Outcomes, setups: Setup, speed: Speed | None) -> dict:
    per_op = [statistics.median(t) for t in bare.times(speed)]
    return {
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": percentile_value(per_op, tail_percentile(len(per_op))),
        "ops_per_s": bare.ops_per_s(speed),
        "setup_s": setups.seconds(scaled=speed is not None),
    }


def end_to_end(bare: Outcomes, setups: Setup) -> tuple:
    """The end-to-end metrics, in reference seconds; the wall-clock ones go in the info."""
    metrics = _timings(bare, setups, setups.speed)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(bare.intervals)
    info = {"tail_percentile": tail_percentile(n), "tail_samples": n,
            "failed_frac": 1.0 - bare.passed / bare.attempted,
            "wall_clock": _timings(bare, setups, None),
            "kernel_s": statistics.median(k for _, k in setups.speed.samples)}
    return metrics, info


def record_reference(bench: Bench, workload: str) -> None:
    """Store branch and cost (or label) of every op that passed the gate."""
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    entries = {}
    for j in range(len(bench.items)):
        result, error, checks = run_one(bench, j, {}, Outcomes(len(bench.items)))
        if error is None and not checks:
            entries[str(j)] = bench.record(result)
    stored[workload] = entries
    REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entries)} of {len(bench.items)} {workload} operations")


def run(args) -> int:
    """Set up, measure and report one run; returns the exit code."""
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        speed = Speed()
        setups = Setup(args.workload, args.seed, Path(tmp), speed)
        bench = setups.once()
        if args.record_reference:
            if args.seed != DEFAULT_SEED:
                print(f"error: references are stored for seed {DEFAULT_SEED} only", file=sys.stderr)
                return 2
            record_reference(bench, args.workload)
            return 0
        reference = _load_reference(args.workload, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        bare, traced = measure(bench, args.seconds, reference, speed, tracer,
                               setups if tracer is None else None)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": args.seed == HELD_OUT_SEED,
        "reference_checked": bool(reference),
        "distribution": workloads.DISTRIBUTIONS[args.workload],
        "pool": len(bench.items),
        "environment": environment(),
    }
    if tracer is None:
        metrics, extra = end_to_end(bare, setups)
        info.update(extra)
        outcomes = [bare]
    else:
        layer = tracer.per_op_metrics()
        layer["trace.untraced_ops_per_s"] = bare.ops_per_s()
        layer["trace.traced_ops_per_s"] = traced.ops_per_s()
        layer["trace.overhead_ops_per_s"] = bare.ops_per_s() - traced.ops_per_s()
        metrics = layer
        trace_path = ROOT / ".bench_out" / f"trace_{args.workload}_{args.seed}.json"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        outcomes = [bare, traced]

    attempted = sum(o.attempted for o in outcomes)
    passed = sum(o.passed for o in outcomes)
    wrong = sum(o.wrong for o in outcomes)
    failures = Counter()
    for o in outcomes:
        failures.update(o.failures)
    info["failures"] = dict(sorted(failures.items()))
    info["gate"] = "pass" if not wrong else f"{wrong} wrong results"

    units = declared_metrics("end_to_end" if tracer is None else "per_layer")
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:40s} {value:14.6g} {units[name]}")
    print(f"{args.workload:16s} {'failed_frac':40s} {1.0 - passed / attempted:14.6g} fraction")
    print(f"{args.workload:16s} gate: {info['gate']}; failures: {info['failures']}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0
