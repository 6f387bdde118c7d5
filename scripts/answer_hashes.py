#!/usr/bin/env python3
"""Print a fingerprint of every answer a benchmark workload's pool gets.

Runs each operation of one seeded ``credbench`` pool once, as the
benchmark runs it (``credbench/workloads.py``, read only), and prints one
line per op.  A workflow op prints

    <op>  <branch>  report=<sha256>  solution=<sha256>

the SHA-256 of ``report.to_dict()`` and of the solution dictionary written
to ``solution.json``, each serialized as the workflow writes its JSON
artifacts.  A ``step_response`` op simulates its closed loop with
``simulate(..., dt=None)`` and prints

    <op>  <label>  diverged=<bool>  samples=<len(times)>  states=<sha256>

the trajectory's class, its divergence flag, its sample count and the
SHA-256 of ``states.tobytes()``.  An op that raises prints

    <op>  error  <exception type>: <message>

Two checkouts give the same answers on a pool exactly when their outputs
are identical:

    python3 scripts/answer_hashes.py --workload desk_redispatch --seed 0 > after.txt
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "credbench")]

import workloads  # noqa: E402
from cred.scenario import scenario_from_dict  # noqa: E402
from cred.simulate import classify_trajectory, simulate  # noqa: E402
from cred.workflow import WorkflowConfig, _solution_dict, run_workflow  # noqa: E402

#: the workloads whose operations are run_workflow calls
WORKFLOW_LOADS = ("desk_redispatch", "ring_tables", "storage_horizon")


def digest(obj) -> str:
    """SHA-256 of obj serialized as the workflow's JSON artifacts are."""
    return hashlib.sha256((json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()).hexdigest()


def answer(item, samples_path) -> str:
    """The fingerprint of one operation's answer (module docstring)."""
    try:
        bundle = scenario_from_dict(item.doc)
        cfg = WorkflowConfig(
            samples_path=None if samples_path is None else str(samples_path),
            detection_score=item.detection_score,
            detection_threshold=workloads.DETECTION_THRESHOLD,
            eta=workloads.ETA,
            mode=item.mode,
        )
        rep = run_workflow(cfg, bundle=bundle)
    except Exception as exc:  # an error is an answer too
        return f"error  {type(exc).__name__}: {exc}"
    return (f"{rep.branch_taken}  report={digest(rep.to_dict())}  "
            f"solution={digest(_solution_dict(bundle.require_dispatch(), rep.solution))}")


def step_answer(item) -> str:
    """The fingerprint of one step-response operation (module docstring)."""
    try:
        ss = workloads.closed_loop(scenario_from_dict(item.doc).model, item.attack_gain,
                                   item.droop_gain)
        traj = simulate(ss, item.step, t_step=1.0, t_end=60.0, dt=None)
        label = classify_trajectory(traj)
    except Exception as exc:  # an error is an answer too
        return f"error  {type(exc).__name__}: {exc}"
    return (f"{label}  diverged={traj.diverged}  samples={len(traj.times)}  "
            f"states={hashlib.sha256(traj.states.tobytes()).hexdigest()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKFLOW_LOADS + ("step_response",))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    items = workloads.generate(args.workload, args.seed)
    if args.workload == "step_response":
        for j, item in enumerate(items):
            print(f"{j}  {step_answer(item)}", flush=True)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = workloads.write_samples(items, Path(tmp))
        for j, (item, path) in enumerate(zip(items, paths)):
            print(f"{j}  {answer(item, path)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
