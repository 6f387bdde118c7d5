#!/usr/bin/env python3
"""Print a fingerprint of every answer a benchmark workload's pool gets.

Runs each operation of one seeded ``credbench`` pool once, as the
benchmark runs it (``credbench/workloads.py``, read only), and prints one
line per op.  A workflow op runs as ``Bench.operation`` runs it
(``credbench/harness.py``, read only) and prints

    <op>  <branch>  report=<sha256>  solution=<sha256>

the SHA-256 of the ``report.json`` and ``solution.json`` that
``write_artifacts`` writes for it, as ``cred workflow`` does.  With
``--values`` a workflow op prints its numbers instead,

    <op>  <branch>  final_cost=<repr>  droop_max=<repr>  pairs=<i:a,...>  anchors=<k,...;...>  worst_real=<repr>

the report's ``final_cost``, the largest droop of its dispatch, its
critical pairs, the anchor abscissas of each pair's table (so each
table's anchor count too; tables apart by ``;``) and the largest
``critical_pair_worst_real`` (the last three empty when no pair was
screened).  ``--against FILE`` (a ``--values`` output of another
checkout) ends the output with one line

    # against FILE: <n> ops, <m> answers differ, pairs or anchors differ on <p> ops [(<op>, ...)], final_cost within <r> rel, droop_max within <a> abs, worst_real within <w> abs

where an answer differs when its branch, or an error's type and text,
does, and the bounds are the largest differences over the ops whose
answers agree.
A ``step_response`` op simulates its closed loop with
``simulate(..., dt=None)`` and prints

    <op>  <label>  diverged=<bool>  samples=<len(times)>  states=<sha256>

the trajectory's class, its divergence flag, its sample count and the
SHA-256 of ``states.tobytes()``; with ``--values`` it prints

    <op>  <label>  diverged=<bool>  samples=<len(times)>  peak=<repr>  last=<repr>

the largest |state| over the trajectory and the largest |state| of its
last sample instead of the hash, and ``--against FILE`` ends the output
with

    # against FILE: <n> ops, <m> differ in label, diverged or samples [(<op>, ...)], peak within <p> rel, last within <l> rel

the bounds taken over the ops that agree.  An op that raises prints

    <op>  error  <exception type>: <message>

Two checkouts give the same answers on a pool exactly when their outputs
are identical:

    python3 scripts/answer_hashes.py --workload desk_redispatch --seed 0 > after.txt

and their answers' numbers are compared by

    python3 scripts/answer_hashes.py --workload desk_redispatch --seed 0 --values > before.txt
    python3 scripts/answer_hashes.py --workload desk_redispatch --seed 0 --values \
        --against before.txt
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "credbench")]

import harness  # noqa: E402
import workloads  # noqa: E402
from cred.scenario import scenario_from_dict  # noqa: E402
from cred.simulate import classify_trajectory, simulate  # noqa: E402
from cred.workflow import write_artifacts  # noqa: E402

#: the workloads whose operations are run_workflow calls
WORKFLOW_LOADS = ("desk_redispatch", "ring_tables", "storage_horizon")


def answer(bench, j: int, values=False) -> str:
    """The fingerprint of bench's operation j's answer, or its numbers (module docstring)."""
    try:
        rep = bench.operation(j)
    except Exception as exc:  # an error is an answer too
        return f"error  {type(exc).__name__}: {exc}"
    if values:
        pairs = ",".join(f"{i}:{a}" for i, a in rep.pairs)
        anchors = ";".join(",".join(map(repr, tab["anchors"])) for tab in rep.tables)
        worst = repr(max(rep.pair_worst_real)) if rep.pair_worst_real else ""
        return (f"{rep.branch_taken}  final_cost={rep.final_cost!r}  "
                f"droop_max={float(rep.solution.droop.max())!r}  pairs={pairs}  "
                f"anchors={anchors}  worst_real={worst}")
    with tempfile.TemporaryDirectory() as tmp:
        write_artifacts(Path(tmp), bench.bundles[j].dispatch, rep)
        report, solution = (hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest()
                            for name in ("report.json", "solution.json"))
    return f"{rep.branch_taken}  report={report}  solution={solution}"


def step_answer(item, values=False) -> str:
    """The fingerprint of one step-response operation, or its numbers (module docstring)."""
    try:
        ss = workloads.closed_loop(scenario_from_dict(item.doc).model, item.attack_gain,
                                   item.droop_gain)
        traj = simulate(ss, item.step, t_step=1.0, t_end=60.0, dt=None)
        label = classify_trajectory(traj)
    except Exception as exc:  # an error is an answer too
        return f"error  {type(exc).__name__}: {exc}"
    head = f"{label}  diverged={traj.diverged}  samples={len(traj.times)}"
    if values:
        return (f"{head}  peak={float(abs(traj.states).max())!r}  "
                f"last={float(abs(traj.states[-1]).max())!r}")
    return f"{head}  states={hashlib.sha256(traj.states.tobytes()).hexdigest()}"


def _numbers(line: str) -> dict:
    """The fields of one --values line: op, answer, and the other fields if any."""
    op, rest = line.split("  ", 1)
    if rest.startswith("error  "):
        return {"op": op, "answer": rest}
    return {"op": op, "answer": rest.split("  ")[0],
            **dict(part.split("=", 1) for part in rest.split("  ")[1:])}


def _rel(a: str, b: str) -> float:
    """Relative difference of two printed floats, 0 when both are zero."""
    a, b = float(a), float(b)
    return abs(a - b) / max(abs(a), abs(b)) if max(abs(a), abs(b)) else 0.0


def step_against(lines: list, before: list) -> str:
    """The summary line comparing this run's step --values lines with before's."""
    if len(lines) != len(before):
        return f"{len(lines)} ops here, {len(before)} there"
    keys, differ, peak, last = ("op", "answer", "diverged", "samples"), [], 0.0, 0.0
    for now, then in zip(map(_numbers, lines), map(_numbers, before)):
        if [now.get(k) for k in keys] != [then.get(k) for k in keys]:
            differ.append(now["op"])
        elif "peak" in now:  # not the same error
            peak = max(peak, _rel(now["peak"], then["peak"]))
            last = max(last, _rel(now["last"], then["last"]))
    listed = f" ({', '.join(differ)})" if differ else ""
    return (f"{len(lines)} ops, {len(differ)} differ in label, diverged or samples{listed}, "
            f"peak within {peak:.2g} rel, last within {last:.2g} rel")


def against(lines: list, before: list) -> str:
    """The summary line comparing this run's workflow --values lines with before's."""
    if len(lines) != len(before):
        return f"{len(lines)} ops here, {len(before)} there"
    differ, moved, cost, droop, worst = 0, [], 0.0, 0.0, 0.0
    for now, then in zip(map(_numbers, lines), map(_numbers, before)):
        if now["op"] != then["op"] or now["answer"] != then["answer"]:
            differ += 1
            continue
        if "final_cost" not in now:  # the same error
            continue
        if (now["pairs"], now["anchors"]) != (then["pairs"], then["anchors"]):
            moved.append(now["op"])
        cost = max(cost, _rel(now["final_cost"], then["final_cost"]))
        droop = max(droop, abs(float(now["droop_max"]) - float(then["droop_max"])))
        if now["worst_real"] and then["worst_real"]:
            worst = max(worst, abs(float(now["worst_real"]) - float(then["worst_real"])))
    listed = f" ({', '.join(moved)})" if moved else ""
    return (f"{len(lines)} ops, {differ} answers differ, pairs or anchors differ on "
            f"{len(moved)} ops{listed}, final_cost within {cost:.2g} rel, "
            f"droop_max within {droop:.2g} abs, worst_real within {worst:.2g} abs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKFLOW_LOADS + ("step_response",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--values", action="store_true",
                        help="print each workflow op's final cost, largest droop, critical "
                             "pairs, table anchors and worst real part, or each step op's "
                             "largest and last state")
    parser.add_argument("--against", type=Path,
                        help="with --values: compare with this earlier --values output")
    args = parser.parse_args(argv)
    if args.against is not None and not args.values:
        parser.error("--against needs --values")

    lines = []
    if args.workload == "step_response":
        for j, item in enumerate(workloads.generate(args.workload, args.seed)):
            lines.append(f"{j}  {step_answer(item, args.values)}")
            print(lines[-1], flush=True)
        compare = step_against
    else:
        with tempfile.TemporaryDirectory() as tmp:
            bench = harness.Bench(args.workload, args.seed, Path(tmp))
            for j in range(len(bench.items)):
                lines.append(f"{j}  {answer(bench, j, args.values)}")
                print(lines[-1], flush=True)
        compare = against
    if args.against is not None:
        before = args.against.read_text().splitlines()
        print(f"# against {args.against}: {compare(lines, before)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
