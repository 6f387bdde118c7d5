import hashlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cred.workflow import write_artifacts

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "answer_hashes.py"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
LINE = re.compile(r"^(\d+)  (\w+)  report=([0-9a-f]{64})  solution=([0-9a-f]{64})$")


def load_script():
    spec = importlib.util.spec_from_file_location("answer_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True)


def test_one_line_per_op_and_the_same_on_a_rerun():
    proc = run("--workload", "storage_horizon", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [LINE.match(line).group(1, 2) for line in lines] == [(str(j), "cred_applied")
                                                               for j in range(5)]
    assert run("--workload", "storage_horizon", "--seed", "0").stdout == proc.stdout


def test_solution_hash_is_that_of_the_written_artifact(tmp_path):
    script = load_script()
    # a desk op with a detection-sample file
    items = script.workloads.generate("desk_redispatch", 0)
    paths = script.workloads.write_samples(items, tmp_path)
    j = next(j for j, item in enumerate(items) if item.samples and item.mode != "worst_case")
    match = LINE.match(f"{j}  {script.answer(items[j], paths[j])}")
    assert match.group(2) == "cred_applied"
    cfg = script.WorkflowConfig(samples_path=str(paths[j]), mode=items[j].mode,
                                detection_score=items[j].detection_score,
                                detection_threshold=script.workloads.DETECTION_THRESHOLD,
                                eta=script.workloads.ETA)
    bundle = script.scenario_from_dict(items[j].doc)
    write_artifacts(tmp_path / "out", bundle.dispatch, script.run_workflow(cfg, bundle=bundle))
    written = (tmp_path / "out" / "solution.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == match.group(4)


def test_an_error_is_its_type_and_text():
    script = load_script()
    item = script.workloads.WorkflowInput({"areas": "none"}, "worst_case", 1.0)
    assert re.fullmatch(r"error  ScenarioError: .+", script.answer(item, None))


STEP_LINE = re.compile(r"^(\d+)  (decaying|growing|marginal)  diverged=(True|False)  "
                       r"samples=(\d+)  states=[0-9a-f]{64}$")


def test_step_pool_one_line_per_op_and_the_same_on_a_rerun():
    proc = run("--workload", "step_response", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    matches = [STEP_LINE.match(line) for line in proc.stdout.splitlines()]
    assert [int(m.group(1)) for m in matches] == list(range(100))
    assert all(int(m.group(4)) > 1 for m in matches)
    assert run("--workload", "step_response", "--seed", "0").stdout == proc.stdout


def test_step_hash_is_that_of_the_trajectory():
    script = load_script()
    item = script.workloads.generate("step_response", 0)[0]
    ss = script.workloads.closed_loop(script.scenario_from_dict(item.doc).model,
                                      item.attack_gain, item.droop_gain)
    traj = script.simulate(ss, item.step, t_step=1.0, t_end=60.0, dt=None)
    digest = hashlib.sha256(traj.states.tobytes()).hexdigest()
    assert script.step_answer(item).endswith(f"samples={len(traj.times)}  states={digest}")


VALUE_LINE = re.compile(r"^(\d+)  (\w+)  final_cost=(\S+)  droop_max=(\S+)  pairs=(\S*)  "
                        r"anchors=(\S*)  worst_real=(\S*)$")


def test_values_are_the_reports_and_compare_against_an_earlier_run(tmp_path):
    proc = run("--workload", "storage_horizon", "--seed", "0", "--values")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [VALUE_LINE.match(line).group(1, 2) for line in lines] == [(str(j), "cred_applied")
                                                                     for j in range(5)]
    script = load_script()
    item = script.workloads.generate("storage_horizon", 0)[0]
    rep = script.run_workflow(script.WorkflowConfig(
        detection_score=item.detection_score,
        detection_threshold=script.workloads.DETECTION_THRESHOLD,
        eta=script.workloads.ETA, mode=item.mode), bundle=script.scenario_from_dict(item.doc))
    cost, droop, pairs, anchors, worst = VALUE_LINE.match(lines[0]).group(3, 4, 5, 6, 7)
    assert float(cost) == rep.final_cost and float(droop) == rep.solution.droop.max()
    assert pairs == ",".join(f"{i}:{a}" for i, a in rep.pairs) and rep.pairs
    assert [[float(k) for k in tab.split(",")] for tab in anchors.split(";")] == [
        tab["anchors"] for tab in rep.tables]
    assert float(worst) == max(rep.pair_worst_real)
    # the same run against itself, then against a copy with moved numbers and answers
    before = tmp_path / "before.txt"
    before.write_text(proc.stdout)
    again = run("--workload", "storage_horizon", "--seed", "0", "--values", "--against", before)
    assert again.stdout.splitlines() == lines + [
        f"# against {before}: 5 ops, 0 answers differ, pairs or anchors differ on 0 ops, "
        "final_cost within 0 rel, droop_max within 0 abs, worst_real within 0 abs"]
    head = f"final_cost={float(cost) * (1 + 1e-12)!r}  droop_max={float(droop) + 3e-13!r}"
    tail = lines[3].split("  pairs=", 1)[1]
    moved = [f"0  cred_applied  {head}  pairs={pairs}  anchors={anchors}  "
             f"worst_real={float(worst) - 2e-14!r}",
             "1  cred_infeasible_shed" + lines[1].split("cred_applied", 1)[1],
             "2  error  TrackingError: lost",
             lines[3].split("  pairs=")[0] + "  pairs=4:1," + tail,
             lines[4].replace("anchors=0.0,", "anchors=0.0,1.0,")]
    assert script.against(lines, moved) == (
        "5 ops, 2 answers differ, pairs or anchors differ on 2 ops (3, 4), "
        "final_cost within 1e-12 rel, droop_max within 3e-13 abs, worst_real within 2e-14 abs")
    # ops without pairs print empty fields and compare as equal
    bare = "0  precheck_stable  final_cost=1.0  droop_max=0.0  pairs=  anchors=  worst_real="
    assert VALUE_LINE.match(bare)
    assert script.against([bare], [bare]) == (
        "1 ops, 0 answers differ, pairs or anchors differ on 0 ops, final_cost within 0 rel, "
        "droop_max within 0 abs, worst_real within 0 abs")
    assert script.against(lines, moved[:4]) == "5 ops here, 4 there"


STEP_VALUE_LINE = re.compile(r"^(\d+)  (decaying|growing|marginal)  diverged=(True|False)  "
                             r"samples=(\d+)  peak=(\S+)  last=(\S+)$")


def test_step_values_are_the_trajectorys_and_compare_against_an_earlier_run(tmp_path):
    proc = run("--workload", "step_response", "--seed", "0", "--values")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    matches = [STEP_VALUE_LINE.match(line) for line in lines]
    assert [int(m.group(1)) for m in matches] == list(range(100))
    script = load_script()
    item = script.workloads.generate("step_response", 0)[0]
    ss = script.workloads.closed_loop(script.scenario_from_dict(item.doc).model,
                                      item.attack_gain, item.droop_gain)
    traj = script.simulate(ss, item.step, t_step=1.0, t_end=60.0, dt=None)
    label, diverged, samples, peak, last = matches[0].group(2, 3, 4, 5, 6)
    assert label == script.classify_trajectory(traj) and diverged == str(traj.diverged)
    assert int(samples) == len(traj.times)
    assert float(peak) == abs(traj.states).max() and float(last) == abs(traj.states[-1]).max()
    # the same run against itself, then against a copy with moved numbers and answers
    before = tmp_path / "before.txt"
    before.write_text(proc.stdout)
    again = run("--workload", "step_response", "--seed", "0", "--values", "--against", before)
    assert again.stdout.splitlines() == lines + [
        f"# against {before}: 100 ops, 0 differ in label, diverged or samples, "
        "peak within 0 rel, last within 0 rel"]
    head = [line.rsplit("  peak=", 1)[0] for line in lines[:5]]
    moved = [f"{head[0]}  peak={float(peak) * (1 + 2e-13)!r}  last={float(last) * (1 - 3e-13)!r}",
             lines[1].replace(matches[1].group(2), "marginal" if matches[1].group(2) != "marginal"
                              else "growing", 1),
             lines[2].replace(f"diverged={matches[2].group(3)}", "diverged=None"),
             lines[3].replace(f"samples={matches[3].group(4)}", "samples=7"),
             "4  error  ClassificationError: only 3 usable oscillation peaks; cannot classify"]
    assert script.step_against(lines[:5], moved) == (
        "5 ops, 4 differ in label, diverged or samples (1, 2, 3, 4), peak within 2e-13 rel, "
        "last within 3e-13 rel")
    assert script.step_against([moved[4]], [moved[4]]) == (
        "1 ops, 0 differ in label, diverged or samples, peak within 0 rel, last within 0 rel")
    assert script.step_against(lines, moved) == "100 ops here, 5 there"


def test_against_needs_values():
    assert run("--workload", "storage_horizon", "--against", "x").returncode == 2
    assert run("--workload", "step_response", "--against", "x").returncode == 2


@pytest.mark.parametrize("seed", [0, 20261017])
def test_step_pool_answers_match_the_pinned_values(seed):
    # the step pools' --values output, checked in under tests/fixtures: labels,
    # divergence flags and sample counts exactly, the largest and last |state|
    # within 1e-12 relative, so that another BLAS build can pass.  A change
    # meant to move an answer checks in the new output in the same commit
    # (answer_hashes.py --workload step_response --seed SEED --values) and
    # lists each moved op in CHANGES.md
    script = load_script()
    pinned = (FIXTURES / f"step_values_seed{seed}.txt").read_text().splitlines()
    items = script.workloads.generate("step_response", seed)
    lines = [f"{j}  {script.step_answer(item, values=True)}" for j, item in enumerate(items)]
    assert len(lines) == len(pinned) == 100
    keys = ("op", "answer", "diverged", "samples")
    for now, then in zip(map(script._numbers, lines), map(script._numbers, pinned)):
        assert [now.get(k) for k in keys] == [then.get(k) for k in keys]
        if "peak" in then:
            assert script._rel(now["peak"], then["peak"]) <= 1e-12, now["op"]
            assert script._rel(now["last"], then["last"]) <= 1e-12, now["op"]


#: the ops of each pinned workflow pool that end in an error, kept with their text
POOL_ERRORS = {"ring_tables": ["16", "20"]}


@pytest.mark.parametrize("workload, seed", [("desk_redispatch", 0), ("desk_redispatch", 20261017),
                                            ("storage_horizon", 0), ("ring_tables", 0)])
def test_workflow_pool_answers_match_the_pinned_values(workload, seed, tmp_path):
    """Each workflow pool's --values output matches the one checked in under tests/fixtures.

    The rules are against's: each op's branch, or its error's type and
    text, and its critical pairs and anchors exactly; final_cost within
    1e-13 relative, droop_max within 1e-12 and the worst real part within
    1e-13 absolute, so that another BLAS build can pass.  A change meant
    to move an answer checks in the new output in the same commit
    (answer_hashes.py --workload WORKLOAD --seed SEED --values) and lists
    every changed op in CHANGES.md.
    """
    script = load_script()
    pinned = (FIXTURES / f"{workload}_values_seed{seed}.txt").read_text().splitlines()
    items = script.workloads.generate(workload, seed)
    paths = script.workloads.write_samples(items, tmp_path)
    lines = [f"{j}  {script.answer(item, path, values=True)}"
             for j, (item, path) in enumerate(zip(items, paths))]
    assert len(lines) == len(pinned) == len(items)
    errors = []
    for now, then in zip(map(script._numbers, lines), map(script._numbers, pinned)):
        assert (now["op"], now["answer"]) == (then["op"], then["answer"])
        if "final_cost" not in then:
            errors.append(then["op"])
            continue
        assert (now["pairs"], now["anchors"]) == (then["pairs"], then["anchors"]), now["op"]
        assert script._rel(now["final_cost"], then["final_cost"]) <= 1e-13, now["op"]
        assert abs(float(now["droop_max"]) - float(then["droop_max"])) <= 1e-12, now["op"]
        if then["worst_real"]:
            assert abs(float(now["worst_real"]) - float(then["worst_real"])) <= 1e-13, now["op"]
    assert errors == POOL_ERRORS.get(workload, [])
