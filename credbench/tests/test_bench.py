"""Tests of the benchmark itself: inputs, gate, tail rule and tracer.

Run from the repository root:  python -m pytest credbench/tests
"""

import json

import numpy as np
import pytest
import scipy.linalg

import cred.dispatch
import cred.milp
import cred.workflow
import gate
import harness
import speed
import tracing
import workloads
from cred.errors import ClassificationError
from cred.scenario import scenario_from_dict
from cred.systems import three_area_system


def _canonical(items) -> str:
    def plain(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        return obj.__dict__

    return json.dumps(items, default=plain, sort_keys=True)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.generate(workload, 3)
    assert len(first) == workloads.POOL_SIZES[workload]
    assert _canonical(first) == _canonical(workloads.generate(workload, 3))
    assert _canonical(first) != _canonical(workloads.generate(workload, 4))


def test_lattice_puts_one_draw_in_every_stratum():
    u = workloads.lattice(np.random.RandomState(0), 40)
    assert sorted(np.floor(u * 40).astype(int)) == list(range(40))
    assert np.allclose(np.diff(np.sort(u)), 1 / 40)


@pytest.mark.parametrize("k", [1, 2, 26, 180])
def test_korobov_puts_one_draw_in_every_stratum_of_each_dimension(k):
    u = workloads.korobov(np.random.RandomState(0), k, 4)
    assert u.shape == (k, 4)
    for column in u.T:
        assert sorted(np.floor(column * k).astype(int)) == list(range(k))


def test_propagator_matches_the_matrix_exponential():
    rng = np.random.RandomState(0)
    a = rng.normal(size=(12, 12)) - 3.0 * np.eye(12)
    for dt in (0.0, 0.02, 1.0, 30.0):
        expected = scipy.linalg.expm(a * dt)
        assert np.allclose(workloads.propagator(a, dt), expected, rtol=1e-10, atol=1e-14)


def _step_loop(item):
    model = scenario_from_dict(item.doc).model
    return workloads.closed_loop(model, item.attack_gain, item.droop_gain)


def test_rings_down_redraws_the_loop_the_classifier_cannot_label(monkeypatch):
    # input 36 of seed 59, as drawn before the check: a ring loop whose
    # frequency settles after one swing, with three peaks above the floor
    monkeypatch.setattr(workloads, "rings_down", lambda ss, step: True)
    unchecked = workloads.generate("step_response", 59)
    monkeypatch.undo()
    item = unchecked[36]
    ss = _step_loop(item)
    lam = np.abs(np.linalg.eigvals(ss.state_matrix)).max()
    traj = harness.SIMULATE.simulate(ss, item.step, t_step=1.0, t_end=60.0,
                                     dt=min(0.02, 1.0 / (12.0 * lam)))
    with pytest.raises(ClassificationError):
        harness.SIMULATE.classify_trajectory(traj)
    assert not workloads.rings_down(ss, item.step)

    checked = workloads.generate("step_response", 59)
    assert _canonical(checked[:36]) == _canonical(unchecked[:36])
    assert workloads.rings_down(_step_loop(checked[36]), checked[36].step)
    assert checked[36].droop_gain.max() / checked[36].attack_gain.max() == pytest.approx(
        item.droop_gain.max() / item.attack_gain.max())


def test_rings_down_keeps_the_criterion_6_loops():
    bundle = scenario_from_dict(three_area_system())
    n = bundle.model.areas
    step = np.array([0.0, 0.01 * (bundle.model.secure_load[1]
                                  + bundle.model.vulnerable_load[1]), 0.0])
    attack = np.array([0.0, 0.8 * workloads._budget_gain_mw(three_area_system(), 1) / 1000.0, 0.0])
    for droop in (np.zeros(n), attack):  # growing, then fully compensated
        assert workloads.rings_down(workloads.closed_loop(bundle.model, attack, droop), step)


def _desk_result():
    item = workloads.WorkflowInput(three_area_system(), "worst_case", 1.0)
    bundle = scenario_from_dict(item.doc)
    rep = cred.workflow.run_workflow(cred.workflow.WorkflowConfig(mode="worst_case"),
                                     bundle=bundle)
    return item, bundle, rep


def test_gate_passes_a_certified_dispatch():
    item, bundle, rep = _desk_result()
    assert rep.branch_taken == "cred_applied"
    reference = {"branch": rep.branch_taken, "final_cost": rep.final_cost}
    assert gate.check_workflow(item, bundle, rep, reference) == []


def test_gate_counts_halved_droop_as_failed():
    item, bundle, rep = _desk_result()
    rep.solution.droop = rep.solution.droop / 2.0
    failed = gate.check_workflow(item, bundle, rep, None)
    assert "certificate" in failed

    outcomes = harness.Outcomes(1)
    outcomes.add(0, 0.0, 0.1, None, failed)
    assert outcomes.passed == 0 and outcomes.wrong == 1
    assert outcomes.failures["gate:certificate"] == 1


def test_gate_rejects_a_reference_mismatch():
    item, bundle, rep = _desk_result()
    reference = {"branch": rep.branch_taken, "final_cost": rep.final_cost * (1 + 1e-5)}
    assert gate.check_workflow(item, bundle, rep, reference) == ["reference_cost"]


def test_exceptions_are_itemised_by_stage_and_type():
    outcomes = harness.Outcomes(1)
    outcomes.add(0, 0.0, 0.1, cred.ValidationFailure("[validation] period 0: unstable"), [])
    outcomes.add(0, 0.0, 0.1, ValueError("no stage"), [])
    assert outcomes.failures == {"validation:ValidationFailure": 1, "unstaged:ValueError": 1}
    assert outcomes.wrong == 0 and outcomes.attempted == 2


@pytest.mark.parametrize("n, p", [
    (5, 100.0), (19, 100.0), (20, 50.0), (39, 50.0), (40, 75.0), (49, 75.0),
    (50, 80.0), (99, 80.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert harness.tail_percentile(n) == p
    values = list(range(n))
    beyond = sum(v > harness.percentile_value(values, p) for v in values)
    assert beyond >= 10 or p == 100.0


def test_tracer_restores_every_binding():
    item, bundle, _ = _desk_result()
    original = cred.milp.solve_milp
    tracer = tracing.Tracer()
    with tracer.operation(0):
        assert cred.dispatch.solve_milp is not original
        cred.workflow.run_workflow(cred.workflow.WorkflowConfig(mode="worst_case"),
                                   bundle=bundle)
    assert cred.dispatch.solve_milp is original and cred.milp.solve_milp is original
    metrics = tracer.per_op_metrics()
    assert metrics["workflow.branch.cred_applied"] == 1.0
    assert metrics["milp.solve_lp.calls"] == metrics["milp.bb_nodes"] > 0
    assert 0.0 < metrics["milp.solve_lp.s"] <= metrics["milp.solve_milp.s"]
    assert metrics["workflow.run_workflow.self_s"] < metrics["workflow.run_workflow.s"]
    # the run adds the bare and traced rates
    assert set(harness.declared_metrics("per_layer")) - set(metrics) == {
        "trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead_ops_per_s"}


def test_end_to_end_reports_the_declared_metrics(tmp_path):
    clock = speed.Speed()
    clock.samples = [(0.0, 2.0 * speed.REFERENCE_KERNEL_S)]  # the machine at half speed
    setups = harness.Setup("desk_redispatch", 0, tmp_path, clock)
    setups.timings = [(0.0, 0.5, 0.5)]
    outcomes = harness.Outcomes(2)
    outcomes.add(0, 0.0, 0.1, None, [])
    outcomes.add(1, 0.0, 0.3, None, [])
    metrics, info = harness.end_to_end(outcomes, setups)
    assert set(metrics) == set(harness.declared_metrics("end_to_end"))
    assert metrics["op_p50_s"] == pytest.approx(0.1) and metrics["setup_s"] == pytest.approx(0.25)
    assert info["wall_clock"]["op_p50_s"] == pytest.approx(0.2) and info["failed_frac"] == 0.0


def test_speed_scales_by_the_kernel_timings_near_an_interval():
    clock = speed.Speed()
    ref = speed.REFERENCE_KERNEL_S
    clock.samples = [(0.0, 2.0 * ref), (0.5, 2.0 * ref), (10.0, ref)]
    assert clock.scale(0.1, 0.2) == pytest.approx(0.5)
    assert clock.scale(9.5, 10.5) == pytest.approx(1.0)
    assert clock.scale(6.0, 6.1) == pytest.approx(1.0)  # none near: the nearest one


class _Stub:
    """A one-op bench and a set-up counter, for the measurement loop."""

    def __init__(self):
        self.items = [None]
        self.timings = [(0.0, 0.0, 0.0)]

    def operation(self, j):
        return None

    def check(self, j, result, reference):
        return []

    def once(self):
        self.timings.append((0.0, 0.0, 0.0))


def test_measure_spreads_the_set_ups_over_the_run():
    stub = _Stub()
    bare, _ = harness.measure(stub, 0.05, {}, speed.Speed(), setups=stub)
    assert len(stub.timings) == harness.SETUP_REPEATS
    assert bare.attempted > 1 and bare.passed == bare.attempted
