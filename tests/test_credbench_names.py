"""credbench (read only) still finds every name of the program it reads.

The benchmark binds the program from outside: its tracer wraps functions by
module and attribute name, and its step workload assembles the kick from
StateSpace.descriptor_a.  A renamed or deleted name, or a probed function
whose arguments or result changed shape, breaks `--trace 1` or the step
set-up only when the benchmark runs, so these tests run both bindings, and
read what the tracer counts, in the tier-1 suite.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "credbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness  # noqa: F401  (binds names of cred at import, as run.py does)
    import tracing
    import workloads

    return tracing, workloads


def test_tracer_finds_every_probe(bench):
    tracing, _ = bench
    tracing.Tracer()  # a getattr on every probe's module and attribute


def test_step_workload_builds_its_loops(bench):
    _, workloads = bench
    ops = workloads.generate("step_response", 0)
    assert len(ops) == workloads.POOL_SIZES["step_response"]


def test_tracer_reads_the_dispatch_layers(bench):
    """Traced workflow runs read nonzero on the probes that wrap the dispatch layer.

    The storage run builds and solves its horizon's LP; both runs precheck
    and certify.  A probe whose function changed its arguments or result
    would raise or read zero here.
    """
    tracing, _ = bench
    from cred.scenario import scenario_from_dict
    from cred.systems import three_area_system, three_area_with_storage
    from cred.workflow import WorkflowConfig, run_workflow

    tracer = tracing.Tracer()
    for op, doc in enumerate((three_area_with_storage(), three_area_system())):
        bundle = scenario_from_dict(doc)
        with tracer.operation(op):
            rep = run_workflow(WorkflowConfig(mode="worst_case"), bundle=bundle)
        assert rep.branch_taken == "cred_applied"
    metrics = tracer.per_op_metrics()
    for name in ("dispatch.milp_rows", "milp.solve_lp.calls", "dispatch.validate_solution.calls",
                 "dispatch.stability_precheck.s"):
        assert metrics[name] > 0.0, name


def test_tracer_counts_the_droop_search_cell_lps(bench):
    """The tracer counts every LP a traced run solves, the droop search's cell LPs too.

    With areas 0 and 1 attacked the search solves its cells as LPs in
    cred.rows, a binding of solve_lp apart from cred.milp's and
    cred.dispatch's; the storage-free desk solves no other LP.
    """
    tracing, _ = bench
    from test_dispatch import two_area_desk

    from cred.scenario import scenario_from_dict
    from cred.workflow import WorkflowConfig, run_workflow

    tracer = tracing.Tracer()
    with tracer.operation(0):
        rep = run_workflow(WorkflowConfig(mode="worst_case"),
                           bundle=scenario_from_dict(two_area_desk()))
    assert rep.branch_taken == "cred_applied"
    calls = tracer.per_op_metrics()["milp.solve_lp.calls"]
    assert calls == rep.solution.lp_count > 0
