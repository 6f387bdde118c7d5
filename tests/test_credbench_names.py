"""credbench (read only) still finds every name of the program it reads.

The benchmark binds the program from outside: its tracer wraps functions by
module and attribute name, and its step workload assembles the kick from
StateSpace.descriptor_a.  A renamed or deleted name breaks `--trace 1` or
the step set-up only when the benchmark runs, so these tests run both
bindings in the tier-1 suite.
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
