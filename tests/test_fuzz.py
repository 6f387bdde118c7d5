"""A seeded fuzz of ring grids with several attacked areas, run through the workflow.

Document s starts from credbench's ``ring_scenario(RandomState(s), 0, 0.3,
1.0, n)`` (read only) and is edited by draws from ``RandomState(1000 + s)``,
in this order:
- n, 2-4 areas, and m, 1 to min(n, 3) attacked areas, drawn without
  replacement;
- per attacked area, a vulnerable share U(0.1, 0.6) of its demand and a
  wind capacity of U(0.5, 1.5) x demand, available at 80%;
- T, 1-3 identical periods;
- with probability 0.3, a 500 MW / 2000 MWh battery in a random area.

Every run is worst case.  Seeds are 0..SEEDS-1; no outcome is pinned.
"""

import copy
import re
from pathlib import Path

import numpy as np
import pytest

from cred.errors import CredError
from cred.scenario import scenario_from_dict
from cred.workflow import WorkflowConfig, run_workflow

BENCH = Path(__file__).resolve().parent.parent / "credbench"
SEEDS = 40
BRANCHES = {"no_attack", "precheck_stable", "cred_applied", "cred_infeasible_shed"}


@pytest.fixture(scope="module")
def ring_scenario():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import workloads

        yield workloads.ring_scenario


def fuzz_document(ring_scenario, s: int) -> dict:
    rng = np.random.RandomState(1000 + s)
    n = int(rng.randint(2, 5))
    m = int(rng.randint(1, min(n, 3) + 1))
    attacked = sorted(int(a) for a in rng.choice(n, m, replace=False))
    doc = ring_scenario(np.random.RandomState(s), 0, 0.3, 1.0, n)
    period = doc["dispatch"]["periods"][0]
    for a in attacked:
        demand = period["demand"][a]
        vf, wind = rng.uniform(0.1, 0.6), rng.uniform(0.5, 1.5) * demand
        doc["areas"][a].update(vulnerable_load=vf * demand, secure_load=(1.0 - vf) * demand,
                               ibr_max_power=wind)
        period["wind_available"][a] = 0.8 * wind
    doc["attack"]["areas"] = attacked
    t_len = int(rng.randint(1, 4))
    doc["dispatch"]["periods"] = [copy.deepcopy(period) for _ in range(t_len)]
    for gen in doc["dispatch"]["generators"]:
        gen["committed"] = [1] * t_len
    if rng.uniform() < 0.3:
        doc["dispatch"]["storage"] = [{
            "area": int(rng.randint(n)), "soc_min": 0.2, "soc_max": 0.8, "efficiency": 0.9,
            "power_limit": 500.0, "energy": 2000.0, "soc_initial": 0.5,
        }]
    return doc


def test_every_run_ends_in_a_branch_or_a_staged_error(ring_scenario):
    outcomes = []
    for s in range(SEEDS):
        bundle = scenario_from_dict(fuzz_document(ring_scenario, s))
        try:
            rep = run_workflow(WorkflowConfig(mode="worst_case"), bundle=bundle)
        except CredError as exc:
            assert re.match(r"\[[a-z-]+\] ", str(exc)), (s, repr(exc))
            outcomes.append(type(exc).__name__)
            continue
        assert rep.branch_taken in BRANCHES, s
        if rep.certificate is not None:
            assert max(rep.certificate["max_real_per_period"]) < 0.0, s
        outcomes.append(rep.branch_taken)
    # a fuzz whose runs all stop before the dispatch would check no certificate
    assert "cred_applied" in outcomes, outcomes
