"""Per-operation correctness gate, run outside the timed region.

The gate does not trust the program's own certificate.  It recomputes the
robust gains from the scenario document and the sample file, rebuilds every
period's closed loop from the returned droop, wind and robust gains with
``build_state_space`` and takes the spectrum with ``numpy.linalg.eigvals``
(not ``validate_solution``), and checks the branch, the power balance and
the costs.  Each check returns the names of the checks that failed; an
empty list means the operation passed.
"""

from __future__ import annotations

import math

import numpy as np
from cred.errors import ConfigurationError
from cred.grid import AttackProfile, DroopSchedule, build_state_space
from cred.simulate import CLASSIFY_TOL

from workloads import DETECTION_THRESHOLD, ETA

#: relative tolerance against stored references and for recomputed costs
REL_TOL = 1e-6

#: relative tolerance on the independently recomputed robust gains
GAIN_TOL = 1e-9


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def expected_gains(item) -> np.ndarray:
    """Robust gains (p.u./Hz) recomputed from the document and samples."""
    doc = item.doc
    base = doc["base_power"]
    areas = doc["attack"]["areas"]
    static = doc["attack"].get("static", [0.0] * len(doc["areas"]))
    budget = np.zeros(len(doc["areas"]))
    for a in areas:
        vulnerable = doc["areas"][a]["vulnerable_load"]
        budget[a] = max(0.0, (vulnerable - static[a]) / base / (2.0 * doc["omega_max"]))
    if item.mode == "worst_case":
        return budget
    gains = np.zeros(len(doc["areas"]))
    for rec in item.samples:
        draws = np.asarray(rec["samples"], dtype=float) / base
        gains[rec["area"]] = draws.mean()
        if item.mode == "auto":
            gains[rec["area"]] += math.sqrt(ETA / (1.0 - ETA)) * draws.std(ddof=1)
    for a in areas:
        gains[a] = min(gains[a], budget[a])
    return gains


def _max_real(model, attack: AttackProfile, droop: DroopSchedule) -> float:
    ss = build_state_space(model, attack, droop)
    return float(np.linalg.eigvals(ss.state_matrix).real.max())


def check_workflow(item, bundle, rep, reference: dict | None) -> list:
    """Failed checks of one run_workflow result."""
    scn = bundle.dispatch
    model = scn.model
    n = model.areas
    failed = []
    gains = np.asarray(rep.robust_gains, dtype=float)
    attacked = item.detection_score > DETECTION_THRESHOLD
    if (rep.branch_taken == "no_attack") == attacked:
        failed.append("branch_detection")
    if attacked and not np.allclose(gains, expected_gains(item), rtol=GAIN_TOL, atol=1e-12):
        failed.append("robust_gains")
    active = tuple(sorted(set(bundle.attack_areas) | set(np.flatnonzero(gains > 0).tolist())))
    attack = AttackProfile(gains, bundle.static_attack, active)
    if attacked:
        precheck_stable = _max_real(model, attack, DroopSchedule.none(n)) < 0.0
        if (rep.branch_taken == "precheck_stable") != precheck_stable:
            failed.append("branch_precheck")

    sol = rep.solution
    try:
        for t in range(scn.n_periods):
            if _max_real(model, attack, DroopSchedule(sol.droop[t], sol.wind_power[t])) >= 0.0:
                failed.append("certificate")
                break
    except ConfigurationError:
        failed.append("certificate_inputs")
    shed = float(sol.shed.sum())
    if (rep.branch_taken == "cred_infeasible_shed") != (shed > 1e-9):
        failed.append("branch_shed")

    supply = (sol.sg_power.sum(axis=1) + sol.wind_power.sum(axis=1) + sol.shed.sum(axis=1)
              + sol.storage_discharge.sum(axis=1) - sol.storage_charge.sum(axis=1))
    if not np.allclose(supply, scn.demand.sum(axis=1), rtol=REL_TOL, atol=0.0):
        failed.append("power_balance")
    cost = scn.base_power * sum(
        g.marginal_cost * sol.sg_power[:, k].sum() for k, g in enumerate(scn.generators)
    ) + scn.base_power * scn.shed_cost * shed
    if not _close(cost, rep.final_cost, REL_TOL):
        failed.append("final_cost_recomputed")
    if rep.final_cost < rep.baseline_cost - REL_TOL * max(1.0, abs(rep.baseline_cost)):
        failed.append("cost_below_baseline")
    if reference is not None:
        if rep.branch_taken != reference["branch"]:
            failed.append("reference_branch")
        elif not _close(rep.final_cost, reference["final_cost"], REL_TOL):
            failed.append("reference_cost")
    return failed


def expected_label(max_real: float) -> tuple:
    """Labels a correct classifier may give a loop with this spectral abscissa.

    Inside twice the classifier's marginal band either neighbouring label
    is accepted, since a fitted peak slope is not exactly the abscissa.
    """
    if max_real > 2.0 * CLASSIFY_TOL:
        return ("growing",)
    if max_real < -2.0 * CLASSIFY_TOL:
        return ("decaying",)
    if max_real >= 0.0:
        return ("growing", "marginal")
    return ("decaying", "marginal")


def check_step(ss, label: str, reference: dict | None) -> list:
    """Failed checks of one simulate + classify_trajectory result."""
    failed = []
    max_real = float(np.linalg.eigvals(ss.state_matrix).real.max())
    if label not in expected_label(max_real):
        failed.append("label_vs_spectrum")
    if reference is not None and label != reference["label"]:
        failed.append("reference_label")
    return failed
