"""Operational workflow: detect, precheck, redispatch, certify, report.

A run starts from the conventional dispatch (no stability rows).  If the
detection score does not clear its threshold, nothing else happens.
Otherwise robust attack gains are formed (worst case, estimated mean, or
the distributionally robust combination), the current operating point gets
an exact eigenvalue precheck, and only an unstable verdict triggers the
stability-constrained redispatch: one exact eigenvalue-locus sweep per
attacked area screens the critical pairs and feeds their piecewise tables,
the dispatch is solved (retrying with load shedding if needed and if
shedding can help), and the result certified by exact eigenvalue checks.
The dispatch chooses each period's droop from the stability rows first
(one best-first search over breakpoint cells per distinct wind band), then
dispatches each storage-free period by merit order, or a storage horizon
as one LP.  One automatic table rebuild at half the error limit, from the
same sweeps, absorbs borderline approximation failures.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dispatch import (
    DELTA_T,
    DispatchScenario,
    DispatchSolution,
    cost_increment,
    solve_cred,
    stability_precheck,
    validate_solution,
)
from .errors import (
    BandInfeasibleError,
    ConfigurationError,
    CredError,
    InfeasibleError,
    ScenarioError,
    ValidationFailure,
)
from .grid import SystemModel, attack_from_gains
from .linearize import build_segment_table, select_critical_pairs, sweep_loci
from .rows import StabilityConstraintSet
from .scenario import ScenarioBundle, load_samples, scenario_from_dict
from .uncertainty import (
    apply_budget_clamp,
    moments_from_samples,
    robust_gain,
    worst_case_gain,
)

__all__ = ["WorkflowConfig", "WorkflowReport", "resolve_gains", "screen", "run_workflow",
           "write_artifacts", "sweep_study", "SWEEP_AXES"]

MODES = ("auto", "worst_case", "mean_only")
SWEEP_AXES = ("vulnerable_fraction", "wind_capacity", "eta")


@contextmanager
def _stage(name: str):
    """Re-raise stage failures with the stage name attached."""
    try:
        yield
    except CredError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


@dataclass
class WorkflowConfig:
    """Run parameters; tolerances default to the shipped study settings.

    A setting out of range raises ScenarioError naming it when the config
    is built, before any stage runs: an unknown mode, eta outside (0, 1),
    eps_lim, eps_strict or a given eps_phi not positive, settle_margin or
    the detection threshold negative, or a number that is not finite.
    """

    samples_path: str | None = None
    detection_score: float = 1.0
    detection_threshold: float = 0.0
    eta: float = 0.95
    mode: str = "auto"
    eps_lim: float = 0.02
    eps_phi: float | None = None  # default: the swept gain / 200
    eps_strict: float = 1e-6
    settle_margin: float = 0.05

    def __post_init__(self):
        if not (math.isfinite(self.detection_score) and math.isfinite(self.detection_threshold)):
            raise ScenarioError("detection score and threshold must be finite")
        if self.detection_threshold < 0:
            raise ScenarioError("detection threshold must be >= 0")
        if self.mode not in MODES:
            raise ScenarioError(f"mode must be one of {MODES}")
        if not 0.0 < self.eta < 1.0:  # NaN fails too
            raise ScenarioError(f"eta must be in (0, 1), got {self.eta!r}")
        for name in ("eps_lim", "eps_strict", "eps_phi"):
            value = getattr(self, name)
            if value is not None and not (value > 0.0 and math.isfinite(value)):
                raise ScenarioError(f"{name} must be > 0 and finite, got {value!r}")
        margin = self.settle_margin
        if not (margin >= 0.0 and math.isfinite(margin)):
            raise ScenarioError(f"settle_margin must be >= 0 and finite, got {margin!r}")

    def read_samples(self, base_power: float) -> dict | None:
        """The samples of samples_path in per unit of base_power (MW); None without a file."""
        return None if self.samples_path is None else load_samples(self.samples_path, base_power)


@dataclass
class WorkflowReport:
    branch_taken: str
    baseline_cost: float
    final_cost: float
    cost_increment: float
    robust_gains: list
    mode: str
    eta: float
    solution: DispatchSolution
    baseline_solution: DispatchSolution
    precheck_max_real: float | None = None
    pairs: list = field(default_factory=list)
    pair_worst_real: list = field(default_factory=list)
    tables: list = field(default_factory=list)
    per_period: list = field(default_factory=list)
    certificate: dict | None = None

    def to_dict(self) -> dict:
        """The document write_artifacts writes to report.json."""
        return {
            "branch_taken": self.branch_taken,
            "baseline_cost": self.baseline_cost,
            "final_cost": self.final_cost,
            "cost_increment": self.cost_increment,
            "robust_gains_pu_per_hz": self.robust_gains,
            "mode": self.mode,
            "eta": self.eta,
            "precheck_max_real": self.precheck_max_real,
            "critical_pairs": [list(p) for p in self.pairs],
            "critical_pair_worst_real": self.pair_worst_real,
            "tables": self.tables,
            "per_period": self.per_period,
            "certificate": self.certificate,
            # names kept relative so identical runs stay byte-identical anywhere
            "artifacts": {"report": "report.json", "solution": "solution.json",
                          "summary": "summary.csv"},
        }


def resolve_gains(cfg: WorkflowConfig, bundle: ScenarioBundle, samples: dict | None) -> np.ndarray:
    """Robust attack gains (p.u./Hz) for cfg.mode; auto without samples is worst case.

    An estimated gain below zero raises ScenarioError naming its area.
    """
    model = bundle.model
    static = bundle.static_attack
    if cfg.mode == "worst_case" or (cfg.mode == "auto" and not samples):
        return worst_case_gain(model, bundle.attack_areas, static)
    if not samples:
        raise ScenarioError(f"mode {cfg.mode!r} needs a detection-sample file")
    est = moments_from_samples(samples, model.areas)
    if cfg.mode == "mean_only":
        gains = np.array(est.mean, dtype=float)
    else:
        gains = robust_gain(est, cfg.eta)
    for a in np.flatnonzero(gains < 0):  # the first such area
        raise ScenarioError(f"area {a}: estimated attack gain {gains[a] * bundle.base_power:.6g} "
                            "MW/Hz is negative")
    return apply_budget_clamp(model, gains, static)


def screen(model: SystemModel, gains: np.ndarray, cfg: WorkflowConfig) -> tuple:
    """The screening stage: (sweeps, pairs).

    sweeps maps each area with a positive gain to its exact eigenvalue-locus
    sweep; pairs are the critical (eigenvalue, area) pairs they select.
    """
    sweeps = {a: sweep_loci(model, a, float(gains[a]), cfg.eps_phi)
              for a in map(int, np.flatnonzero(gains > 0))}
    return sweeps, select_critical_pairs(tuple(sweeps.values()), cfg.settle_margin)


def _per_period_rows(scn: DispatchScenario, sol: DispatchSolution) -> list:
    base = scn.base_power
    rows = []
    for t in range(scn.n_periods):
        rows.append(
            {
                "period": t,
                "cost": float(sol.per_period_cost[t]),
                "droop_pu_per_hz": [float(x) for x in sol.droop[t]],
                "wind_reserve_mw": [float(x * base) for x in sol.wind_reserve[t]],
                "wind_mw": [float(x * base) for x in sol.wind_power[t]],
                "sg_mw": [float(x * base) for x in sol.sg_power[t]],
                "shed_mw": [float(x * base) for x in sol.shed[t]],
            }
        )
    return rows


def _certificate_dict(cert) -> dict:
    return {
        "max_real_per_period": [float(x) for x in cert.max_real],
        "worst_period": cert.worst_period,
        "worst_eigenvalues": [[float(z.real), float(z.imag)] for z in cert.worst_eigenvalues],
        "estimate_discrepancy": cert.estimate_discrepancy,
        "settle_shortfall": cert.settle_shortfall,
    }


def run_workflow(cfg: WorkflowConfig, bundle: ScenarioBundle) -> WorkflowReport:
    """Read cfg.samples_path, then run the detection-to-certificate pipeline on bundle.

    A bundle without a dispatch section raises ScenarioError before the
    samples file is read.  write_artifacts saves the report.
    """
    bundle.require_dispatch()
    return _run(cfg, bundle, cfg.read_samples(bundle.base_power))


def _run(cfg: WorkflowConfig, bundle: ScenarioBundle, samples: dict | None) -> WorkflowReport:
    """run_workflow on samples already read (per unit); bundle has a dispatch section."""
    scn = bundle.dispatch
    with _stage("baseline-dispatch"):
        baseline = solve_cred(scn, None, allow_shed=True)

    def finish(branch, sol, gains, **kw):
        return WorkflowReport(
            branch_taken=branch,
            baseline_cost=baseline.total_cost,
            final_cost=sol.total_cost,
            cost_increment=cost_increment(baseline.total_cost, sol.total_cost),
            robust_gains=[float(g) for g in gains],
            mode=cfg.mode,
            eta=cfg.eta,
            per_period=_per_period_rows(scn, sol),
            solution=sol,
            baseline_solution=baseline,
            **kw,
        )

    if cfg.detection_score <= cfg.detection_threshold:
        return finish("no_attack", baseline, np.zeros(scn.model.areas))

    with _stage("gain-estimation"):
        gains = resolve_gains(cfg, bundle, samples)

    with _stage("precheck"):
        attack = attack_from_gains(gains, bundle.static_attack, bundle.attack_areas)
        pre = stability_precheck(scn, attack)
    if pre.stable:
        return finish("precheck_stable", baseline, gains, precheck_max_real=pre.max_real)

    with _stage("screening"):
        if not (gains > 0).any():  # no gain moves the precheck's loop off the base system
            raise ConfigurationError("base system is unstable; cannot anchor the sweep at 0")
        sweeps, pairs = screen(scn.model, gains, cfg)

    def attempt(eps_lim):
        """Tables, then the dispatch (shedding only if needed), then the certificate."""
        with _stage("tables"):
            tables = tuple(build_segment_table(sweeps[a], i, eps_lim) for i, a in pairs)
        with _stage("dispatch"):
            stab = StabilityConstraintSet(
                tables, gains, strict_margin=cfg.eps_strict, settle_margin=cfg.settle_margin
            )
            try:
                sol, branch = solve_cred(scn, stab, allow_shed=False), "cred_applied"
            except BandInfeasibleError:  # the droop search ignores shedding
                raise
            except InfeasibleError:
                sol, branch = solve_cred(scn, stab, allow_shed=True), "cred_infeasible_shed"
        with _stage("validation"):
            cert = validate_solution(scn, sol, attack, stab)
        return tables, sol, branch, cert

    try:
        tables, sol, branch, cert = attempt(cfg.eps_lim)
    except ValidationFailure:
        tables, sol, branch, cert = attempt(cfg.eps_lim / 2.0)

    return finish(
        branch,
        sol,
        gains,
        precheck_max_real=pre.max_real,
        pairs=list(pairs),
        pair_worst_real=[float(sweeps[a].loci[:, i].real.max()) for i, a in pairs],
        tables=[
            {
                "eigen_index": tab.eigen_index,
                "area": tab.area,
                "anchors": [float(p.abscissa) for p in tab.points],
                "max_grid_error": tab.max_error,
                "range_end": tab.range_end,
            }
            for tab in tables
        ],
        certificate=_certificate_dict(cert),
    )


def _fmt(x) -> str:
    return format(float(x), ".12g")


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if x is None else x if isinstance(x, str) else _fmt(x)
                             for x in row])


def _solution_dict(scn: DispatchScenario, sol: DispatchSolution, certificate: dict | None) -> dict:
    base = scn.base_power
    return {
        "total_cost": sol.total_cost,
        "per_period_cost": [float(x) for x in sol.per_period_cost],
        "sg_power_mw": (sol.sg_power * base).tolist(),
        "wind_power_mw": (sol.wind_power * base).tolist(),
        "wind_reserve_mw": (sol.wind_reserve * base).tolist(),
        "droop_pu_per_hz": sol.droop.tolist(),
        "ibr_ref_mw": (sol.wind_power * base).tolist(),
        "shed_mw": (sol.shed * base).tolist(),
        "storage_charge_mw": (sol.storage_charge * base).tolist(),
        "storage_discharge_mw": (sol.storage_discharge * base).tolist(),
        "storage_soc": sol.storage_soc.tolist(),
        "held_segments": {f"{t},{i},{a}": m
                          for (t, i, a), m in sorted(sol.held_segments.items())},
        "lp_count": sol.lp_count,
        "simplex_iterations": sol.simplex_iterations,
        "stability_certificate": certificate,
    }


def write_artifacts(out: Path, scn: DispatchScenario, rep: WorkflowReport) -> None:
    """Write rep to report.json, solution.json and summary.csv in out."""
    write_json(out / "report.json", rep.to_dict())
    write_json(out / "solution.json", _solution_dict(scn, rep.solution, rep.certificate))
    header = ["period", "cost"]
    for a in range(scn.model.areas):
        header += [f"kc_pu_per_hz_{a}", f"pres_mw_{a}", f"shed_mw_{a}"]
    rows = [[row["period"], row["cost"]]
            + [x for area in zip(row["droop_pu_per_hz"], row["wind_reserve_mw"], row["shed_mw"])
               for x in area]
            for row in rep.per_period]
    write_csv(out / "summary.csv", header, rows)


@dataclass
class SweepRow:
    axis: str
    value: float
    avg_increment: float | None
    total_increment: float | None
    shed_mwh: float | None
    branch: str | None
    error: str | None = None


def _apply_axis(doc: dict, attack_areas: tuple, axis: str, value: float) -> dict:
    """A copy of doc, a document scenario_from_dict accepts, with one axis set.

    The parser has checked that its values are numbers and that it has a
    dispatch section; the values are read with float().  axis is one of
    SWEEP_AXES (sweep_study checks it); eta leaves the document as it is.
    """
    doc = copy.deepcopy(doc)
    periods = doc["dispatch"]["periods"]
    if axis == "vulnerable_fraction":
        for a in attack_areas:
            area = doc["areas"][a]
            ref = float(np.mean([float(p["demand"][a]) for p in periods]))
            area["vulnerable_load"] = value * ref
            area["secure_load"] = (1.0 - value) * ref
    elif axis == "wind_capacity":
        for a, area in enumerate(doc["areas"]):
            cap = float(area["ibr_max_power"])
            if cap <= 0.0:
                continue
            factor = value / cap
            area["ibr_max_power"] = value
            for p in periods:
                p["wind_available"][a] = float(p["wind_available"][a]) * factor
    return doc


def sweep_study(cfg: WorkflowConfig, axis: str, grid, scenario_doc: dict) -> list:
    """Run the workflow across a parameter grid; a CredError becomes a row.

    The samples file is read once, before the first point, and every point
    runs on those samples: no axis edits base_power, so their per-unit
    values are the same at each point.  A scenario document that cannot be
    parsed or has no dispatch section, and a samples file that cannot be
    read or parsed, raise ScenarioError before the first point.  An eta
    point outside (0, 1) is a failed row.  Any other exception is a
    programming bug and propagates.

    Cost increments are reported averaged over the horizon's periods.
    """
    if axis not in SWEEP_AXES:
        raise ScenarioError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    # a malformed document raises ScenarioError here, before _apply_axis reads it
    base = scenario_from_dict(scenario_doc)
    base.require_dispatch()
    samples = cfg.read_samples(base.base_power)  # so does a bad samples file
    rows = []
    for value in grid:
        value = float(value)
        try:
            if axis == "eta":
                point_cfg, bundle = replace(cfg, eta=value), base
            else:
                point_cfg, bundle = cfg, scenario_from_dict(
                    _apply_axis(scenario_doc, base.attack_areas, axis, value))
            rep = _run(point_cfg, bundle, samples)
            t_len = bundle.dispatch.n_periods
            shed = float(rep.solution.shed.sum() * bundle.base_power * DELTA_T)
            rows.append(
                SweepRow(axis, value, rep.cost_increment / t_len, rep.cost_increment,
                         shed, rep.branch_taken)
            )
        except CredError as exc:  # record and continue
            rows.append(SweepRow(axis, value, None, None, None, None, error=str(exc)))
    return rows
