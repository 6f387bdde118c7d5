"""Scenario and detection-sample file handling.

Files carry SI units (MW, MW/Hz, MW s/Hz, MW/rad, MWh, currency/MWh) and a
base_power in MW; everything is converted to per-unit at this boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dispatch import DispatchScenario, GeneratorSpec, StorageSpec
from .errors import ScenarioError
from .grid import SystemModel

__all__ = ["ScenarioBundle", "scenario_from_dict", "load_scenario", "load_samples"]

_AREA_FIELDS = (
    "inertia_sg",
    "inertia_ibr",
    "damping",
    "gov_integral",
    "gov_proportional",
    "secure_load",
    "vulnerable_load",
    "ibr_max_power",
)


@dataclass(frozen=True, eq=False)
class ScenarioBundle:
    """Loaded scenario: the physical model plus the optional dispatch layer."""

    model: SystemModel
    dispatch: DispatchScenario | None
    attack_areas: tuple
    static_attack: np.ndarray
    base_power: float

    def require_dispatch(self) -> DispatchScenario:
        if self.dispatch is None:
            raise ScenarioError("scenario file has no dispatch section")
        return self.dispatch


def _get(d: dict, key: str, where: str):
    if key not in d:
        raise ScenarioError(f"missing key {key!r} in {where}")
    return d[key]


def scenario_from_dict(raw: dict) -> ScenarioBundle:
    """Build a scenario bundle from a parsed JSON document.

    Raises ScenarioError for a malformed document: a missing key, a record
    that is not a JSON object, or a value that is not a number.
    """
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a JSON object")
    try:
        return _bundle(raw)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def _bundle(raw: dict) -> ScenarioBundle:
    base = float(raw.get("base_power", 1000.0))
    if base <= 0:
        raise ScenarioError("base_power must be positive")
    areas = _get(raw, "areas", "scenario")
    if not isinstance(areas, list) or not areas:
        raise ScenarioError("areas must be a non-empty list")
    n = len(areas)
    cols = {f: [] for f in _AREA_FIELDS}
    for k, area in enumerate(areas):
        for f in _AREA_FIELDS:
            cols[f].append(float(_get(area, f, f"areas[{k}]")) / base)
    coupling = np.asarray(_get(raw, "coupling", "scenario"), dtype=float) / base
    omega_max = float(_get(raw, "omega_max", "scenario"))

    try:
        model = SystemModel(
            areas=n,
            inertia_sg=cols["inertia_sg"],
            inertia_ibr=cols["inertia_ibr"],
            damping=cols["damping"],
            gov_integral=cols["gov_integral"],
            gov_proportional=cols["gov_proportional"],
            susceptance=coupling,
            secure_load=cols["secure_load"],
            vulnerable_load=cols["vulnerable_load"],
            ibr_max_power=cols["ibr_max_power"],
            omega_max=omega_max,
        )
    except Exception as exc:
        raise ScenarioError(f"invalid physical model: {exc}") from exc

    attack = raw.get("attack", {})
    attack_areas = tuple(sorted(int(a) for a in attack.get("areas", ())))
    for a in attack_areas:
        if not 0 <= a < n:
            raise ScenarioError(f"attack area {a} out of range")
    static = np.asarray(attack.get("static", [0.0] * n), dtype=float) / base
    if static.shape != (n,):
        raise ScenarioError(f"attack static must list {n} values")

    dispatch = None
    if "dispatch" in raw:
        d = raw["dispatch"]
        periods = _get(d, "periods", "dispatch")
        if not periods:
            raise ScenarioError("dispatch.periods must be non-empty")
        demand = np.asarray([_get(p, "demand", "period") for p in periods], dtype=float) / base
        wind = np.asarray(
            [p.get("wind_available", [0.0] * n) for p in periods], dtype=float
        ) / base
        gens = []
        for k, g in enumerate(_get(d, "generators", "dispatch")):
            gens.append(
                GeneratorSpec(
                    area=int(_get(g, "area", f"generators[{k}]")),
                    marginal_cost=float(_get(g, "marginal_cost", f"generators[{k}]")),
                    p_min=float(_get(g, "p_min", f"generators[{k}]")) / base,
                    p_max=float(_get(g, "p_max", f"generators[{k}]")) / base,
                    committed=tuple(g.get("committed", [1] * len(periods))),
                )
            )
        storage = []
        for k, s in enumerate(d.get("storage", ())):
            storage.append(
                StorageSpec(
                    area=int(_get(s, "area", f"storage[{k}]")),
                    soc_min=float(_get(s, "soc_min", f"storage[{k}]")),
                    soc_max=float(_get(s, "soc_max", f"storage[{k}]")),
                    efficiency=float(_get(s, "efficiency", f"storage[{k}]")),
                    power_limit=float(_get(s, "power_limit", f"storage[{k}]")) / base,
                    energy=float(_get(s, "energy", f"storage[{k}]")) / base,
                    soc_initial=float(s.get("soc_initial", 0.5)),
                )
            )
        try:
            dispatch = DispatchScenario(
                model=model,
                demand=demand,
                wind_available=wind,
                generators=tuple(gens),
                shed_cost=float(d.get("shed_cost", 300.0)),
                base_power=base,
                min_online_fraction=float(d.get("min_online_fraction", 0.0)),
                storage=tuple(storage),
                attack_areas=attack_areas,
                static_attack=static,
            )
        except Exception as exc:
            raise ScenarioError(f"invalid dispatch section: {exc}") from exc

    static.setflags(write=False)
    return ScenarioBundle(
        model=model,
        dispatch=dispatch,
        attack_areas=attack_areas,
        static_attack=static,
        base_power=base,
    )


def load_scenario(path) -> ScenarioBundle:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(raw)


def load_samples(path, base_power: float) -> dict:
    """Read detection samples: a list of {"area": n, "samples": [MW/Hz, ...]}."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"samples file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"samples file {path} is not valid JSON: {exc}") from exc
    out = {}
    try:
        for rec in [raw] if isinstance(raw, dict) else raw:
            area = int(_get(rec, "area", "sample record"))
            values = [float(x) / base_power for x in _get(rec, "samples", "sample record")]
            out.setdefault(area, []).extend(values)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"samples file {path} is malformed: {exc}") from exc
    return out
