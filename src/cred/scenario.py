"""Scenario and detection-sample file handling.

Files carry SI units (MW, MW/Hz, MW s/Hz, MW/rad, MWh, currency/MWh) and a
base_power in MW; everything is converted to per-unit at this boundary.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dispatch import DispatchScenario, GeneratorSpec, StorageSpec
from .errors import ScenarioError
from .grid import SystemModel

__all__ = ["ScenarioBundle", "scenario_from_dict", "read_json", "load_scenario", "load_samples"]

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


#: the types of a JSON number
_PLAIN = frozenset((float, int))


def _is_number(x) -> bool:
    """Whether x is a real number other than a boolean."""
    return type(x) in _PLAIN or (isinstance(x, numbers.Real) and not isinstance(x, bool))


def _number(d: dict, key: str, where: str, default=None) -> float:
    """d[key], or default when given and key is absent, as a float; TypeError unless a number."""
    x = _get(d, key, where) if default is None else d.get(key, default)
    if type(x) not in _PLAIN and not _is_number(x):
        raise TypeError(f"{where}.{key} must be a number, got {x!r}")
    return float(x)


def _numbers(values, where: str) -> list:
    """values, unchanged; TypeError unless each is a number."""
    if not set(map(type, values)) <= _PLAIN:
        for x in values:
            if not _is_number(x):
                raise TypeError(f"{where} must hold numbers, got {x!r}")
    return values


def _index(x, where: str) -> int:
    """x as an int; TypeError unless x is an integral number (1.0 reads as 1)."""
    if type(x) is not int and not (_is_number(x) and float(x).is_integer()):
        raise TypeError(f"{where} must be an integral number, got {x!r}")
    return int(x)


def _flags(values, where: str) -> tuple:
    """values as a tuple; TypeError unless each is 0, 1, true or false."""
    flags = tuple(values)
    if not (set(map(type, flags)) <= _PLAIN | {bool} and set(flags) <= {0, 1}):
        raise TypeError(f"{where} must hold only 0, 1, true or false, got {list(flags)!r}")
    return flags


def scenario_from_dict(raw: dict) -> ScenarioBundle:
    """Build a scenario bundle from a parsed JSON document.

    Raises ScenarioError for a malformed document: a missing key, a record
    that is not a JSON object, a value that is not a number (a boolean or
    a numeric string is not) or is too large for a float, an area index
    that is not integral, or a commitment other than 0, 1, true or false;
    and for values the physical or dispatch model rejects ("invalid
    dispatch section: ..." for a generator's p_min above its p_max, say).
    """
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a JSON object")
    try:
        return _bundle(raw)
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def _bundle(raw: dict) -> ScenarioBundle:
    base = _number(raw, "base_power", "scenario", 1000.0)
    if not 0.0 < base < np.inf:
        raise ScenarioError(f"base_power must be positive and finite, got {base!r}")
    areas = _get(raw, "areas", "scenario")
    if not isinstance(areas, list) or not areas:
        raise ScenarioError("areas must be a non-empty list")
    n = len(areas)
    cols = {f: [] for f in _AREA_FIELDS}
    for k, area in enumerate(areas):
        where = f"areas[{k}]"
        for f in _AREA_FIELDS:
            cols[f].append(_number(area, f, where) / base)
    coupling = np.asarray([_numbers(row, "coupling") for row in _get(raw, "coupling", "scenario")],
                          dtype=float) / base
    omega_max = _number(raw, "omega_max", "scenario")

    try:
        model = SystemModel(areas=n, susceptance=coupling, omega_max=omega_max, **cols)
    except Exception as exc:
        raise ScenarioError(f"invalid physical model: {exc}") from exc

    attack = raw.get("attack", {})
    attack_areas = tuple(sorted(_index(a, "attack area") for a in attack.get("areas", ())))
    for a in attack_areas:
        if not 0 <= a < n:
            raise ScenarioError(f"attack area {a} out of range")
    static = np.asarray(_numbers(attack.get("static", [0.0] * n), "attack static"),
                        dtype=float) / base
    if static.shape != (n,):
        raise ScenarioError(f"attack static must list {n} values")
    if not np.isfinite(static).all():
        raise ScenarioError("attack static must be finite")

    dispatch = None
    if "dispatch" in raw:
        d = raw["dispatch"]
        periods = _get(d, "periods", "dispatch")
        if not periods:
            raise ScenarioError("dispatch.periods must be non-empty")
        demand = np.asarray([_numbers(_get(p, "demand", "period"), "demand") for p in periods],
                            dtype=float) / base
        wind = np.asarray(
            [_numbers(p.get("wind_available", [0.0] * n), "wind_available") for p in periods],
            dtype=float,
        ) / base
        gens = []  # keyword arguments; the specs check their values below
        for k, g in enumerate(_get(d, "generators", "dispatch")):
            where = f"generators[{k}]"
            gens.append(dict(
                area=_index(_get(g, "area", where), f"{where}.area"),
                marginal_cost=_number(g, "marginal_cost", where),
                p_min=_number(g, "p_min", where) / base,
                p_max=_number(g, "p_max", where) / base,
                committed=_flags(g.get("committed", [1] * len(periods)), f"{where}.committed"),
            ))
        storage = []
        for k, s in enumerate(d.get("storage", ())):
            where = f"storage[{k}]"
            storage.append(dict(
                area=_index(_get(s, "area", where), f"{where}.area"),
                soc_min=_number(s, "soc_min", where),
                soc_max=_number(s, "soc_max", where),
                efficiency=_number(s, "efficiency", where),
                power_limit=_number(s, "power_limit", where) / base,
                energy=_number(s, "energy", where) / base,
                soc_initial=_number(s, "soc_initial", where, 0.5),
            ))
        try:
            dispatch = DispatchScenario(
                model=model,
                demand=demand,
                wind_available=wind,
                generators=tuple(GeneratorSpec(**g) for g in gens),
                shed_cost=_number(d, "shed_cost", "dispatch", 300.0),
                base_power=base,
                min_online_fraction=_number(d, "min_online_fraction", "dispatch", 0.0),
                storage=tuple(StorageSpec(**s) for s in storage),
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


def read_json(path, kind: str):
    """The JSON document in the file at path; kind ("scenario", "samples") names the file.

    Raises ScenarioError when the file is missing, cannot be read (a
    directory, say, or bytes that are not UTF-8) or is not valid JSON.
    """
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ScenarioError(f"{kind} file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{kind} file {path} cannot be read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{kind} file {path} is not valid JSON: {exc}") from exc


def load_scenario(path) -> ScenarioBundle:
    return scenario_from_dict(read_json(path, "scenario"))


def load_samples(path, base_power: float) -> dict:
    """Read detection samples: a list of {"area": n, "samples": [MW/Hz, ...]}.

    Raises ScenarioError when the file holds no records, or unless each
    area is an integral number and each sample a finite number (a boolean
    or a numeric string is not; JSON's NaN and Infinity are not finite).
    """
    path = Path(path)
    raw = read_json(path, "samples")
    out = {}
    try:
        for rec in [raw] if isinstance(raw, dict) else raw:
            area = _index(_get(rec, "area", "sample record"), "sample area")
            values = [float(x) / base_power
                      for x in _numbers(_get(rec, "samples", "sample record"), "sample")]
            if not np.isfinite(values).all():
                raise ScenarioError(f"samples file {path} holds a non-finite sample in area {area}")
            out.setdefault(area, []).extend(values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"samples file {path} is malformed: {exc}") from exc
    if not out:
        raise ScenarioError(f"samples file {path} holds no records")
    return out
