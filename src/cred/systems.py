"""Canonical study systems, expressed as scenario documents (SI units).

The single-area toy is small enough to solve by hand and anchors most unit
tests.  The three-area system is the desk-scale study case: wind and the
attack both live in area 2 (index 1), demand hovers around 10-11 GW, and
the synchronous fleet is sized so that stability-driven wind deloading
starts eating into reserve capacity once the vulnerable-load share grows
past roughly a third.  The no-wind variant carries the heavier governor
response of a fully committed synchronous fleet, which is what an upstream
unit commitment would schedule absent wind.
"""

from __future__ import annotations

import copy

import numpy as np

__all__ = [
    "single_area_toy",
    "three_area_system",
    "three_area_no_wind",
    "three_area_with_storage",
    "three_area_storage_day",
    "synthesize_samples",
    "TABLE_GAIN_CASES",
]

#: study-case estimation moments (p.u. on 1 GW): true gain, mean, std
TABLE_GAIN_CASES = {
    "base": {"true": 22.31, "mean": 22.31, "std": 0.0},
    "case1": {"true": 16.96, "mean": 17.59, "std": 0.48},
    "case2": {"true": 13.50, "mean": 13.19, "std": 0.36},
    "case3": {"true": 9.11, "mean": 8.80, "std": 0.24},
}


def single_area_toy() -> dict:
    """One area in MW units: M=1, stiffness 5, damping 2, budget gain 3."""
    return {
        "base_power": 1.0,
        "omega_max": 0.5,
        "areas": [
            {
                "name": "A1",
                "inertia_sg": 1.0,
                "inertia_ibr": 0.0,
                "damping": 0.0,
                "gov_integral": 5.0,
                "gov_proportional": 2.0,
                "secure_load": 7.0,
                "vulnerable_load": 3.0,
                "ibr_max_power": 4.0,
            }
        ],
        "coupling": [[0.0]],
        "attack": {"areas": [0], "static": [0.0]},
        "dispatch": {
            "periods": [{"demand": [10.0], "wind_available": [4.0]}],
            "generators": [
                {"area": 0, "marginal_cost": 10.0, "p_min": 0.0, "p_max": 12.0, "committed": [1]}
            ],
            "shed_cost": 1000.0,
            "min_online_fraction": 0.0,
        },
    }


def three_area_system(wind_capacity_mw: float = 5000.0, vulnerable_fraction: float = 0.30) -> dict:
    """Three coupled areas, wind and attack in area 2 (index 1).

    The committed synchronous fleet is sized to cover the peak residual
    demand (demand net of available wind) plus a 600 MW reserve band, the
    way an upstream scheduler would commit it; its split across areas is
    fixed.  Governor gains are held at their mid-wind values.
    """
    demand = [
        [3600.0, 4800.0, 1600.0],
        [3800.0, 5000.0, 1700.0],
        [4000.0, 5200.0, 1800.0],
        [3700.0, 5000.0, 1650.0],
    ]
    wind_profile = [0.76, 0.80, 0.84, 0.80]
    mean_demand = [float(np.mean([row[a] for row in demand])) for a in range(3)]
    vulnerable = vulnerable_fraction * mean_demand[1]
    peak_residual = max(
        sum(row) - wind_capacity_mw * f for row, f in zip(demand, wind_profile)
    )
    fleet_total = peak_residual + 600.0
    fleet = [round(fleet_total * share) for share in (20 / 37, 10 / 37, 7 / 37)]
    return {
        "base_power": 1000.0,
        "omega_max": 0.03,
        "areas": [
            {
                "name": "A1",
                "inertia_sg": 8000.0,
                "inertia_ibr": 0.0,
                "damping": 0.005 * mean_demand[0],
                "gov_integral": 10000.0,
                "gov_proportional": 16000.0,
                "secure_load": mean_demand[0],
                "vulnerable_load": 0.0,
                "ibr_max_power": 0.0,
            },
            {
                "name": "A2",
                "inertia_sg": 6000.0,
                "inertia_ibr": 0.0,
                "damping": 0.005 * mean_demand[1],
                "gov_integral": 8000.0,
                "gov_proportional": 8000.0,
                "secure_load": mean_demand[1] - vulnerable,
                "vulnerable_load": vulnerable,
                "ibr_max_power": wind_capacity_mw,
            },
            {
                "name": "A3",
                "inertia_sg": 7000.0,
                "inertia_ibr": 0.0,
                "damping": 0.005 * mean_demand[2],
                "gov_integral": 9000.0,
                "gov_proportional": 12000.0,
                "secure_load": mean_demand[2],
                "vulnerable_load": 0.0,
                "ibr_max_power": 0.0,
            },
        ],
        "coupling": [
            [0.0, 4000.0, 2000.0],
            [4000.0, 0.0, 3000.0],
            [2000.0, 3000.0, 0.0],
        ],
        "attack": {"areas": [1], "static": [0.0, 0.0, 0.0]},
        "dispatch": {
            "periods": [
                {
                    "demand": row,
                    "wind_available": [0.0, wind_capacity_mw * f, 0.0],
                }
                for row, f in zip(demand, wind_profile)
            ],
            "generators": [
                {"area": 0, "marginal_cost": 28.0, "p_min": 400.0, "p_max": fleet[0],
                 "committed": [1, 1, 1, 1]},
                {"area": 1, "marginal_cost": 45.0, "p_min": 200.0, "p_max": fleet[1],
                 "committed": [1, 1, 1, 1]},
                {"area": 2, "marginal_cost": 60.0, "p_min": 150.0, "p_max": fleet[2],
                 "committed": [1, 1, 1, 1]},
            ],
            "shed_cost": 300.0,
            "min_online_fraction": 0.2,
        },
    }


def three_area_no_wind(vulnerable_fraction: float = 0.30) -> dict:
    """No-wind variant: a fully committed synchronous fleet covers demand.

    The larger area-2 governor gain reflects the extra units an upstream
    scheduler keeps online when no wind is available.
    """
    doc = three_area_system(wind_capacity_mw=0.0, vulnerable_fraction=vulnerable_fraction)
    doc["areas"][1]["gov_proportional"] = 48000.0
    for p in doc["dispatch"]["periods"]:
        p["wind_available"] = [0.0, 0.0, 0.0]
    return doc


def three_area_with_storage() -> dict:
    """Mid-wind system plus an area-2 battery."""
    doc = three_area_system()
    doc["dispatch"]["storage"] = [
        {
            "area": 1,
            "soc_min": 0.2,
            "soc_max": 0.8,
            "efficiency": 0.9,
            "power_limit": 5000.0,
            "energy": 15000.0,
            "soc_initial": 0.5,
        }
    ]
    return copy.deepcopy(doc)


def three_area_storage_day() -> dict:
    """Storage variant over a day: the four desk periods repeated six times (T=24)."""
    doc = three_area_with_storage()
    dispatch = doc["dispatch"]
    dispatch["periods"] = [copy.deepcopy(p) for _ in range(6) for p in dispatch["periods"]]
    for gen in dispatch["generators"]:
        gen["committed"] = gen["committed"] * 6
    return doc


def synthesize_samples(mean_mw_per_hz: float, std_mw_per_hz: float, area: int,
                       count: int = 1000, seed: int = 0) -> list:
    """Detection-sample records drawn around the given moments."""
    rng = np.random.RandomState(seed)
    draws = rng.normal(mean_mw_per_hz, std_mw_per_hz, size=count) if std_mw_per_hz > 0 \
        else np.full(count, mean_mw_per_hz)
    return [{"area": int(area), "samples": [float(x) for x in draws]}]
