"""Seeded input streams for the four benchmark workloads.

Every workload turns a seed into a fixed pool of operations.  Continuous
parameters come from randomly shifted lattices: evenly spread points moved
together by one uniform shift, in one dimension (``lattice``, put in a
seeded random order) or in several at once (``korobov``).  Each point is
still a uniform draw from the stated ranges, but the pool as a whole covers
them evenly, so the mix of branches and op costs is nearly the same on
every seed and a run's quantiles move with the program rather than with the
luck of the draw.  On the desk stream the pool is also stratified by
detection outcome and by mode in their stated proportions.

The program only ever sees the generated scenario documents (SI units, the
format of ``cred.scenario``) and detection-sample files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from cred.grid import AttackProfile, DroopSchedule, build_state_space
from cred.scenario import scenario_from_dict
from cred.simulate import DIVERGENCE_NORM
from cred.systems import three_area_system

#: the detection threshold every operation runs with
DETECTION_THRESHOLD = 0.1

#: the confidence level every robust-mode operation runs with
ETA = 0.95

#: operations per pass over each workload's pool
POOL_SIZES = {
    "desk_redispatch": 200,
    "storage_horizon": 5,
    "ring_tables": 48,
    "step_response": 100,
}

#: one line per workload: where its inputs come from
DISTRIBUTIONS = {
    "desk_redispatch": (
        "three-area desk; vulnerable fraction U(0.1,0.5), wind capacity U(4000,8000) MW, "
        "detection score U(0,1) vs threshold 0.1, mode worst_case 1/7, robust 3/7, mean 3/7; "
        "sample files: 200 draws, mean U(0.35,0.85) x budget gain, std U(0.01,0.04) x mean"
    ),
    "storage_horizon": (
        "desk + area-2 battery, T=4 monolithic; demand scale U(0.95,1.05), "
        "initial SoC U(0.3,0.7), vulnerable fraction U(0.2,0.3), worst case"
    ),
    "ring_tables": (
        "fixed ring of 24 areas with desk-like parameters (ring_scenario, generator seed 24); "
        "every area attacked twice, vulnerable fraction U(0.25,0.35) once and U(0.35,0.45) once, "
        "wind capacity U(0.8,1.2) x area demand, one period, worst case"
    ),
    "step_response": (
        "desk (1/2) or 24-area ring (1/2) closed loop; attack gain U(0.2,1.0) x budget, "
        "droop U(0,1) x attack gain, 1% load step at t=1 s, t_end=60 s, dt=min(0.02, 1/(12 max|lambda|)); "
        "a loop whose response does not ring (rings_down) is redrawn"
    ),
}

#: desk modes, one pool share each: worst case once, robust and mean three
#: times each, as scripts/run_attack_study.py runs them (the base case, then
#: cases 1-3 of TABLE_GAIN_CASES in both modes)
MODES = ("worst_case",) + ("auto",) * 3 + ("mean_only",) * 3


def lattice(rng: np.random.RandomState, k: int) -> np.ndarray:
    """k draws from U(0,1): the points (j + u)/k for one uniform u, in random order."""
    return (rng.permutation(k) + rng.uniform()) / k


def korobov(rng: np.random.RandomState, k: int, d: int) -> np.ndarray:
    """k points of [0,1)^d spread evenly in every dimension and in all together.

    A rank-1 lattice, point j = j (1, a, a^2, ...) / k mod 1, with the
    generator a that keeps the points farthest apart, moved by one uniform
    shift per dimension.  Each point is a uniform draw from the cube, and
    each coordinate alone is a shifted lattice like ``lattice``'s.
    """
    shift = rng.uniform(size=d)
    if k == 1:
        return shift[None, :]
    j = np.arange(1, k)
    best, best_gen = -1.0, None
    for a in range(1, k):
        gen = np.array([pow(a, i, k) for i in range(d)])
        if any(math.gcd(int(g), k) != 1 for g in gen):
            continue
        # the nearest neighbour of a lattice point is as near as that of 0
        frac = (np.outer(j, gen) % k) / k
        gap = (np.minimum(frac, 1.0 - frac) ** 2).sum(axis=1).min()
        if gap > best:
            best, best_gen = gap, gen
    return (shift + np.outer(np.arange(k), best_gen) / k) % 1.0


def _lerp(u, lo, hi):
    return lo + (hi - lo) * u


@dataclass(frozen=True)
class WorkflowInput:
    """One run_workflow operation: a scenario document plus its run settings."""

    doc: dict
    mode: str
    detection_score: float
    samples: list | None = None


@dataclass(frozen=True)
class StepInput:
    """One simulate + classify operation on a seeded closed loop."""

    doc: dict
    attack_gain: np.ndarray  # p.u./Hz per area
    droop_gain: np.ndarray  # p.u./Hz per area
    step: np.ndarray  # p.u. load step per area


# --- desk ------------------------------------------------------------------

def _budget_gain_mw(doc: dict, area: int) -> float:
    """Budget-saturating attack gain of one area, MW/Hz."""
    a = doc["areas"][area]
    return a["vulnerable_load"] / (2.0 * doc["omega_max"])


def desk_redispatch(seed: int, k: int) -> list:
    rng = np.random.RandomState(seed)
    quiet = round(k * DETECTION_THRESHOLD)
    out = []
    # strata: detection below / above the threshold, then mode, each in its
    # stated share; every stratum gets its own lattices
    for below, size in ((True, quiet), (False, k - quiet)):
        lo, hi = (0.0, DETECTION_THRESHOLD) if below else (DETECTION_THRESHOLD, 1.0)
        score = _lerp(lattice(rng, size), lo, hi)
        modes = [MODES[j * len(MODES) // size] for j in range(size)]
        for mode in sorted(set(modes)):
            members = [j for j in range(size) if modes[j] == mode]
            u = korobov(rng, len(members), 4)
            vf = _lerp(u[:, 0], 0.1, 0.5)
            wind = _lerp(u[:, 1], 4000.0, 8000.0)
            # sample moments bracket TABLE_GAIN_CASES cases 1-3: means 0.39-0.79
            # of the base case's gain, standard deviation 0.027 x mean
            mean_frac = _lerp(u[:, 2], 0.35, 0.85)
            std_frac = _lerp(u[:, 3], 0.01, 0.04)
            for i, j in enumerate(members):
                doc = three_area_system(float(wind[i]), float(vf[i]))
                samples = None
                if mode != "worst_case":
                    mean = mean_frac[i] * _budget_gain_mw(doc, 1)
                    draws = rng.normal(mean, std_frac[i] * mean, size=200)
                    samples = [{"area": 1, "samples": [float(x) for x in draws]}]
                out.append(WorkflowInput(doc, mode, float(score[j]), samples))
    return [out[j] for j in rng.permutation(k)]


def storage_horizon(seed: int, k: int) -> list:
    rng = np.random.RandomState(seed)
    u = korobov(rng, k, 3)
    scale = _lerp(u[:, 0], 0.95, 1.05)
    soc = _lerp(u[:, 1], 0.3, 0.7)
    vf = _lerp(u[:, 2], 0.2, 0.3)
    out = []
    for j in range(k):
        doc = three_area_system(5000.0, float(vf[j]))
        for p in doc["dispatch"]["periods"]:
            p["demand"] = [float(d * scale[j]) for d in p["demand"]]
        doc["dispatch"]["storage"] = [{
            "area": 1, "soc_min": 0.2, "soc_max": 0.8, "efficiency": 0.9,
            "power_limit": 5000.0, "energy": 15000.0, "soc_initial": float(soc[j]),
        }]
        out.append(WorkflowInput(doc, "worst_case", 1.0))
    return out


# --- ring ------------------------------------------------------------------

RING_AREAS = 24

#: generator seed of the ring_tables system, fixed so that seeds vary only the attack
RING_SEED = 24


def ring_scenario(rng: np.random.RandomState, attacked: int, vf: float, wind_factor: float,
                  n: int = RING_AREAS) -> dict:
    """A ring of n desk-like areas; the attacked area carries wind.

    Drawn from rng per area: demand U(1500,5000) MW, inertia U(5000,9000)
    MW s/Hz, governor integral U(8000,11000) and proportional U(8000,16000)
    MW/Hz, ring ties U(2000,4000) MW/rad, marginal cost U(25,60); load
    damping is 0.5% of demand.  The attacked area gets wind capacity
    wind_factor x demand (available at 80%) and the vulnerable share vf of
    its demand.  The synchronous fleet covers peak residual demand plus 10%,
    split in proportion to area demand.
    """
    demand = rng.uniform(1500.0, 5000.0, n)
    inertia = rng.uniform(5000.0, 9000.0, n)
    gov_i = rng.uniform(8000.0, 11000.0, n)
    gov_p = rng.uniform(8000.0, 16000.0, n)
    ties = rng.uniform(2000.0, 4000.0, n)
    cost = rng.uniform(25.0, 60.0, n)
    attacked = [int(attacked)]
    wind_cap = wind_factor * demand[attacked]

    coupling = np.zeros((n, n))
    for a in range(n):
        b = (a + 1) % n
        coupling[a, b] = coupling[b, a] = ties[a]
    wind_cap_full = np.zeros(n)
    wind_cap_full[attacked] = wind_cap
    vulnerable = np.zeros(n)
    vulnerable[attacked] = vf * demand[attacked]
    wind_avail = 0.8 * wind_cap_full
    fleet = 1.1 * (demand.sum() - wind_avail.sum()) * demand / demand.sum()
    return {
        "base_power": 1000.0,
        "omega_max": 0.03,
        "areas": [
            {
                "name": f"R{a}",
                "inertia_sg": float(inertia[a]),
                "inertia_ibr": 0.0,
                "damping": float(0.005 * demand[a]),
                "gov_integral": float(gov_i[a]),
                "gov_proportional": float(gov_p[a]),
                "secure_load": float(demand[a] - vulnerable[a]),
                "vulnerable_load": float(vulnerable[a]),
                "ibr_max_power": float(wind_cap_full[a]),
            }
            for a in range(n)
        ],
        "coupling": coupling.tolist(),
        "attack": {"areas": attacked, "static": [0.0] * n},
        "dispatch": {
            "periods": [{"demand": demand.tolist(), "wind_available": wind_avail.tolist()}],
            "generators": [
                {"area": a, "marginal_cost": float(cost[a]), "p_min": float(0.1 * fleet[a]),
                 "p_max": float(fleet[a]), "committed": [1]}
                for a in range(n)
            ],
            "shed_cost": 300.0,
            "min_online_fraction": 0.2,
        },
    }


def ring_tables(seed: int, k: int) -> list:
    # one fixed ring; the seed picks the attack: every area is attacked
    # equally often, once in each half of the vulnerable-fraction range
    rng = np.random.RandomState(seed)
    areas = np.repeat(np.arange(RING_AREAS), k // RING_AREAS)
    half = np.arange(k) % 2
    vf = _lerp((half + lattice(rng, k)) / 2, 0.25, 0.45)
    wind = _lerp(lattice(rng, k), 0.8, 1.2)
    pool = [
        WorkflowInput(ring_scenario(np.random.RandomState(RING_SEED), a, float(v), float(w)),
                      "worst_case", 1.0)
        for a, v, w in zip(areas, vf, wind)
    ]
    return [pool[j] for j in rng.permutation(k)]


# --- step response -----------------------------------------------------------

#: seconds after the step that classify_trajectory sees (t_end 60 s, step at 1 s)
STEP_WINDOW_S = 59.0

#: sampling step of rings_down's independent propagation, seconds
RING_DT = 0.02

#: columns rings_down steps one by one before it jumps a block at a time
RING_BLOCK = 50

#: the classifier's peak floor, as a share of the largest swing (cred.simulate)
PEAK_FLOOR = 1e-9

#: peaks rings_down asks for: two more than the four the classifier needs
MIN_PEAKS = 6

#: redraws allowed per step-response input before the generator gives up
MAX_REDRAWS = 20


def closed_loop(model, attack_gain: np.ndarray, droop_gain: np.ndarray):
    """State space of a step-response loop: attack and droop gains, no wind."""
    n = model.areas
    areas = tuple(int(a) for a in np.flatnonzero(attack_gain > 0))
    return build_state_space(model, AttackProfile(attack_gain, np.zeros(n), areas),
                             DroopSchedule(droop_gain, np.zeros(n)))


def propagator(a: np.ndarray, dt: float) -> np.ndarray:
    """exp(a dt): a degree-12 Taylor sum of a scaled to norm 1/4, then squared back.

    Written out because scipy.linalg.expm runs 60 times slower on a
    48-state loop under a two-thread BLAS than under one.
    """
    norm = np.abs(a).sum(axis=0).max() * dt
    halvings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.0 else 0
    m = a * (dt / 2.0**halvings)
    term = prop = np.eye(len(a))
    for k in range(1, 13):
        term = term @ m / k
        prop = prop + term
    for _ in range(halvings):
        prop = prop @ prop
    return prop


def rings_down(ss, step: np.ndarray) -> bool:
    """Whether classify_trajectory can label this loop's step response.

    The classifier fits the peaks of the frequency swing and raises
    ClassificationError when fewer than four lie above PEAK_FLOOR of the
    largest, as on a loop that settles after one swing.  This propagates
    the response independently (exact matrix exponential, RING_DT steps
    over STEP_WINDOW_S) and accepts the loop if its state leaves
    100 x DIVERGENCE_NORM (the simulator then labels it growing without a
    fit) or if every area swinging at least half as far as the largest
    shows MIN_PEAKS peaks above the floor.
    """
    a = ss.state_matrix
    n = ss.n_areas
    kick = np.concatenate([np.zeros(n), -step / -np.diag(ss.descriptor_a)[n:]])
    settled = np.linalg.solve(a, -(ss.forcing + kick))
    # the deviation from the post-step equilibrium, one column per RING_DT:
    # the first RING_BLOCK columns step by step, then whole blocks at once
    steps = int(round(STEP_WINDOW_S / RING_DT)) + 1
    prop = propagator(a, RING_DT)
    blocks = [np.empty((2 * n, RING_BLOCK))]
    blocks[0][:, 0] = np.linalg.solve(a, kick)  # pre-step equilibrium minus post-step
    for k in range(1, RING_BLOCK):
        blocks[0][:, k] = prop @ blocks[0][:, k - 1]
    jump = np.linalg.matrix_power(prop, RING_BLOCK)
    with np.errstate(over="ignore", invalid="ignore"):
        while len(blocks) * RING_BLOCK < steps:
            blocks.append(jump @ blocks[-1])
        dev = np.hstack(blocks)[:, :steps]
        if (np.abs(settled[:, None] + dev) > 100.0 * DIVERGENCE_NORM).any():
            return True
    swing = np.abs(dev[n:]).T
    largest = swing.max(axis=0)
    for area in np.flatnonzero(largest >= 0.5 * largest.max()):
        s = swing[:, area]
        inner = s[1:-1]
        peaks = (inner > s[:-2]) & (inner >= s[2:]) & (inner > PEAK_FLOOR * s.max())
        if peaks.sum() < MIN_PEAKS:
            return False
    return True


def step_response(seed: int, k: int) -> list:
    rng = np.random.RandomState(seed)
    kind = lattice(rng, k)
    attack_frac = _lerp(lattice(rng, k), 0.2, 1.0)
    droop_frac = lattice(rng, k)
    out = []
    for j in range(k):
        # the system is redrawn, the lattice's gains kept, until the loop rings
        for _ in range(MAX_REDRAWS):
            if kind[j] < 0.5:
                doc = three_area_system(5000.0, float(rng.uniform(0.1, 0.5)))
            else:
                doc = ring_scenario(rng, rng.randint(RING_AREAS), rng.uniform(0.25, 0.45),
                                    rng.uniform(0.8, 1.2))
            n = len(doc["areas"])
            base = doc["base_power"]
            attack = np.zeros(n)
            for a in doc["attack"]["areas"]:
                attack[a] = attack_frac[j] * _budget_gain_mw(doc, a) / base
            step = np.zeros(n)
            a0 = doc["attack"]["areas"][0]
            step[a0] = 0.01 * (doc["areas"][a0]["secure_load"]
                               + doc["areas"][a0]["vulnerable_load"]) / base
            droop = droop_frac[j] * attack
            if rings_down(closed_loop(scenario_from_dict(doc).model, attack, droop), step):
                break
        else:
            raise RuntimeError(f"step_response seed {seed}: input {j} never rings")
        out.append(StepInput(doc, attack, droop, step))
    return out


GENERATORS = {
    "desk_redispatch": desk_redispatch,
    "storage_horizon": storage_horizon,
    "ring_tables": ring_tables,
    "step_response": step_response,
}


def generate(workload: str, seed: int) -> list:
    """The workload's pool of operations for this seed."""
    return GENERATORS[workload](seed, POOL_SIZES[workload])


def write_samples(inputs: list, directory: Path) -> list:
    """Write each input's sample records to a file; None where it has none."""
    paths = []
    for j, item in enumerate(inputs):
        if getattr(item, "samples", None) is None:
            paths.append(None)
            continue
        path = directory / f"samples_{j:03d}.json"
        path.write_text(json.dumps(item.samples))
        paths.append(path)
    return paths
