"""Moment-based robust treatment of estimated attack gains.

Detection pipelines deliver noisy per-area estimates of the dynamic attack
gain.  Keeping only the first two moments and guarding against every
distribution consistent with them turns the chance constraint at confidence
eta into a deterministic gain replacement:

    robust_gain = mean + sqrt(eta / (1 - eta)) * std.

Physics caps any realizable gain at the compromised-load budget, so robust
gains are optionally clamped to the worst-case (budget-saturating) value.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InsufficientDataError
from .grid import SystemModel

__all__ = [
    "AttackEstimate",
    "k_eta",
    "moments_from_samples",
    "robust_gain",
    "worst_case_gain",
    "apply_budget_clamp",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class AttackEstimate:
    """Per-area mean/std of the estimated dynamic attack gain (p.u./Hz).

    Areas are independent; no cross-covariance is modeled. std = 0 encodes
    a perfectly known gain.
    """

    mean: np.ndarray
    std: np.ndarray
    sample_count: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        std = np.asarray(self.std, dtype=float)
        count = np.asarray(self.sample_count, dtype=int)
        if mean.shape != std.shape or mean.shape != count.shape:
            raise ContractError("mean, std and sample_count must share a shape")
        if (std < 0.0).any():
            raise ContractError("std must be >= 0")
        for arr in (mean, std, count):
            arr.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)
        object.__setattr__(self, "sample_count", count)


def k_eta(eta: float) -> float:
    """Safety multiplier sqrt(eta / (1 - eta)) of the two-moment ambiguity set."""
    if not (0.0 < eta < 1.0):
        raise ContractError(f"eta must lie in the open interval (0, 1), got {eta}")
    return math.sqrt(eta / (1.0 - eta))


def moments_from_samples(samples, n_areas: int) -> AttackEstimate:
    """Sample mean and (n-1)-denominator standard deviation per area.

    samples maps area index -> sequence of gain estimates; every listed
    area needs at least two samples.  Areas without samples get zeros.
    """
    mean = np.zeros(n_areas)
    std = np.zeros(n_areas)
    count = np.zeros(n_areas, dtype=int)
    for area, values in samples.items():
        area = int(area)
        if not 0 <= area < n_areas:
            raise ContractError(f"sample area {area} out of range")
        arr = np.asarray(list(values), dtype=float)
        if arr.size < 2:
            raise InsufficientDataError(
                f"area {area}: need at least 2 samples to form moments, got {arr.size}"
            )
        mean[area] = arr.mean()
        std[area] = arr.std(ddof=1)
        count[area] = arr.size
    return AttackEstimate(mean, std, count)


def robust_gain(est: AttackEstimate, eta: float) -> np.ndarray:
    """Deterministic gain covering the ambiguity set at confidence eta (k_eta checks it)."""
    return est.mean + k_eta(eta) * est.std


def worst_case_gain(model: SystemModel, attack_areas, static_component=None) -> np.ndarray:
    """Budget-saturating gain (vulnerable_load - static)/(2*omega_max) per area.

    This is the gain of an attacker who controls the entire vulnerable load;
    areas outside attack_areas get zero.
    """
    static = np.zeros(model.areas) if static_component is None else np.asarray(static_component, dtype=float)
    out = np.zeros(model.areas)
    for n in attack_areas:
        n = int(n)
        out[n] = max(0.0, (model.vulnerable_load[n] - static[n]) / (2.0 * model.omega_max))
    return out


def apply_budget_clamp(model: SystemModel, gains, static_component=None) -> np.ndarray:
    """Clamp every area's gain to its own physical budget, warning when active.

    attack_from_gains attacks every area with a positive gain, declared or
    not, so each area is held to the budget worst_case_gain gives it as an
    attacked area.
    """
    ceiling = worst_case_gain(model, range(model.areas), static_component)
    gains = np.asarray(gains, dtype=float).copy()
    for n in np.flatnonzero(gains > ceiling):
        log.warning(
            "robust gain %.6g in area %d exceeds the physical budget %.6g; clamping",
            gains[n], n, ceiling[n],
        )
        gains[n] = ceiling[n]
    return gains
