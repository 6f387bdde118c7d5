"""Multi-area grid frequency dynamics under load attacks and inverter droop.

The closed loop is a descriptor system

    E xdot = B x + u,    x = [angle deviations; frequency deviations],

with E = blockdiag(I, -M), M the per-area inertia, and B carrying the
governor stiffness, the inter-area coupling in Laplacian form, and the net
damping  K_p + D - K_attack + K_droop.  All power quantities are per-unit on
a common base; frequency deviations are in Hz, so gains are p.u./Hz.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "SystemModel",
    "AttackProfile",
    "attack_from_gains",
    "DroopSchedule",
    "StateSpace",
    "build_state_space",
]


def _vector(value, n: int, name: str, min_value=None, strict_min=None) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise ConfigurationError(f"{name} must have shape ({n},), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigurationError(f"{name} contains non-finite entries")
    if min_value is not None and (arr < min_value).any():
        raise ConfigurationError(f"{name} must be >= {min_value} elementwise")
    if strict_min is not None and (arr <= strict_min).any():
        raise ConfigurationError(f"{name} must be > {strict_min} elementwise")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Per-area physical parameters of the multi-area system.

    inertia_sg/inertia_ibr: p.u.s/Hz, damping and governor gains: p.u./Hz,
    susceptance: symmetric coupling matrix with zero diagonal (p.u./rad),
    loads and IBR capacity: p.u., omega_max: largest tolerated frequency
    deviation (Hz).
    """

    areas: int
    inertia_sg: np.ndarray
    inertia_ibr: np.ndarray
    damping: np.ndarray
    gov_integral: np.ndarray
    gov_proportional: np.ndarray
    susceptance: np.ndarray
    secure_load: np.ndarray
    vulnerable_load: np.ndarray
    ibr_max_power: np.ndarray
    omega_max: float

    def __post_init__(self):
        n = int(self.areas)
        if n < 1:
            raise ConfigurationError("areas must be >= 1")
        object.__setattr__(self, "areas", n)
        set_ = object.__setattr__
        set_(self, "inertia_sg", _vector(self.inertia_sg, n, "inertia_sg", min_value=0.0))
        set_(self, "inertia_ibr", _vector(self.inertia_ibr, n, "inertia_ibr", min_value=0.0))
        if (self.inertia_sg + self.inertia_ibr <= 0.0).any():
            raise ConfigurationError("total inertia must be > 0 in every area")
        set_(self, "damping", _vector(self.damping, n, "damping", min_value=0.0))
        set_(self, "gov_integral", _vector(self.gov_integral, n, "gov_integral", strict_min=0.0))
        set_(self, "gov_proportional", _vector(self.gov_proportional, n, "gov_proportional", min_value=0.0))
        sus = np.asarray(self.susceptance, dtype=float)
        if sus.shape != (n, n):
            raise ConfigurationError(f"susceptance must be {n}x{n}")
        if not np.isfinite(sus).all() or (sus < 0.0).any():
            raise ConfigurationError("susceptance entries must be finite and >= 0")
        if not (sus == sus.T).all():
            raise ConfigurationError("susceptance must be symmetric")
        if (np.diag(sus) != 0.0).any():
            raise ConfigurationError("susceptance diagonal must be zero")
        sus = sus.copy()
        sus.setflags(write=False)
        set_(self, "susceptance", sus)
        set_(self, "secure_load", _vector(self.secure_load, n, "secure_load", min_value=0.0))
        set_(self, "vulnerable_load", _vector(self.vulnerable_load, n, "vulnerable_load", min_value=0.0))
        set_(self, "ibr_max_power", _vector(self.ibr_max_power, n, "ibr_max_power", min_value=0.0))
        if not (np.isfinite(self.omega_max) and self.omega_max > 0.0):
            raise ConfigurationError("omega_max must be a positive number")
        set_(self, "omega_max", float(self.omega_max))

    @property
    def total_inertia(self) -> np.ndarray:
        return self.inertia_sg + self.inertia_ibr

    def coupling_laplacian(self) -> np.ndarray:
        """Network matrix in Laplacian form: row sums on the diagonal."""
        return np.diag(self.susceptance.sum(axis=1)) - self.susceptance


@dataclass(frozen=True, eq=False)
class AttackProfile:
    """Dynamic gain (p.u./Hz) and static step (p.u.) of a load-altering attack.

    The compromised-load budget on the dynamic gain is *not* enforced here;
    :func:`cred.uncertainty.worst_case_gain` computes it.
    """

    dyn_gain: np.ndarray
    static_component: np.ndarray
    attack_areas: tuple

    def __post_init__(self):
        n = len(np.atleast_1d(np.asarray(self.dyn_gain, dtype=float)))
        set_ = object.__setattr__
        set_(self, "dyn_gain", _vector(self.dyn_gain, n, "dyn_gain", min_value=0.0))
        set_(self, "static_component", _vector(self.static_component, n, "static_component"))
        areas = tuple(sorted(int(a) for a in self.attack_areas))
        if any(a < 0 or a >= n for a in areas):
            raise ConfigurationError("attack_areas out of range")
        set_(self, "attack_areas", areas)
        outside = np.ones(n, dtype=bool)
        for a in areas:
            outside[a] = False
        if (self.dyn_gain[outside] != 0.0).any() or (self.static_component[outside] != 0.0).any():
            raise ConfigurationError("attack gains must be zero outside attack_areas")

    @classmethod
    @cache
    def none(cls, n: int) -> "AttackProfile":
        """No attack on n areas; one shared, immutable profile per n."""
        return cls(np.zeros(n), np.zeros(n), ())


def attack_from_gains(gains, static, attack_areas) -> AttackProfile:
    """The attack of these gains and static steps on attack_areas and on every other area
    with a positive gain or a nonzero static step."""
    gains, static = np.asarray(gains, dtype=float), np.asarray(static, dtype=float)
    active = set(np.flatnonzero(gains > 0).tolist()) | set(np.flatnonzero(static != 0.0).tolist())
    return AttackProfile(gains, static, tuple(sorted(active | set(attack_areas))))


@dataclass(frozen=True, eq=False)
class DroopSchedule:
    """Per-area IBR droop gain (p.u./Hz) and active-power reference (p.u.)."""

    droop_gain: np.ndarray
    power_ref: np.ndarray

    def __post_init__(self):
        n = len(np.atleast_1d(np.asarray(self.droop_gain, dtype=float)))
        set_ = object.__setattr__
        set_(self, "droop_gain", _vector(self.droop_gain, n, "droop_gain", min_value=0.0))
        set_(self, "power_ref", _vector(self.power_ref, n, "power_ref", min_value=0.0))

    @classmethod
    @cache
    def none(cls, n: int) -> "DroopSchedule":
        """No droop and no power reference on n areas; one shared, immutable schedule per n."""
        return cls(np.zeros(n), np.zeros(n))


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Assembled closed-loop matrices.

    descriptor_a is E = blockdiag(I, -M); state_matrix S = E^-1 B, with B
    the feedback matrix of the module docstring; forcing the constant term
    of xdot = S x + f.
    """

    descriptor_a: np.ndarray
    state_matrix: np.ndarray
    forcing: np.ndarray

    @property
    def n_areas(self) -> int:
        return self.state_matrix.shape[0] // 2


class ContentKey:
    """A cache argument that carries value and equals another by the bytes of parts.

    parts are arrays, compared by their bytes, and plain hashables.  An
    lru_cache keyed on it shares its work between equal contents and keeps
    value alive, so value holds arrays, never a model.
    """

    __slots__ = ("value", "key")

    def __init__(self, value, *parts):
        self.value = value
        self.key = tuple(p.tobytes() if isinstance(p, np.ndarray) else p for p in parts)

    def __eq__(self, other):
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)


@lru_cache(maxsize=4)
def _loop_blocks(dynamics: ContentKey) -> tuple:
    """(1/M, K_p + D, E, S0) of dynamics.value = (M, K_p + D, K_I, susceptance).

    S0 is the state matrix with its damping block left zero: the identity
    block and -M^-1 (diag(K_I) + Laplacian) placed.  Every loop of a grid
    shares them, and the blocks of the last few grids are kept by their
    bytes, so a re-parsed model with the same dynamics builds none.
    """
    m_total, base_damp, gov_integral, sus = dynamics.value  # SystemModel: m_total > 0
    n = len(m_total)
    minv = 1.0 / m_total
    eye = np.eye(n)
    descriptor = np.zeros((2 * n, 2 * n))
    descriptor[:n, :n] = eye
    descriptor[n:, n:] = -np.diag(m_total)
    template = np.zeros((2 * n, 2 * n))
    template[:n, n:] = eye
    template[n:, :n] = -minv[:, None] * (np.diag(gov_integral) + (np.diag(sus.sum(axis=1)) - sus))
    blocks = (minv, base_damp, descriptor, template)
    for arr in blocks:
        arr.setflags(write=False)
    return blocks


def build_state_space(model: SystemModel, attack: AttackProfile, droop: DroopSchedule) -> StateSpace:
    """Assemble the closed-loop state space for given attack and droop gains.

    The attack and droop gains enter only through their difference, so the
    damping block is computed from (droop - attack) first; equal gains cancel
    bit-exactly.  E and the grid's own blocks of S are built once per grid
    dynamics (_loop_blocks); a call copies them and writes the damping
    diagonal and the forcing.
    """
    n = model.areas
    if attack.dyn_gain.shape != (n,) or droop.droop_gain.shape != (n,):
        raise ConfigurationError("attack/droop dimensioned for a different number of areas")
    dynamics = (model.total_inertia, model.gov_proportional + model.damping,
                model.gov_integral, model.susceptance)
    minv, base_damp, descriptor, template = _loop_blocks(ContentKey(dynamics, *dynamics))
    state = template.copy()
    np.fill_diagonal(state[n:, n:], -minv * (base_damp + (droop.droop_gain - attack.dyn_gain)))

    forcing = np.zeros(2 * n)
    forcing[n:] = -minv * (model.secure_load + attack.static_component - droop.power_ref)

    for arr in (state, forcing):
        arr.setflags(write=False)
    return StateSpace(descriptor, state, forcing)
