"""Stability-constrained economic dispatch: droop first, then dispatch.

Builds, per period: a single system-wide power balance, committed-generator
limits, wind dispatch within its droop band [omega*kc, avail - omega*kc],
and optional storage energy recursion.  The droop K meets the stability
rows only through the net gain k = robust_gain - K; cred.rows states the
rows and searches for the net gains they admit.

The cost depends on the droop only through each period's total droop, and
never falls as it grows (_merit_order), so solve_cred chooses each
period's droop once, from the stability rows and the period's wind band,
as the largest total net gain they admit (_droop_floor, by
StabilityConstraintSet.net_gain_max), and then dispatches with it pinned.
The segment each live pair holds in each period reaches the solution as
an index (DispatchSolution.held_segments).

With the droop pinned, every storage-free period, the baseline's too, is an
economic dispatch with one balance row, solved by merit order with no
program built (_merit_order); with storage the horizon is one LP, which
build_cred_milp assembles from the pinned droop.  Both work on one column
block per period (_columns), its costs and every period's bounds stated
once (_blocks), and both see the droop only as the bounds of wind, which
has no cost and enters no row but its period's balance, so the pinned
droop is optimal by construction; the joint-MIP oracle tests check the
argument end to end.

Solutions are certified a posteriori by an exact eigenvalue check of every
period's closed loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BandInfeasibleError,
    BuildError,
    CoverageError,
    InfeasibleError,
    NumericalError,
    ValidationFailure,
)
from .grid import AttackProfile, DroopSchedule, SystemModel, build_state_space
from .linearize import evaluate_piecewise
from .milp import LinearProgram, solve_lp
from .rows import StabilityConstraintSet
from .stability import StabilityVerdict, eigen_decompose, is_stable

__all__ = [
    "GeneratorSpec",
    "StorageSpec",
    "DispatchScenario",
    "CredMilp",
    "DispatchSolution",
    "StabilityCertificate",
    "build_cred_milp",
    "solve_cred",
    "stability_precheck",
    "validate_solution",
    "cost_increment",
]

DELTA_T = 1.0  # hours per period


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Aggregated synchronous fleet of one area."""

    area: int
    marginal_cost: float  # currency per MWh
    p_min: float  # p.u.
    p_max: float  # p.u.
    committed: tuple  # per-period 0/1

    def __post_init__(self):
        if not np.isfinite([self.marginal_cost, self.p_min, self.p_max]).all():
            raise BuildError(f"generator in area {self.area}: cost and limits must be finite")
        if self.p_min < 0 or self.p_max < self.p_min:
            raise BuildError(f"generator in area {self.area}: need 0 <= p_min <= p_max")
        object.__setattr__(self, "committed", tuple(int(bool(u)) for u in self.committed))


@dataclass(frozen=True, eq=False)
class StorageSpec:
    """Battery storage attached to one area; energy arbitrage only."""

    area: int
    soc_min: float
    soc_max: float
    efficiency: float
    power_limit: float  # p.u.
    energy: float  # p.u. * h
    soc_initial: float = 0.5

    def __post_init__(self):
        fields = (self.soc_min, self.soc_max, self.efficiency, self.power_limit, self.energy,
                  self.soc_initial)
        if not np.isfinite(fields).all():
            raise BuildError(f"storage in area {self.area}: every field must be finite")
        if not (0.0 <= self.soc_min < self.soc_max <= 1.0):
            raise BuildError("storage needs 0 <= soc_min < soc_max <= 1")
        if not (0.0 < self.efficiency <= 1.0):
            raise BuildError("storage efficiency must lie in (0, 1]")
        if self.power_limit < 0 or self.energy <= 0:
            raise BuildError("storage power/energy limits must be positive")
        if not (self.soc_min <= self.soc_initial <= self.soc_max):
            raise BuildError("soc_initial outside [soc_min, soc_max]")


@dataclass(frozen=True, eq=False)
class DispatchScenario:
    """Dispatch horizon on top of a SystemModel, all powers in p.u.

    It holds no attack: the attack enters only the frequency dynamics, so
    the caller passes its AttackProfile to stability_precheck and
    validate_solution, and its robust gains to StabilityConstraintSet.
    """

    model: SystemModel
    demand: np.ndarray  # (T, N)
    wind_available: np.ndarray  # (T, N)
    generators: tuple
    shed_cost: float
    base_power: float = 1000.0  # MW per p.u.
    min_online_fraction: float = 0.0
    storage: tuple = ()

    def __post_init__(self):
        n = self.model.areas
        dem = np.asarray(self.demand, dtype=float)
        wind = np.asarray(self.wind_available, dtype=float)
        if dem.ndim != 2 or dem.shape[1] != n:
            raise BuildError(f"demand must be (T, {n})")
        if wind.shape != dem.shape:
            raise BuildError("wind_available must match demand shape")
        if not (np.isfinite(dem).all() and np.isfinite(wind).all()
                and np.isfinite(self.shed_cost) and np.isfinite(self.base_power)):
            raise BuildError("demand, wind availability, shed_cost and base_power must be finite")
        if (dem < 0).any() or (wind < -1e-12).any():
            raise BuildError("demand and wind availability must be >= 0")
        if (wind > self.model.ibr_max_power[None, :] + 1e-9).any():
            raise BuildError("wind availability exceeds installed IBR capacity")
        t_len = dem.shape[0]
        gens = tuple(self.generators)
        for g in gens:
            if not 0 <= g.area < n:
                raise BuildError(f"generator area {g.area} out of range")
            if len(g.committed) != t_len:
                raise BuildError("generator commitment length differs from horizon")
        stor = tuple(self.storage)
        for s in stor:
            if not 0 <= s.area < n:
                raise BuildError(f"storage area {s.area} out of range")
        if self.shed_cost < 0 or not (0.0 <= self.min_online_fraction <= 1.0):
            raise BuildError("shed_cost must be >= 0 and min_online_fraction within [0, 1]")
        for arr in (dem, wind):
            arr.setflags(write=False)
        set_ = object.__setattr__
        set_(self, "demand", dem)
        set_(self, "wind_available", wind)
        set_(self, "generators", gens)
        set_(self, "storage", stor)

    @property
    def n_periods(self) -> int:
        return self.demand.shape[0]


@dataclass(frozen=True, eq=False)
class CredMilp:
    """The storage horizon as an LP with the droop pinned; its columns are _columns' blocks."""

    program: LinearProgram


@dataclass(frozen=True, eq=False)
class StabilityCertificate:
    """Exact-spectrum check of a solved dispatch, one entry per period.

    The check passes on Re < 0.  settle_shortfall is how far the worst
    period's spectral abscissa falls short of the -settle_margin the
    stability rows aimed at (0 when it reaches it); piecewise tables within
    eps_lim of the exact loci can leave a shortfall up to eps_lim.
    """

    max_real: np.ndarray  # (T,)
    worst_period: int
    worst_eigenvalues: np.ndarray
    estimate_discrepancy: float | None
    settle_shortfall: float


@dataclass(eq=False)
class DispatchSolution:
    sg_power: np.ndarray  # (T, G)
    wind_power: np.ndarray  # (T, N)
    wind_reserve: np.ndarray  # (T, N)
    droop: np.ndarray  # (T, N)
    shed: np.ndarray  # (T, N)
    storage_charge: np.ndarray  # (T, S)
    storage_discharge: np.ndarray  # (T, S)
    storage_soc: np.ndarray  # (T, S)
    #: the segment m holding the net gain of each live pair (eigenvalue i,
    #: area a) in period t, keyed (t, i, a)
    held_segments: dict
    per_period_cost: np.ndarray  # currency
    total_cost: float
    #: LPs solved: one per cell the droop search of a multi-area attack
    #: visits, plus one for the storage horizon's LP
    lp_count: int
    #: simplex steps over those LPs; both read 0 on a storage-free dispatch
    #: of at most one attacked area
    simplex_iterations: int = 0
    stability_certificate: StabilityCertificate | None = None


def _columns(scn: DispatchScenario) -> dict:
    """Slice of each DispatchSolution array in one period's column block.

    The block holds each generator, then (wind, shed) per area, then
    (charge, discharge, soc) per storage unit; the horizon's LP repeats it
    once per period.
    """
    g, w = len(scn.generators), len(scn.generators) + 2 * scn.model.areas
    return {"sg_power": slice(0, g), "wind_power": slice(g, w, 2), "shed": slice(g + 1, w, 2),
            "storage_charge": slice(w, None, 3), "storage_discharge": slice(w + 1, None, 3),
            "storage_soc": slice(w + 2, None, 3)}


def _blocks(scn: DispatchScenario, kc: np.ndarray, allow_shed: bool) -> tuple:
    """(cost, lo, hi): the block's cost per column and every period's bounds, shape (T, width).

    Wind is held in its droop band [pres, max(avail - pres, pres)],
    pres = omega*kc, and has no cost; a unit off in period t is held at 0.
    """
    cols, gens, stor = _columns(scn), scn.generators, scn.storage
    t_len, width = scn.n_periods, len(gens) + 2 * scn.model.areas + 3 * len(stor)
    cost = np.zeros(width)
    lo, hi = np.zeros((t_len, width)), np.zeros((t_len, width))
    cost[cols["sg_power"]] = [(gen.marginal_cost * scn.base_power) * DELTA_T for gen in gens]
    cost[cols["shed"]] = (scn.shed_cost * scn.base_power) * DELTA_T
    online = np.array([gen.committed for gen in gens], dtype=float).reshape(len(gens), t_len).T
    lo[:, cols["sg_power"]] = online * [gen.p_min for gen in gens]
    hi[:, cols["sg_power"]] = online * [gen.p_max for gen in gens]
    pres = scn.model.omega_max * kc
    lo[:, cols["wind_power"]] = pres
    hi[:, cols["wind_power"]] = np.maximum(scn.wind_available - pres, pres)
    hi[:, cols["shed"]] = scn.demand if allow_shed else 0.0
    hi[:, cols["storage_charge"]] = hi[:, cols["storage_discharge"]] = [s.power_limit for s in stor]
    lo[:, cols["storage_soc"]] = [s.soc_min for s in stor]
    hi[:, cols["storage_soc"]] = [s.soc_max for s in stor]
    return cost, lo, hi


def build_cred_milp(scn: DispatchScenario, kc: np.ndarray, allow_shed: bool = False) -> CredMilp:
    """Assemble the dispatch horizon as one LP, the droop pinned to kc (T, N).

    Column t * width + j is column j of period t's block (_columns).  The
    program sees the droop only as its wind bounds (_blocks): wind has no
    cost and enters only its period's balance row, with coefficient 1, so
    the droop _droop_floor chose is optimal by construction (argument in
    _merit_order).  Its rows are, per period, the balance, the online
    floor and each storage unit's recursion, the last period's followed
    by its terminal state of charge.  kc comes from the caller, so a band
    2*omega*kc - avail beyond _FEAS_TOL in an area raises InfeasibleError
    naming the first such period; within that tolerance the band closes to
    the point omega*kc (_blocks).
    """
    empty = np.flatnonzero(
        (2.0 * (scn.model.omega_max * kc) - scn.wind_available > _FEAS_TOL).any(axis=1))
    if empty.size:
        raise _infeasible(f"period {empty[0]}", allow_shed)
    cols = _columns(scn)
    cost, lo, hi = _blocks(scn, kc, allow_shed)
    t_len, width = lo.shape
    floor = bool(scn.min_online_fraction > 0.0 and scn.generators)
    n_stor = len(scn.storage)
    # generation + net storage + shed = demand; generation >= a share of demand
    balance, generation = np.ones(width), np.zeros(width)
    balance[cols["storage_charge"]], balance[cols["storage_soc"]] = -1.0, 0.0
    generation[cols["sg_power"]] = 1.0
    lhs = np.zeros((t_len * (1 + floor + n_stor) + n_stor, t_len * width))
    rows = []  # (relation, rhs) of each row of lhs
    for t in range(t_len):
        at = t * width
        demand = float(scn.demand[t].sum())
        lhs[len(rows), at:at + width] = balance
        rows.append(("=", demand))
        if floor:
            lhs[len(rows), at:at + width] = generation
            rows.append((">=", scn.min_online_fraction * demand))
        for soc, stor in zip(range(at, at + width)[cols["storage_soc"]], scn.storage):
            # soc_t = soc_{t-1} + (eff*pch - pdis/eff) * dt / energy
            lhs[len(rows), soc - 2:soc + 1] = (-stor.efficiency * DELTA_T / stor.energy,
                                               DELTA_T / (stor.efficiency * stor.energy), 1.0)
            if t > 0:
                lhs[len(rows), soc - width] = -1.0
            rows.append(("=", 0.0 if t > 0 else stor.soc_initial))
            if t == t_len - 1:
                lhs[len(rows), soc] = 1.0
                rows.append(("=", stor.soc_initial))
    relations, rhs = zip(*rows)
    return CredMilp(LinearProgram(np.tile(cost, t_len), lhs, relations, np.array(rhs),
                                  np.stack([lo.ravel(), hi.ravel()], axis=1)))


def _droop_floor(scn: DispatchScenario, stab: StabilityConstraintSet | None) -> tuple:
    """(kc, held, lps, steps): the least droop the stability rows admit.

    kc is the droop of each period and area, shape (T, N); held maps
    (t, i, a) to the segment m that holds live pair (i, a)'s net gain in
    period t, as StabilityConstraintSet.net_gain_max found it; lps and
    steps count the search's cell LPs and their simplex steps.  Areas
    without tables of a positive gain get a zero droop; the others get
    gain - k, k their net gains from net_gain_max.  Each area's net gain
    is held to [gain - avail[t]/(2 omega), gain], so that its droop fits
    the wind band, for one attacked area as for several, and the search
    runs once per distinct set of these bounds: periods with equal bounds
    share its result.  BandInfeasibleError names the first period whose
    bounds admit no point, before any period is dispatched; shedding
    cannot mend it.  See _merit_order for why this droop is optimal.
    """
    n, t_len = scn.model.areas, scn.n_periods
    gains = stab.robust_gains if stab is not None else np.zeros(n)
    if gains.shape != (n,):
        raise BuildError(f"robust_gains must have shape ({n},)")
    areas = sorted({a for _, a in stab.segments}) if stab is not None else []
    kc = np.zeros((t_len, n))
    if not areas:
        return kc, {}, 0, 0
    held, lps, steps, solved = {}, 0, 0, {}
    band = np.clip(gains - scn.wind_available / (2.0 * scn.model.omega_max), 0.0, gains)
    for t in range(t_len):
        key = tuple(band[t, areas])
        if key not in solved:
            solved[key] = stab.net_gain_max(band[t])
            if solved[key] is None:
                raise BandInfeasibleError(
                    f"dispatch infeasible in period {t}: no droop within the wind band meets "
                    "every stability row")
            lps, steps = lps + solved[key][2], steps + solved[key][3]
        knet, segment = solved[key][:2]
        for a, k in knet.items():
            kc[t, a] = gains[a] - k
        held.update({(t, i, a): m for (i, a), m in segment.items()})
    return kc, held, lps, steps


def _period_cost(cost: np.ndarray, cols: dict, x: np.ndarray) -> float:
    """Cost of one period's block x: each generator in turn, then the total shed."""
    total = 0.0
    for c, p in zip(cost[cols["sg_power"]], x[cols["sg_power"]]):
        total += c * p
    total += cost[cols["shed"]][0] * x[cols["shed"]].sum()
    return total


#: primal feasibility tolerance of the merit order, the dual simplex's (milp._PIVOT_TOL)
_FEAS_TOL = 1e-9


def _merit_order(scn: DispatchScenario, kc: np.ndarray, allow_shed: bool,
                 blocks: tuple) -> np.ndarray:
    """Dispatch each period of a storage-free horizon by merit order, the droop pinned to kc (T, N).

    Why the pinned droop is optimal: wind costs nothing, its droop holds
    it in the band pres <= pw <= avail - pres with pres = omega*kc, and
    it enters no row but its period's balance, with coefficient 1.  Both
    dispatch paths state wind this way by construction: the merit order
    here and the storage LP (build_cred_milp) take its cost and bounds
    from _blocks and give it no other term; the joint-MIP oracle tests
    check the argument end to end.  While each area's band
    2*omega*kc[t, a] <= avail[t, a] holds, the total wind of period t
    can therefore be anything in [omega*S_t, W_t - omega*S_t],
    where S_t = sum_a kc[t, a] and W_t = sum_a avail[t, a]: the cost of
    the joint dispatch-plus-stability MIP depends on the droop only
    through S_t, with or without storage, and never falls as S_t grows.
    The stability rows of period t constrain its droop alone, so the
    droop with the least S_t they admit within the bands, the largest
    total net gain (_droop_floor), is an optimum of the MIP, and the
    dispatch is infeasible exactly when the MIP is.  Every area without
    tables of a positive gain has a zero droop.

    With kc fixed, wind is a free resource in [pres, avail - pres] per
    area, and a period is the linear-cost economic dispatch (equal
    incremental cost; Wood & Wollenberg, Power Generation, Operation, and
    Control, ch. 3): one balance row, the online floor
    sum pg >= min_online_fraction * demand, and bounded units.  Every unit
    starts at its lower bound; generators are raised, cheapest first,
    until the floor is met; the rest of the demand is filled in one merit
    order keyed (cost, wind < generator < shed, index).  A prefix of the
    generators in cost order is optimal for any generation total, so the
    floor's share is part of an optimum, and the merit order fills the
    residual demand optimally.  On equal costs the order above picks one
    of the optima; the simplex may pick another.  Values sit exactly on
    their bounds, except one marginal unit per phase.

    kc comes from _droop_floor, so every band holds.  blocks is
    _blocks(scn, kc, allow_shed).  Returns the dispatch in _columns'
    block, shape (T, width).  Raises InfeasibleError for the first period
    whose lower bounds (after the floor) exceed demand, or whose units
    cannot meet the floor or the demand, each beyond _FEAS_TOL.
    """
    cols = _columns(scn)
    gen, wind, shed = cols["sg_power"], cols["wind_power"], cols["shed"]
    cost, lo, hi = blocks
    column, cost = range(len(cost)), cost.tolist()
    # a stable sort by cost keeps wind < generator < shed, then index, on ties
    merit = sorted([*column[wind], *column[gen], *column[shed]], key=cost.__getitem__)
    cheapest = sorted(column[gen], key=cost.__getitem__)
    online = scn.min_online_fraction if scn.generators else 0.0
    out = []
    for t, (x, top) in enumerate(zip(lo.tolist(), hi.tolist())):
        demand = float(scn.demand[t].sum())
        need = online * demand - sum(x[gen])
        for j in cheapest:
            if need <= 0.0:
                break
            need = _top_up(x, top, j, need)
        rest = demand - (sum(x[wind]) + sum(x[gen]))
        for j in merit:
            if rest <= 0.0:
                break
            rest = _top_up(x, top, j, rest)
        if need > _FEAS_TOL or abs(rest) > _FEAS_TOL:
            raise _infeasible(f"period {t}", allow_shed)
        out.append(x)
    return np.array(out)


def _top_up(x: list, hi: list, j: int, amount: float) -> float:
    """Raise x[j] by amount, at most to hi[j]; return the amount left over."""
    room = hi[j] - x[j]
    if room <= amount:
        x[j] = hi[j]
        return amount - room
    x[j] += amount
    return 0.0


def _infeasible(where: str, allow_shed: bool) -> InfeasibleError:
    return InfeasibleError(f"dispatch infeasible in {where}"
                           + ("" if allow_shed else " (shedding disabled)"))


def solve_cred(
    scn: DispatchScenario,
    stab: StabilityConstraintSet | None,
    allow_shed: bool = False,
) -> DispatchSolution:
    """Solve the dispatch: choose the droop (_droop_floor), then dispatch with it pinned.

    Without storage the periods decouple and each is dispatched by merit
    order (_merit_order): no dispatch program is built.  With storage the
    horizon is built and solved as one LP, the droop entering it only as
    the wind bounds (build_cred_milp).  Either way the pinned droop is
    optimal by construction, as _merit_order argues.  held_segments maps
    each (t, i, a) to the segment the search holds (_droop_floor).
    lp_count counts the LPs solved, the droop search's cell LPs of a
    multi-area attack and the storage LP, and simplex_iterations their
    simplex steps, so both read 0 on a storage-free dispatch of at most
    one attacked area.
    Raises InfeasibleError when any period admits no feasible point and
    NumericalError when the solver hits its budget.
    """
    kc, held, lps, steps = _droop_floor(scn, stab)
    blocks = _blocks(scn, kc, allow_shed)
    if scn.storage:
        res = solve_lp(build_cred_milp(scn, kc, allow_shed=allow_shed).program)
        if res.status == "infeasible":
            raise _infeasible("horizon", allow_shed)
        if not res.optimal:
            raise NumericalError(f"dispatch solve ended with status {res.status}")
        x = res.values.reshape(scn.n_periods, -1)
        lps, steps = lps + 1, steps + res.iterations
    else:
        x = _merit_order(scn, kc, allow_shed, blocks)
    cols = _columns(scn)
    per_period = np.array([_period_cost(blocks[0], cols, x_t) for x_t in x])
    return DispatchSolution(
        **{name: x[:, part] for name, part in cols.items()},
        wind_reserve=scn.model.omega_max * kc,
        droop=kc,
        held_segments=held,
        per_period_cost=per_period,
        total_cost=float(per_period.sum()),
        lp_count=lps,
        simplex_iterations=steps,
    )


def stability_precheck(scn: DispatchScenario, attack: AttackProfile) -> StabilityVerdict:
    """Eigenvalue verdict on the current operating point, no droop yet, under the attack."""
    ss = build_state_space(scn.model, attack, DroopSchedule.none(scn.model.areas))
    return is_stable(eigen_decompose(ss))


def validate_solution(
    scn: DispatchScenario,
    sol: DispatchSolution,
    attack: AttackProfile,
    stab: StabilityConstraintSet | None = None,
) -> StabilityCertificate:
    """Exact a-posteriori stability certificate for every period.

    Rebuilds each period's closed loop under the attack, whose dynamic
    gains are the robust ones, with the solved droop, and demands a
    strictly negative spectral abscissa; area a's net gain is
    attack.dyn_gain[a] - droop[t, a].  The power reference enters only the
    forcing, so periods with an equal droop share one loop: one assembly,
    eigendecomposition and verdict per distinct droop; every period's
    droop and wind power still pass DroopSchedule's checks.
    estimate_discrepancy is the largest real-part gap between a table's
    estimate and the exact eigenvalue nearest to it in the complex plane.
    Raises ValidationFailure naming the first offending period/eigenvalue.
    """
    gains = attack.dyn_gain
    t_len = scn.n_periods
    max_real = np.zeros(t_len)
    worst_t, worst_eigs = 0, None
    discrepancy = None
    tables = stab.by_pair if stab is not None else {}
    spectra = {}
    for t in range(t_len):
        droop = DroopSchedule(sol.droop[t], sol.wind_power[t])
        key = droop.droop_gain.tobytes()
        if key not in spectra:
            eig = eigen_decompose(build_state_space(scn.model, attack, droop))
            spectra[key] = eig, is_stable(eig)
        eig, verdict = spectra[key]
        max_real[t] = verdict.max_real
        if worst_eigs is None or verdict.max_real > max_real[worst_t]:
            worst_t, worst_eigs = t, np.array(eig.eigenvalues)
        if verdict.max_real >= 0.0:
            offender = eig.eigenvalues[np.argmax(eig.eigenvalues.real)]
            raise ValidationFailure(
                f"period {t}: exact eigenvalue {offender:.6g} is not in the open left "
                "half-plane; rebuild tables with a smaller error limit"
            )
        for (i, a), tab in tables.items():
            k = gains[a] - sol.droop[t, a]
            try:
                est = tab.base_eigenvalue + evaluate_piecewise(tab, k)
            except CoverageError:
                continue
            exact = eig.eigenvalues[np.argmin(np.abs(eig.eigenvalues - est))]
            gap = abs(est.real - exact.real)
            discrepancy = gap if discrepancy is None else max(discrepancy, gap)
    settle = stab.settle_margin if stab is not None else 0.0
    return StabilityCertificate(
        max_real=max_real,
        worst_period=int(worst_t),
        worst_eigenvalues=worst_eigs,
        estimate_discrepancy=discrepancy,
        settle_shortfall=max(0.0, float(max_real.max()) + settle),
    )


def cost_increment(baseline_cost: float, cred_cost: float) -> float:
    """Extra cost of the stability-constrained dispatch over the baseline."""
    inc = cred_cost - baseline_cost
    tol = 1e-6 * max(1.0, abs(baseline_cost))
    if inc < -tol:
        raise NumericalError(
            f"stability-constrained cost {cred_cost:.6f} fell below the baseline "
            f"{baseline_cost:.6f}; the instances are inconsistent"
        )
    return max(inc, 0.0)
