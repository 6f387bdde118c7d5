import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cred import dispatch, rows, workflow
from cred.dispatch import (
    DispatchScenario,
    GeneratorSpec,
    StorageSpec,
    build_cred_milp,
    cost_increment,
    solve_cred,
    stability_precheck,
    validate_solution,
)
from cred.errors import (
    BuildError,
    CoverageError,
    CredError,
    InfeasibleError,
    NumericalError,
    ValidationFailure,
)
from cred.grid import AttackProfile, DroopSchedule, attack_from_gains, build_state_space
from cred.linearize import (
    LinearizationPoint,
    SegmentTable,
    build_segment_table,
    evaluate_piecewise,
    select_critical_pairs,
    sweep_loci,
)
from cred.milp import SolveResult, solve_lp
from cred.rows import StabilityConstraintSet
from cred.scenario import scenario_from_dict
from cred.stability import eigen_decompose, is_stable
from cred.systems import three_area_storage_day, three_area_system, three_area_with_storage
from cred.uncertainty import AttackEstimate, robust_gain
from cred.workflow import WorkflowConfig, run_workflow

from oracles import (
    enumerate_milp,
    joint_cred_milp,
    net_gain_milp,
    net_gain_scan,
    solve_with_highs,
    with_bounds,
)


def toy_scenario(one_area_model, p_max=12.0, shed_cost=1000.0):
    return DispatchScenario(
        model=one_area_model,
        demand=[[10.0]],
        wind_available=[[4.0]],
        generators=(GeneratorSpec(0, 10.0, 0.0, p_max, (1,)),),
        shed_cost=shed_cost,
        base_power=1.0,
    )


#: the error of a period whose wind band holds no droop that meets the stability rows
BAND_MESSAGE = ("dispatch infeasible in period {}: no droop within the wind band meets every "
                "stability row")


def toy_attack(gain=3.0):
    """The toy's attack on its one area at this robust gain, with no static step."""
    return AttackProfile([gain], [0.0], (0,))


def desk_attack(bundle, gains):
    """The attack of these robust gains on a bundle's attacked areas and static step."""
    return attack_from_gains(gains, bundle.static_attack, bundle.attack_areas)


def toy_stability(one_area_model, gain=3.0, eps_strict=1e-6, settle=0.0,
                  eps_lim=0.02):
    tab = build_segment_table(sweep_loci(one_area_model, 0, gain, gain / 200.0), 1, eps_lim)
    return StabilityConstraintSet((tab,), robust_gains=[gain],
                                  strict_margin=eps_strict, settle_margin=settle)


def two_area_toy(p_max=12.0):
    """The toy dispatch plus an attacked second area without wind or demand.

    Stability sets whose second-area tables never bind turn the toy's
    one-area search into a two-area one with the same optimum.
    """
    from cred.grid import SystemModel

    model = SystemModel(
        areas=2, inertia_sg=[1.0, 1.0], inertia_ibr=[0.0, 0.0], damping=[0.0, 0.0],
        gov_integral=[5.0, 5.0], gov_proportional=[2.0, 2.0],
        susceptance=[[0.0, 1.0], [1.0, 0.0]], secure_load=[7.0, 0.0],
        vulnerable_load=[3.0, 0.0], ibr_max_power=[4.0, 0.0], omega_max=0.5,
    )
    return DispatchScenario(
        model=model,
        demand=[[10.0, 0.0]],
        wind_available=[[4.0, 0.0]],
        generators=(GeneratorSpec(0, 10.0, 0.0, p_max, (1,)),),
        shed_cost=1000.0,
        base_power=1.0,
    )


def idle_table(tab, area=1):
    """One flat segment on the same eigenvalue: adds nothing to its row."""
    return SegmentTable(tab.eigen_index, area,
                        (LinearizationPoint(0.0, tab.base_eigenvalue, 0j),),
                        tab.range_end, tab.base_eigenvalue, np.zeros(0), np.zeros(0))


def random_table(rng, eigen_index, base, gain=3.0, area=0):
    """Synthetic table of one area over [0, gain]: 1-6 segments, random slopes and offsets."""
    n_seg = int(rng.randint(1, 7))
    gaps = rng.uniform(0.1, 1.0, n_seg)
    phis = gain * np.concatenate([[0.0], np.cumsum(gaps)[:-1]]) / gaps.sum()
    points = tuple(
        LinearizationPoint(
            float(phi),
            base if m == 0 else base + complex(*rng.normal(0.0, 2.0, 2)),
            complex(*rng.normal(0.0, 2.0, 2)),
        )
        for m, phi in enumerate(phis)
    )
    return SegmentTable(eigen_index, area, points, gain, base, np.zeros(0), np.zeros(0))


class TestToyInstance:
    def test_hand_solved_optimum(self, one_area_model):
        scn = toy_scenario(one_area_model)
        stab = toy_stability(one_area_model)
        sol = solve_cred(scn, stab)
        # stability row: -1 + 0.5*(3 - kc) <= -1e-6  =>  kc >= 1 + 2e-6
        assert sol.droop[0, 0] == pytest.approx(1.0 + 2e-6, abs=1e-9)
        assert sol.wind_reserve[0, 0] == pytest.approx(0.5 * (1.0 + 2e-6), abs=1e-9)
        assert sol.total_cost == pytest.approx(65.00001, abs=1e-6)

    def test_matches_enumeration_oracle(self, one_area_model):
        scn = toy_scenario(one_area_model)
        stab = toy_stability(one_area_model)
        program, _ = joint_cred_milp(scn, stab)
        status, obj, _ = enumerate_milp(*program)
        assert status == "optimal"
        assert solve_with_highs(*program)[1] == pytest.approx(obj, abs=1e-6)
        assert solve_cred(scn, stab).total_cost == pytest.approx(obj, abs=1e-6)

    def test_zero_gains_reduce_to_plain_dispatch(self, one_area_model):
        scn = toy_scenario(one_area_model)
        stab = StabilityConstraintSet((), robust_gains=[0.0])
        with_stab = solve_cred(scn, stab)
        plain = solve_cred(scn, None)
        assert with_stab.total_cost == pytest.approx(plain.total_cost, abs=1e-6)
        assert with_stab.droop[0, 0] == 0.0

    def test_cost_monotone_in_robust_gain(self, one_area_model):
        scn = toy_scenario(one_area_model)
        costs = []
        for gain in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            stab = None if gain == 0.0 else toy_stability(one_area_model, gain=gain)
            costs.append(solve_cred(scn, stab).total_cost)
        assert all(b >= a - 1e-9 for a, b in zip(costs, costs[1:]))
        assert costs[-1] > costs[0]

    def test_exactly_one_indicator_active(self):
        from cred.grid import SystemModel

        model = SystemModel(
            areas=2, inertia_sg=[2.0, 4.0], inertia_ibr=[0.0, 0.0],
            damping=[0.05, 0.05], gov_integral=[6.0, 5.0],
            gov_proportional=[3.0, 2.0], susceptance=[[0.0, 2.0], [2.0, 0.0]],
            secure_load=[2.0, 2.0], vulnerable_load=[1.0, 4.0],
            ibr_max_power=[0.0, 3.0], omega_max=0.25,
        )
        scn = DispatchScenario(
            model=model,
            demand=[[3.0, 3.0]],
            wind_available=[[0.0, 2.5]],
            generators=(GeneratorSpec(0, 20.0, 0.0, 8.0, (1,)),
                        GeneratorSpec(1, 40.0, 0.0, 3.0, (1,))),
            shed_cost=1000.0,
            base_power=1.0,
        )
        gain = 6.0
        tabs = tuple(
            build_segment_table(sweep_loci(model, 1, gain, 0.04), i, 0.02) for i in (0, 2)
        )
        assert any(len(t.points) >= 2 for t in tabs)
        stab = StabilityConstraintSet(tabs, robust_gains=[0.0, gain])
        sol = solve_cred(scn, stab)
        # one held segment per period and live pair
        assert set(sol.held_segments) == {(0, i, 1) for i in (0, 2)}
        k = gain - sol.droop[0, 1]
        shift_by_eig = {}
        for (t, i, a), m in sol.held_segments.items():
            tab = next(tb for tb in tabs if tb.eigen_index == i and tb.area == a)
            pts = tab.points
            assert 0 <= m < len(pts)
            lo = pts[m].abscissa
            hi = pts[m + 1].abscissa if m + 1 < len(pts) else tab.range_end
            assert lo - 1e-9 <= k <= hi + 1e-9
            # the segment encoding reproduces the reference piecewise shift
            encoded = pts[m].slope.real * (k - pts[m].abscissa) \
                + (pts[m].eigenvalue - tab.base_eigenvalue).real
            assert encoded == pytest.approx(evaluate_piecewise(tab, k).real, abs=1e-9)
            base_re = tab.base_eigenvalue.real
            prev_base, prev_shift = shift_by_eig.get(i, (base_re, 0.0))
            shift_by_eig[i] = (base_re, prev_shift + encoded)
        # the summed shifts satisfy each eigenvalue's stability row
        for i, (base_re, shift) in shift_by_eig.items():
            assert base_re + shift <= -stab.strict_margin + 1e-9

    def test_shed_disabled_infeasible_then_allowed(self, one_area_model):
        # tight fleet: deloading 0.5 for droop cannot be replaced
        scn = toy_scenario(one_area_model, p_max=6.2)
        stab = toy_stability(one_area_model)
        with pytest.raises(InfeasibleError):
            solve_cred(scn, stab, allow_shed=False)
        sol = solve_cred(scn, stab, allow_shed=True)
        assert sol.shed[0, 0] > 0.0
        bal = (sol.sg_power[0].sum() + sol.wind_power[0].sum()
               + sol.shed[0].sum() - scn.demand[0].sum())
        assert abs(bal) <= 1e-9

    def test_coverage_error_when_table_short(self, one_area_model):
        scn = toy_scenario(one_area_model)
        tab = build_segment_table(sweep_loci(one_area_model, 0, 2.0, 0.01), 1, 0.02)
        with pytest.raises(CoverageError):
            solve_cred(scn, StabilityConstraintSet((tab,), robust_gains=[3.0]))

    def test_power_balance_and_droop_band(self, one_area_model):
        scn = toy_scenario(one_area_model)
        sol = solve_cred(scn, toy_stability(one_area_model))
        for t in range(scn.n_periods):
            bal = (sol.sg_power[t].sum() + sol.wind_power[t].sum()
                   - scn.demand[t].sum())
            assert abs(bal) <= 1e-6
            swing = sol.droop[t] * scn.model.omega_max
            assert np.all(sol.wind_power[t] + swing
                          <= scn.wind_available[t] + 1e-9)
            assert np.all(sol.wind_power[t] - swing >= -1e-9)


class TestEncoding:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_eigen_row_matches_piecewise(self, seed):
        """With k pinned, the eigen row of the net-gain MIP reads the reference piecewise shift.

        The oracles' MIPs share this encoding; with k and the segment
        indicators fixed, only the segment holding k leaves the LP feasible.
        """
        rng = np.random.RandomState(seed)
        gain, eps = 3.0, 1e-6
        # far-left base eigenvalue: the eigen row holds at every pinned k
        tab = random_table(rng, 0, complex(-50.0, 3.0), gain)
        n_seg = len(tab.points)
        phis = tab.abscissas
        # a second attacked area, whose table adds nothing
        stab = StabilityConstraintSet((tab, idle_table(tab)), [gain, gain], strict_margin=eps)
        (lp, binaries), index = net_gain_milp(stab)
        assert sorted(index["z"]) == [(0, 0, m) for m in range(n_seg)] + [(0, 1, 0)]
        assert binaries == tuple(sorted(index["z"].values()))
        # the one eigen row closes the program
        assert lp.relations[-1] == "<="
        eig_row = lp.lhs[-1]
        uppers = list(phis[1:]) + [gain]
        inside = [rng.uniform(lo, hi - 2.0 * eps) for lo, hi in zip(phis, uppers)]
        for k in [*phis, *inside, gain]:
            held = int(np.searchsorted(phis, k, side="right")) - 1
            for m in range(n_seg):
                fixes = {j: (float(key == (0, 0, m) or key[1] == 1),) * 2
                         for key, j in index["z"].items()}
                res = solve_lp(with_bounds(lp, {index["k"][0]: (k, k), **fixes}))
                assert res.optimal == (m == held)
                if res.optimal:
                    expected = evaluate_piecewise(tab, k).real
                    assert eig_row @ res.values == pytest.approx(expected, abs=1e-9)


class TestDroopFloor:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_floor_lp_matches_mip(self, seed, allow_shed):
        """A one-area attack dispatches at the droop floor with the joint MIP's optimum."""
        rng = np.random.RandomState(seed)
        gain = 3.0
        base = complex(rng.uniform(-1.5, 0.1), 2.0)
        tabs = tuple(random_table(rng, i, base, gain) for i in range(rng.randint(1, 4)))
        settle = float(rng.uniform(0.0, 0.3))
        # below about 6.5 the thermal fleet cannot replace deloaded wind
        scn = two_area_toy(p_max=float(rng.uniform(5.5, 9.0)))
        one = StabilityConstraintSet(tabs, [gain, 0.0], settle_margin=settle)
        two = StabilityConstraintSet(tabs + tuple(idle_table(t) for t in tabs), [gain, gain],
                                     settle_margin=settle)
        program, index = joint_cred_milp(scn, two, allow_shed=allow_shed)
        assert program[1]
        status, objective, values = solve_with_highs(*program)
        try:
            sol = solve_cred(scn, one, allow_shed=allow_shed)
        except InfeasibleError:
            assert status == "infeasible"
            return
        assert status == "optimal"
        assert sol.lp_count == sol.simplex_iterations == 0  # merit order, no simplex
        assert sol.total_cost == pytest.approx(objective, rel=1e-9)
        # the floor is the least droop the MIP admits, and the rows hold there
        kc = sol.droop[0, 0]
        assert kc <= values[index["kc"][(0, 0)]] + 1e-6
        k = gain - kc
        bound = -(one.strict_margin + one.settle_margin) - base.real
        for tab in tabs:
            m = sol.held_segments[(0, tab.eigen_index, 0)]
            lo, hi, _, _ = one.segments[(tab.eigen_index, 0)][m]
            assert lo - 1e-9 <= k <= hi + 1e-9
            assert evaluate_piecewise(tab, k).real <= bound + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_net_gain_mip_matches_ceiling(self, seed):
        """On one area the search's net gain is the interval scan's, bit for bit, and the MIP's.

        The search clips each cell in closed form, so it solves no LP and
        holds the segments the scan holds.
        """
        rng = np.random.RandomState(seed)
        gain = 3.0
        base = complex(rng.uniform(-1.5, 0.1), 2.0)
        stab = StabilityConstraintSet(
            tuple(random_table(rng, i, base, gain) for i in range(rng.randint(1, 4))), [gain],
            settle_margin=float(rng.uniform(0.0, 0.3)))
        found, scan = stab.net_gain_max(), net_gain_scan(stab)
        status, objective, _ = solve_with_highs(*net_gain_milp(stab)[0])
        if scan is None:
            assert found is None and status == "infeasible"
            return
        knet, held, lps, steps = found
        assert (knet[0], held) == scan and lps == steps == 0
        assert status == "optimal"
        assert knet[0] == pytest.approx(-objective, rel=0.0, abs=1e-9)
        assert_held_point(stab, np.zeros(1), knet, held)

    def test_storage_lps_state_wind_by_its_band(self, monkeypatch):
        """Every storage LP the workflow and the multi-area draws build has wind only in its band."""
        calls = record_solves(monkeypatch)  # its builds pass through assert_wind_in_band
        for doc in (three_area_with_storage(), three_area_storage_day()):
            run_workflow(WorkflowConfig(mode="worst_case"), bundle=scenario_from_dict(doc))
        builds = [build for call in calls for build in call[3]]
        assert len(builds) == 4 and all(kc.any() for kc, _ in builds[1::2])
        for seed in range(40):
            scn, stab, allow_shed = multi_area_draw(seed)
            if not scn.storage:
                continue
            try:
                kc = dispatch._droop_floor(scn, stab)[0]
                builds.append((kc, build_cred_milp(scn, kc, allow_shed=allow_shed)))
            except InfeasibleError:
                continue
            assert_wind_in_band(scn, *builds[-1])
        assert len(builds) > 10

    @pytest.mark.parametrize("allow_shed", [False, True])
    def test_storage_droop_beyond_its_wind_names_the_period(self, one_area_model, allow_shed):
        stab = toy_stability(one_area_model)
        scn = toy_storage(one_area_model, [4.0, 4.0, 4.0])
        floor = dispatch._droop_floor(scn, stab)[0]
        kc = floor[0, 0]
        assert kc > 0.0
        # 2*omega*kc exceeds period 1's wind: its band is empty.  The droop
        # search finds no droop within it before any period is dispatched;
        # the LP, handed that droop, names the period as well
        scn = toy_storage(one_area_model, [4.0, 0.9 * kc, 4.0])
        with pytest.raises(InfeasibleError) as info:
            solve_cred(scn, stab, allow_shed=allow_shed)
        assert str(info.value) == BAND_MESSAGE.format(1)
        with pytest.raises(InfeasibleError) as info:
            build_cred_milp(scn, floor, allow_shed=allow_shed)
        assert str(info.value) == ("dispatch infeasible in period 1"
                                   + ("" if allow_shed else " (shedding disabled)"))
        # the LP closes a band within the feasibility tolerance to one point;
        # the search admits only droops that fit the wind, here exactly
        scn = toy_storage(one_area_model, [4.0, 2.0 * 0.5 * kc - 5e-10, 4.0])
        problem = build_cred_milp(scn, floor, allow_shed=allow_shed)
        assert_wind_in_band(scn, floor, problem)
        wind = block_columns(scn, problem.program)[1, dispatch._columns(scn)["wind_power"]]
        lo, hi = problem.program.bounds[wind[0]]
        assert lo == hi == 0.5 * kc
        with pytest.raises(InfeasibleError) as info:
            solve_cred(scn, stab, allow_shed=allow_shed)
        assert str(info.value) == BAND_MESSAGE.format(1)
        scn = toy_storage(one_area_model, [4.0, 2.0 * 0.5 * kc, 4.0])
        assert solve_cred(scn, stab, allow_shed=allow_shed).wind_power[1, 0] == 0.5 * kc

    @pytest.mark.parametrize("allow_shed", [False, True])
    def test_one_area_droop_beyond_its_wind_names_the_period(self, one_area_model, allow_shed):
        """One attacked area, no storage: the search is held to each period's wind band.

        Period 2's wind is below 2*omega*kc, and period 0's demand exceeds
        its units without shedding: the band fails first, before any period
        is dispatched, with or without shedding.
        """
        stab = toy_stability(one_area_model)
        kc = dispatch._droop_floor(toy_scenario(one_area_model), stab)[0][0, 0]
        scn = DispatchScenario(
            model=one_area_model, demand=[[20.0], [10.0], [10.0]],
            wind_available=[[4.0], [4.0], [0.9 * kc]],
            generators=(GeneratorSpec(0, 10.0, 0.0, 12.0, (1, 1, 1)),), shed_cost=1000.0,
            base_power=1.0)
        with pytest.raises(InfeasibleError) as info:
            dispatch._droop_floor(scn, stab)
        assert str(info.value) == BAND_MESSAGE.format(2)
        with pytest.raises(InfeasibleError) as info:
            solve_cred(scn, stab, allow_shed=allow_shed)
        assert str(info.value) == BAND_MESSAGE.format(2)


def assert_held_point(stab, lower, knet, held):
    """Each net gain lies in [lower, gain] and in every held segment, exactly; every row holds."""
    shift = {}
    for (i, a), segs in stab.segments.items():
        phi, hi, slope, offset = segs[held[(i, a)]]
        assert max(phi, lower[a]) <= knet[a] <= min(hi, stab.robust_gains[a])
        shift[i] = shift.get(i, 0.0) + slope * knet[a] + offset
    assert all(value <= stab.bounds[i] + 1e-9 for i, value in shift.items())


def toy_storage(one_area_model, wind):
    """The toy area over three periods with a battery, wind availability as given."""
    return DispatchScenario(
        model=one_area_model, demand=[[8.0], [12.0], [8.0]], wind_available=[[w] for w in wind],
        generators=(GeneratorSpec(0, 30.0, 0.0, 10.0, (1, 1, 1)),), shed_cost=1000.0,
        base_power=1.0, storage=(StorageSpec(0, 0.1, 0.9, 0.9, 3.0, 6.0, soc_initial=0.5),))


def assert_wind_in_band(scn, kc, problem):
    """Wind in scn's LP at droop kc: no cost, its droop band as bounds, no row but its balance.

    The pinned droop is optimal because wind has no cost, is held only by
    its band [omega*kc, avail - omega*kc], and enters its period's balance
    row with coefficient 1 and no other row (dispatch._merit_order); the
    LP has only balance, online-floor and state-of-charge rows.
    """
    lp, cols = problem.program, dispatch._columns(scn)
    floor = bool(scn.min_online_fraction > 0.0 and scn.generators)
    n_stor = len(scn.storage)
    assert lp.n_vars == scn.n_periods * (len(scn.generators) + 2 * scn.model.areas + 3 * n_stor)
    assert lp.n_rows == scn.n_periods * (1 + floor + n_stor) + n_stor
    omega = scn.model.omega_max
    for t, block in enumerate(block_columns(scn, lp)):
        for a, j in enumerate(block[cols["wind_power"]]):
            pres = omega * kc[t, a]
            assert lp.objective[j] == 0.0
            assert tuple(lp.bounds[j]) == (pres, max(scn.wind_available[t, a] - pres, pres))
            (r,) = np.flatnonzero(lp.lhs[:, j])
            assert lp.lhs[r, j] == 1.0
            assert lp.relations[r] == "=" and lp.rhs[r] == float(scn.demand[t].sum())
            # period t's balance: its generators, wind, shed and storage, nothing else
            own = {int(col) for name in ("sg_power", "wind_power", "shed", "storage_charge",
                                         "storage_discharge") for col in block[cols[name]]}
            assert set(np.flatnonzero(lp.lhs[r])) == own


def block_columns(scn, lp) -> np.ndarray:
    """(T, width): the LP column of each period's block column (dispatch._columns)."""
    return np.arange(lp.n_vars).reshape(scn.n_periods, -1)


def dispatch_model(n, omega_max=0.5):
    """n areas in a chain of unit lines; a dispatch reads only areas, omega_max and IBR capacity."""
    from cred.grid import SystemModel

    lines = np.zeros((n, n))
    for a in range(n - 1):
        lines[a, a + 1] = lines[a + 1, a] = 1.0
    return SystemModel(
        areas=n, inertia_sg=[1.0] * n, inertia_ibr=[0.0] * n, damping=[0.0] * n,
        gov_integral=[5.0] * n, gov_proportional=[2.0] * n, susceptance=lines,
        secure_load=[7.0] * n, vulnerable_load=[3.0] * n, ibr_max_power=[10.0] * n,
        omega_max=omega_max,
    )


def ceiling_table(area, gain, knet_max, strict=1e-6):
    """One flat segment over [0, gain] whose row admits net gains up to knet_max.

    The row reads slope * k <= 1 - strict with base eigenvalue -1 + 2j, so
    the droop floor is gain - knet_max, to round-off.
    """
    base = complex(-1.0, 2.0)
    slope = (1.0 - strict) / knet_max
    return SegmentTable(0, area, (LinearizationPoint(0.0, base, complex(slope, 0.0)),), gain,
                        base, np.zeros(0), np.zeros(0))


def tied_moves(scn, sol, t, allow_shed):
    """Whether two units with one cost could trade output: one below its upper bound, one above its lower.

    Every alternative optimum of a period moves such a pair (their reduced
    costs are both zero), so without one the optimum is unique.
    """
    pres = sol.wind_reserve[t]
    units = [(0.0, sol.wind_power[t, a], pres[a], scn.wind_available[t, a] - pres[a])
             for a in range(scn.model.areas)]
    units += [(gen.marginal_cost * scn.base_power, sol.sg_power[t, g_id],
               gen.p_min * gen.committed[t], gen.p_max * gen.committed[t])
              for g_id, gen in enumerate(scn.generators)]
    units += [(scn.shed_cost * scn.base_power, sol.shed[t, a], 0.0,
               scn.demand[t, a] if allow_shed else 0.0) for a in range(scn.model.areas)]
    return any(ci == cj and xi < hi_i - 1e-9 and xj > lo_j + 1e-9
               for i, (ci, xi, _, hi_i) in enumerate(units)
               for j, (cj, xj, lo_j, _) in enumerate(units) if i != j)


def period_scenario(scn, t):
    """The storage-free dispatch of period t alone."""
    gens = tuple(GeneratorSpec(g.area, g.marginal_cost, g.p_min, g.p_max, g.committed[t:t + 1])
                 for g in scn.generators)
    return DispatchScenario(
        model=scn.model, demand=scn.demand[t:t + 1], wind_available=scn.wind_available[t:t + 1],
        generators=gens, shed_cost=scn.shed_cost, base_power=scn.base_power,
        min_online_fraction=scn.min_online_fraction)


class TestMeritOrder:
    """The merit-order dispatch against each period's pinned LP, solved in-tree and by HiGHS."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10_000), attacked=st.booleans(), ties=st.booleans(),
           online=st.sampled_from([0.0, 0.3, 0.7]), cheap_shed=st.booleans(),
           allow_shed=st.booleans())
    def test_matches_period_lps(self, seed, attacked, ties, online, cheap_shed, allow_shed):
        rng = np.random.RandomState(seed)
        n, t_len = int(rng.randint(1, 4)), int(rng.randint(1, 4))
        costs = [10.0, 20.0] if ties else list(rng.uniform(5.0, 80.0, 4))
        gens = tuple(
            GeneratorSpec(int(rng.randint(n)), float(rng.choice(costs)),
                          p_min, p_min + float(rng.uniform(0.0, 8.0)),
                          tuple(int(u) for u in rng.rand(t_len) < 0.8))
            for p_min in rng.choice([0.0, 0.0, 0.5, 2.0], int(rng.randint(1, 5)))
        )
        # demand can sit below must-run output plus the wind reserve
        demand = rng.uniform(0.0, 6.0, (t_len, n)) * (rng.rand(t_len, n) < 0.9)
        wind = rng.uniform(0.0, 4.0, (t_len, n)) * (rng.rand(t_len, n) < 0.7)
        wind[:, 0] = rng.uniform(0.5, 4.0, t_len)  # the attacked area's
        scn = DispatchScenario(
            model=dispatch_model(n), demand=demand, wind_available=wind, generators=gens,
            shed_cost=float(rng.uniform(5.0, 40.0) if cheap_shed else 1000.0),
            base_power=float(rng.choice([1.0, 100.0])), min_online_fraction=online,
        )
        stab = None
        if attacked:
            # pres = 0.5 * kc reaches 1.25, beyond half of some wind draws
            gain = 3.0
            tabs = [ceiling_table(0, gain, gain - float(rng.uniform(0.0, 2.5)))]
            if n > 1:  # a covered area without gain keeps its droop at zero
                tabs.append(ceiling_table(1, gain, gain / 2.0))
            stab = StabilityConstraintSet(tuple(tabs), [gain] + [0.0] * (n - 1))
        try:
            sol, failure = solve_cred(scn, stab, allow_shed=allow_shed), None
        except InfeasibleError as exc:
            sol, failure = None, str(exc)
        floors = []  # (period's scenario, its droop, its held segments)
        for t in range(t_len):
            period = period_scenario(scn, t)
            try:
                floors.append((period, *dispatch._droop_floor(period, stab)[:2]))
            except InfeasibleError as exc:
                # no droop fits the period's wind: the droop search names the
                # first such period before any period is dispatched
                assert str(exc) == BAND_MESSAGE.format(0)
                assert failure == BAND_MESSAGE.format(t)
                return
        for t, (period, kc, held) in enumerate(floors):
            problem = build_cred_milp(period, kc, allow_shed=allow_shed)
            assert_wind_in_band(period, kc, problem)
            ref = solve_lp(problem.program)
            status, objective, _ = solve_with_highs(problem.program)
            assert ref.status == status
            if status == "infeasible":
                # the merit order names the first infeasible period
                assert failure == f"dispatch infeasible in period {t}" + (
                    "" if allow_shed else " (shedding disabled)")
                return
            if sol is None:
                continue  # a later period is infeasible
            assert sol.lp_count == sol.simplex_iterations == 0
            for value in (ref.objective_value, objective):
                assert sol.per_period_cost[t] == pytest.approx(value, rel=1e-9, abs=1e-9)
            assert {(t, *key[1:]): sol.held_segments[(t, *key[1:])] for key in held} \
                == {(t, *key[1:]): m for key, m in held.items()}
            assert np.array_equal(sol.droop[t], kc[0])
            assert np.array_equal(sol.wind_reserve[t], scn.model.omega_max * kc[0])
            if tied_moves(scn, sol, t, allow_shed):
                continue  # an alternative optimum; the simplex may pick another
            (values,) = ref.values[block_columns(period, problem.program)]
            for name, part in dispatch._columns(period).items():
                assert getattr(sol, name)[t] == pytest.approx(values[part], abs=1e-9)
        assert sol is not None


class TestNonFiniteInputs:
    """A NaN or infinite input fails when its spec is built, before any dispatch path."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", [
        "marginal_cost", "p_min", "p_max", "demand", "wind_available", "shed_cost", "base_power",
        "soc_min", "soc_max", "efficiency", "power_limit", "energy", "soc_initial",
        "robust_gains", "strict_margin", "settle_margin",
    ])
    def test_rejected_at_construction(self, one_area_model, field, value):
        gen = dict(area=0, marginal_cost=10.0, p_min=0.0, p_max=12.0, committed=(1,))
        stor = dict(area=0, soc_min=0.1, soc_max=0.9, efficiency=0.9, power_limit=3.0,
                    energy=6.0, soc_initial=0.5)
        scn = dict(model=one_area_model, demand=[[10.0]], wind_available=[[4.0]],
                   shed_cost=1000.0, base_power=1.0)
        stab = dict(tables=(), robust_gains=[3.0], strict_margin=1e-6, settle_margin=0.0)
        for spec in (gen, stor, scn, stab):
            if field in spec:
                spec[field] = {"demand": [[value]], "wind_available": [[value]],
                               "robust_gains": [value]}.get(field, value)
        with pytest.raises(BuildError):
            DispatchScenario(generators=(GeneratorSpec(**gen),), storage=(StorageSpec(**stor),),
                             **scn)
            StabilityConstraintSet(**stab)


class TestSpecChecks:
    """Each construction check of a dispatch spec raises BuildError with its own text."""

    @pytest.mark.parametrize("spec, edit, message", [
        ("gen", dict(p_min=-1.0), "generator in area 0: need 0 <= p_min <= p_max"),
        ("gen", dict(p_min=13.0), "generator in area 0: need 0 <= p_min <= p_max"),
        ("stor", dict(soc_max=0.1), "storage needs 0 <= soc_min < soc_max <= 1"),
        ("stor", dict(efficiency=0.0), "storage efficiency must lie in (0, 1]"),
        ("stor", dict(energy=0.0), "storage power/energy limits must be positive"),
        ("stor", dict(soc_initial=0.95), "soc_initial outside [soc_min, soc_max]"),
        ("scn", dict(demand=[10.0]), "demand must be (T, 1)"),
        ("scn", dict(wind_available=[[4.0], [4.0]]), "wind_available must match demand shape"),
        ("scn", dict(demand=[[-1.0]]), "demand and wind availability must be >= 0"),
        ("gen", dict(area=1), "generator area 1 out of range"),
        ("stor", dict(area=-1), "storage area -1 out of range"),
        ("scn", dict(shed_cost=-1.0),
         "shed_cost must be >= 0 and min_online_fraction within [0, 1]"),
        ("scn", dict(min_online_fraction=1.5),
         "shed_cost must be >= 0 and min_online_fraction within [0, 1]"),
    ], ids=["p_min_negative", "p_min_above_p_max", "soc_range", "efficiency", "energy",
            "soc_initial", "demand_shape", "wind_shape", "demand_negative", "generator_area",
            "storage_area", "shed_cost", "min_online_fraction"])
    def test_each_check_names_its_fault(self, one_area_model, spec, edit, message):
        specs = dict(
            gen=dict(area=0, marginal_cost=10.0, p_min=0.0, p_max=12.0, committed=(1,)),
            stor=dict(area=0, soc_min=0.1, soc_max=0.9, efficiency=0.9, power_limit=3.0,
                      energy=6.0, soc_initial=0.5),
            scn=dict(model=one_area_model, demand=[[10.0]], wind_available=[[4.0]],
                     shed_cost=1000.0, base_power=1.0))
        specs[spec].update(edit)
        with pytest.raises(BuildError, match=f"^{re.escape(message)}$"):
            DispatchScenario(generators=(GeneratorSpec(**specs["gen"]),),
                             storage=(StorageSpec(**specs["stor"]),), **specs["scn"])

    def test_droop_floor_needs_a_gain_per_area(self, one_area_model):
        stab = StabilityConstraintSet((), [3.0, 0.0])
        with pytest.raises(BuildError, match=r"^robust_gains must have shape \(1,\)$"):
            solve_cred(toy_scenario(one_area_model), stab)


class TestStabilityConstraintSet:
    """The stability rows are checked and derived once, when the set is built."""

    def test_checks_each_table(self):
        base = complex(-1.0, 2.0)
        tab = anchored_table(0, 1, base, [(0.0, 0.0, 0.5), (1.0, 0.2, -0.5)], 2.0)
        with pytest.raises(BuildError, match=r"^duplicate segment table for pair \(0, 1\)$"):
            StabilityConstraintSet((tab, tab), [0.0, 2.0])
        late = anchored_table(0, 1, base, [(0.5, 0.0, 0.5)], 2.0)
        with pytest.raises(BuildError) as info:
            StabilityConstraintSet((late,), [0.0, 2.0])
        assert str(info.value) == "table for pair (0,1) has no first anchor at abscissa 0"
        # a negative range covers no robust gain, a zero one included
        negative = anchored_table(0, 1, base, [(0.0, 0.0, 0.5)], -2.0)
        with pytest.raises(CoverageError) as info:
            StabilityConstraintSet((negative,), [0.0, 0.0])
        assert str(info.value) == "table for pair (0,1) covers [0, -2] but robust gain is 0"
        with pytest.raises(CoverageError) as info:
            StabilityConstraintSet((tab,), [0.0, 2.5])
        assert str(info.value) == "table for pair (0,1) covers [0, 2] but robust gain is 2.5"
        # an area outside the robust gains is no area: not an IndexError, nor the last area
        for area in (3, -1):
            stray = anchored_table(0, area, base, [(0.0, 0.0, 0.5)], 2.0)
            with pytest.raises(BuildError) as info:
                StabilityConstraintSet((stray,), [0.0, 1.0])
            assert str(info.value) == (f"table for pair (0,{area}) names no area of the 2 "
                                       "robust gains")
        # a table covers its gain to 1e-12, and a gainless area's table is kept but not live
        StabilityConstraintSet((tab,), [0.0, 2.0 + 1e-13])
        assert StabilityConstraintSet((tab,), [0.0, 0.0]).segments == {}
        # a robust gain is never negative, however slightly
        with pytest.raises(BuildError) as info:
            StabilityConstraintSet((tab,), [-1e-12, 2.0])
        assert str(info.value) == "robust gains must be >= 0"
        # the margins a WorkflowConfig rejects first stay checked for direct callers
        for margins in (dict(strict_margin=0.0), dict(settle_margin=-0.01)):
            with pytest.raises(BuildError) as info:
                StabilityConstraintSet((tab,), [0.0, 2.0], **margins)
            assert str(info.value) == "need strict_margin > 0 and settle_margin >= 0"

    def test_derives_the_rows(self):
        rng = np.random.RandomState(3)
        gain, strict, settle = 3.0, 1e-3, 0.1
        tabs = (random_table(rng, 2, complex(-0.5, 1.0), gain, area=1),
                random_table(rng, 0, complex(-1.0, 2.0), gain, area=1),
                idle_table(random_table(rng, 0, complex(-1.0, 2.0), gain), area=0),
                random_table(rng, 0, complex(-1.0, 2.0), gain, area=2))
        stab = StabilityConstraintSet(tabs, [0.0, gain, gain], strict_margin=strict,
                                      settle_margin=settle)
        assert list(stab.by_pair) == [(0, 0), (0, 1), (0, 2), (2, 1)]
        assert all(stab.by_pair[(tab.eigen_index, tab.area)] is tab for tab in tabs)
        assert list(stab.segments) == [(0, 1), (0, 2), (2, 1)]  # area 0 has no gain
        for (i, a), segs in stab.segments.items():
            pts = stab.by_pair[(i, a)].points
            assert [seg[0] for seg in segs] == [p.abscissa for p in pts]
            assert [seg[1] for seg in segs] == [p.abscissa - strict for p in pts[1:]] + [gain]
            for (phi, _, slope, offset), p in zip(segs, pts):
                # the row's shift on the segment is the table's estimate
                k = phi + 0.25 * rng.rand()
                assert slope * k + offset == pytest.approx(
                    (p.slope * (k - phi) + p.eigenvalue).real - pts[0].eigenvalue.real,
                    abs=1e-12)
        assert stab.bounds == {0: -(strict + settle) + 1.0, 2: -(strict + settle) + 0.5}


class TestPrecheck:
    def test_small_gain_stable(self, one_area_model):
        scn = toy_scenario(one_area_model)
        report = stability_precheck(scn, toy_attack(1.0))
        assert report.stable

    def test_large_gain_unstable(self, one_area_model):
        scn = toy_scenario(one_area_model)
        report = stability_precheck(scn, toy_attack(3.0))
        assert not report.stable

    def test_matches_time_domain(self, one_area_model):
        from cred.simulate import classify_trajectory, simulate

        scn = toy_scenario(one_area_model)
        for gain in (1.0, 3.0):
            attack = toy_attack(gain)
            report = stability_precheck(scn, attack)
            ss = build_state_space(scn.model, attack, DroopSchedule.none(1))
            traj = simulate(ss, np.array([0.5]), t_step=1.0, t_end=60.0, dt=0.01)
            label = classify_trajectory(traj)
            assert (label == "decaying") == report.stable


class TestValidate:
    def test_accepts_solved_point(self, one_area_model):
        scn = toy_scenario(one_area_model)
        stab = toy_stability(one_area_model)
        sol = solve_cred(scn, stab)
        cert = validate_solution(scn, sol, toy_attack(), stab)
        assert np.all(cert.max_real < -stab.strict_margin / 2.0)
        assert cert.estimate_discrepancy <= 0.02

    def test_rejects_corrupted_droop(self, one_area_model):
        scn = toy_scenario(one_area_model)
        stab = toy_stability(one_area_model)
        sol = solve_cred(scn, stab)
        sol.droop = sol.droop / 2.0
        with pytest.raises(ValidationFailure):
            validate_solution(scn, sol, toy_attack(), stab)

    def test_full_cancellation_recovers_base_margin(self, one_area_model):
        scn = toy_scenario(one_area_model)
        stab = toy_stability(one_area_model)
        sol = solve_cred(scn, stab)
        sol.droop = np.full_like(sol.droop, 3.0)
        cert = validate_solution(scn, sol, toy_attack(), stab)
        base = build_state_space(scn.model, AttackProfile.none(1), DroopSchedule.none(1))
        base_margin = is_stable(eigen_decompose(base)).max_real
        assert cert.max_real[0] == base_margin

    def test_discrepancy_matches_in_the_complex_plane(self):
        # an estimate beside exact eigenvalue a with the real part of another
        # eigenvalue b: the exact value nearest to it is a, so the gap is
        # |Re a - Re b|, where matching by real part alone finds b and zero
        bundle = scenario_from_dict(three_area_system())
        rep = run_workflow(WorkflowConfig(mode="worst_case"), bundle=bundle)
        scn, sol, gains = bundle.dispatch, rep.solution, np.array(rep.robust_gains)
        attack = desk_attack(bundle, gains)
        eigs = validate_solution(scn, sol, attack).worst_eigenvalues
        a, b = next((a, b) for a in eigs for b in eigs if b.real != a.real
                    and eigs[np.argmin(np.abs(eigs - complex(b.real, a.imag)))] == a)
        est = complex(b.real, a.imag)
        area = int(np.argmax(gains))
        tab = SegmentTable(0, area, (LinearizationPoint(0.0, est, 0j),), float(gains[area]),
                           est, np.zeros(0), np.zeros(0))
        cert = validate_solution(scn, sol, attack, StabilityConstraintSet((tab,), gains))
        assert cert.estimate_discrepancy == pytest.approx(abs(a.real - b.real), rel=1e-12)
        assert cert.estimate_discrepancy > 1e-3

    def test_droop_above_the_robust_gain_skips_the_estimate(self, one_area_model):
        # the net gain 3 - droop lies in the table at droop 3, below it at 3.5
        scn = toy_scenario(one_area_model)
        stab = toy_stability(one_area_model)
        sol = solve_cred(scn, stab)
        sol.droop = np.full_like(sol.droop, 3.0)
        assert validate_solution(scn, sol, toy_attack(), stab).estimate_discrepancy is not None
        sol.droop = np.full_like(sol.droop, 3.5)
        cert = validate_solution(scn, sol, toy_attack(), stab)
        assert cert.estimate_discrepancy is None
        assert cert.max_real[0] < 0.0

    def test_settle_shortfall(self, one_area_model):
        scn = toy_scenario(one_area_model)
        for settle in (0.0, 0.5):
            stab = toy_stability(one_area_model, settle=settle)
            cert = validate_solution(scn, solve_cred(scn, stab), toy_attack(), stab)
            assert cert.settle_shortfall == max(0.0, cert.max_real.max() + settle)
        # the toy's base margin is 1 and its eps_lim 0.02, so a 0.5 target is met
        assert cert.settle_shortfall == 0.0
        loose = toy_stability(one_area_model, settle=0.5)
        sol = solve_cred(scn, loose)
        sol.droop = sol.droop * 0.9
        assert validate_solution(scn, sol, toy_attack(), loose).settle_shortfall > 0.0

    def test_one_eigensolve_per_distinct_state_matrix(self, monkeypatch):
        bundle = scenario_from_dict(three_area_system())
        rep = run_workflow(WorkflowConfig(mode="worst_case"), bundle=bundle)
        scn, sol, gains = bundle.dispatch, rep.solution, rep.robust_gains
        assert np.all(sol.droop == sol.droop[0])  # the one-area floor pins every period
        calls = []

        def counting(ss):
            calls.append(ss)
            return eigen_decompose(ss)

        monkeypatch.setattr(dispatch, "eigen_decompose", counting)
        attack = desk_attack(bundle, gains)
        shared = validate_solution(scn, sol, attack)
        assert len(calls) == 1
        assert np.all(shared.max_real == is_stable(eigen_decompose(calls[0])).max_real)
        # distinct droop rows get their own spectrum, equal to a per-period solve
        sol.droop = sol.droop * np.linspace(1.0, 1.3, scn.n_periods)[:, None]
        calls.clear()
        cert = validate_solution(scn, sol, attack)
        assert len(calls) == scn.n_periods
        for t, ss in enumerate(calls):
            assert cert.max_real[t] == is_stable(eigen_decompose(ss)).max_real


class TestCostIncrement:
    def test_identity(self):
        assert cost_increment(60.0, 60.0) == 0.0

    def test_toy_value(self, one_area_model):
        scn = toy_scenario(one_area_model)
        base = solve_cred(scn, None).total_cost
        cred = solve_cred(scn, toy_stability(one_area_model)).total_cost
        # 0.5 MW of wind deloaded, replaced by thermal at +10/MWh
        assert cost_increment(base, cred) == pytest.approx(5.0, abs=1e-4)

    def test_negative_increment_rejected(self):
        with pytest.raises(NumericalError):
            cost_increment(60.0, 59.0)


class TestDeskMonotonicity:
    def test_cost_non_decreasing_in_gain_with_multiple_segments(self):
        from cred.scenario import scenario_from_dict
        from cred.systems import three_area_system

        bundle = scenario_from_dict(three_area_system())
        scn = bundle.dispatch
        costs = []
        for gain in (10.0, 14.0, 18.0, 22.0, 25.0):
            gains = np.array([0.0, gain, 0.0])
            tab = build_segment_table(sweep_loci(scn.model, 1, gain, gain / 200.0), 5, 0.02)
            stab = StabilityConstraintSet((tab,), gains, settle_margin=0.05)
            costs.append(solve_cred(scn, stab).total_cost)
        assert all(b >= a - 1e-6 for a, b in zip(costs, costs[1:]))
        assert costs[-1] > costs[0]


class TestRobustSubstitution:
    def test_gain_replacement_is_pure(self, one_area_model):
        scn = toy_scenario(one_area_model)
        est = AttackEstimate([2.4], [0.1], [100])
        gains = robust_gain(est, 0.9)
        collapsed = robust_gain(AttackEstimate(gains, [0.0], [100]), 0.5)
        assert np.array_equal(gains, collapsed)
        tab1 = build_segment_table(
            sweep_loci(one_area_model, 0, float(gains[0]), float(gains[0]) / 200.0), 1, 0.02)
        tab2 = build_segment_table(
            sweep_loci(one_area_model, 0, float(collapsed[0]), float(collapsed[0]) / 200.0), 1, 0.02)
        p1, p2 = (build_cred_milp(scn, dispatch._droop_floor(scn, stab)[0])
                  for stab in (StabilityConstraintSet((tab1,), gains),
                               StabilityConstraintSet((tab2,), collapsed)))
        assert np.array_equal(p1.program.lhs, p2.program.lhs)
        assert np.array_equal(p1.program.rhs, p2.program.rhs)
        assert np.array_equal(p1.program.objective, p2.program.objective)
        assert np.array_equal(p1.program.bounds, p2.program.bounds)


class TestOrdering:
    def test_worst_dr_mean_cost_ordering(self, one_area_model):
        scn = toy_scenario(one_area_model)
        mean, sigma = 2.5, 0.1
        dr = float(robust_gain(AttackEstimate([mean], [sigma], [50]), 0.95)[0])
        costs = {}
        for name, gain in (("worst", 3.0), ("dr", dr), ("mean", mean)):
            stab = toy_stability(one_area_model, gain=gain)
            costs[name] = solve_cred(scn, stab).total_cost
        assert costs["worst"] >= costs["dr"] >= costs["mean"]


class TestRandomizedInstances:
    def test_random_scenarios_solve_and_certify(self, rng):
        """Fuzz the whole chain: screen, linearize, solve, certify."""
        from cred.linearize import select_critical_pairs
        from oracles import random_system_model

        solved = 0
        attempts = 0
        while solved < 12 and attempts < 120:
            attempts += 1
            model = random_system_model(rng)
            n = model.areas
            area = int(rng.randint(0, n))
            if model.ibr_max_power[area] < 0.5:
                continue
            gain = float(model.vulnerable_load[area] / (2.0 * model.omega_max))
            gains = np.zeros(n)
            gains[area] = gain
            if gain <= 0.1:
                continue
            sweep = sweep_loci(model, area, gain, gain / 100.0)
            try:
                pairs = select_critical_pairs((sweep,), 0.05)
                tabs = tuple(build_segment_table(sweep, i, 0.02) for i, _ in pairs)
            except CredError:
                continue  # degenerate or tracking breakdown: not this draw
            if not pairs:
                continue
            demand = model.secure_load + model.vulnerable_load
            avail = np.minimum(model.ibr_max_power, demand * 0.4)
            scn = DispatchScenario(
                model=model,
                demand=[list(demand)],
                wind_available=[list(avail)],
                generators=tuple(
                    GeneratorSpec(a, 20.0 + 10.0 * a, 0.0, float(demand.sum()), (1,))
                    for a in range(n)
                ),
                shed_cost=500.0,
                base_power=1.0,
            )
            stab = StabilityConstraintSet(tabs, gains, settle_margin=0.05)
            try:
                sol = solve_cred(scn, stab, allow_shed=True)
            except InfeasibleError:
                continue  # not enough wind headroom for the needed droop
            cert = validate_solution(scn, sol, AttackProfile(gains, np.zeros(n), (area,)), stab)
            assert np.all(cert.max_real < 0.0)
            bal = (sol.sg_power[0].sum() + sol.wind_power[0].sum()
                   + sol.shed[0].sum() - scn.demand[0].sum())
            assert abs(bal) <= 1e-6
            program, _ = joint_cred_milp(scn, stab, allow_shed=True)
            if len(program[1]) <= 9:
                status, obj, _ = enumerate_milp(*program)
                assert status == "optimal"
                assert sol.total_cost == pytest.approx(obj, rel=1e-9)
            solved += 1
        assert solved >= 12


class TestStorage:
    def test_forced_discharge_and_recursion(self, one_area_model):
        scn = DispatchScenario(
            model=one_area_model,
            demand=[[8.0], [12.0], [8.0]],
            wind_available=[[0.0], [0.0], [0.0]],
            generators=(GeneratorSpec(0, 30.0, 0.0, 10.0, (1, 1, 1)),),
            shed_cost=1000.0,
            base_power=1.0,
            storage=(StorageSpec(0, 0.1, 0.9, 0.9, 3.0, 6.0, soc_initial=0.5),),
        )
        sol = solve_cred(scn, None)
        assert sol.storage_discharge[1, 0] >= 2.0 - 1e-9
        eff, energy = 0.9, 6.0
        soc_prev = 0.5
        for t in range(3):
            net = (eff * sol.storage_charge[t, 0]
                   - sol.storage_discharge[t, 0] / eff) / energy
            assert sol.storage_soc[t, 0] == pytest.approx(soc_prev + net, abs=1e-9)
            soc_prev = sol.storage_soc[t, 0]
            assert 0.1 - 1e-9 <= sol.storage_soc[t, 0] <= 0.9 + 1e-9
            assert min(sol.storage_charge[t, 0], sol.storage_discharge[t, 0]) <= 1e-9
            bal = (sol.sg_power[t].sum() + sol.storage_discharge[t, 0]
                   - sol.storage_charge[t, 0] - scn.demand[t].sum())
            assert abs(bal) <= 1e-9
        assert sol.storage_soc[2, 0] == pytest.approx(0.5, abs=1e-9)

    def test_storage_solve_that_stops_short_raises(self, monkeypatch):
        scn = scenario_from_dict(three_area_with_storage()).dispatch
        monkeypatch.setattr(dispatch, "solve_lp", lambda lp: SolveResult("iteration_limit"))
        with pytest.raises(NumericalError) as info:
            solve_cred(scn, None, allow_shed=True)
        assert str(info.value) == "dispatch solve ended with status iteration_limit"

    def test_monolithic_matches_per_period_without_storage(self, one_area_model):
        scn = DispatchScenario(
            model=one_area_model,
            demand=[[10.0], [9.0]],
            wind_available=[[4.0], [3.0]],
            generators=(GeneratorSpec(0, 10.0, 0.0, 12.0, (1, 1)),),
            shed_cost=1000.0,
            base_power=1.0,
        )
        stab = toy_stability(one_area_model)
        stitched = solve_cred(scn, stab)
        mono = solve_lp(build_cred_milp(scn, dispatch._droop_floor(scn, stab)[0]).program)
        assert mono.optimal
        assert mono.objective_value == pytest.approx(stitched.total_cost, abs=1e-6)


def two_area_desk():
    """The desk with area 1 attacked too; no wind there, so its attack is not damped locally."""
    doc = three_area_system()
    doc["areas"][0]["vulnerable_load"] = 600.0
    doc["areas"][0]["secure_load"] = 3200.0
    doc["attack"]["areas"] = [0, 1]
    return doc


def record_solves(monkeypatch):
    """Every dispatch the workflow solves, with the LPs it solves.

    Returns a list that fills with [scn, stab, allow_shed, builds, programs,
    sol] per solve_cred call: builds lists the droop and result (kc,
    CredMilp) of its build_cred_milp calls, each checked by
    assert_wind_in_band, programs the LPs it hands to solve_lp (the droop
    search's cell LPs, then the storage LP), and sol is its solution, or
    None when it raised InfeasibleError.
    """
    calls = []
    solve, build, lp_solve = workflow.solve_cred, dispatch.build_cred_milp, dispatch.solve_lp

    def solving(scn, stab, allow_shed=False):
        calls.append([scn, stab, allow_shed, [], [], None])
        calls[-1][5] = solve(scn, stab, allow_shed=allow_shed)
        return calls[-1][5]

    def building(scn, kc, allow_shed=False):
        problem = build(scn, kc, allow_shed=allow_shed)
        assert_wind_in_band(scn, kc, problem)
        calls[-1][3].append((kc, problem))
        return problem

    def lp_solving(lp):
        calls[-1][4].append(lp)
        return lp_solve(lp)

    monkeypatch.setattr(workflow, "solve_cred", solving)
    monkeypatch.setattr(dispatch, "build_cred_milp", building)
    monkeypatch.setattr(dispatch, "solve_lp", lp_solving)
    monkeypatch.setattr(rows, "solve_lp", lp_solving)
    return calls


def multi_area(stab) -> bool:
    """Whether tables of a positive gain cover two or more areas: the droop search then solves LPs."""
    return stab is not None and len({a for _, a in stab.segments}) > 1


def net_gain_bands(scn, stab) -> np.ndarray:
    """(T, N): per period, the lower net-gain bound of each area that fits its wind band.

    _droop_floor searches once per distinct row, restricted to the
    attacked areas, on one attacked area as on several.
    """
    gains = stab.robust_gains
    return np.clip(gains - scn.wind_available / (2.0 * scn.model.omega_max), 0.0, gains)


def distinct_bands(scn, stab) -> dict:
    """{band of the attacked areas: its first period} over the periods of an attack."""
    areas = sorted({a for _, a in stab.segments})
    out = {}
    for t, band in enumerate(net_gain_bands(scn, stab)):
        out.setdefault(tuple(band[areas]), t)
    return out


def assert_matches_joint_mip(scn, stab, allow_shed, sol, periods=None):
    """The cost of sol over periods equals HiGHS's joint optimum; sol None means infeasible."""
    program, _ = joint_cred_milp(scn, stab, allow_shed=allow_shed, periods=periods)
    status, objective, _ = solve_with_highs(*program)
    if sol is None:
        assert status == "infeasible"
        return
    assert status == "optimal"
    periods = range(scn.n_periods) if periods is None else periods
    cost = sum(sol.per_period_cost[t] for t in periods)
    assert cost == pytest.approx(objective, rel=1e-9, abs=1e-9)


class TestSecondSolver:
    """The in-tree solver and HiGHS agree on the dispatches the workflow solves."""

    @pytest.mark.parametrize("doc, allow_shed", [
        (three_area_system(), False),
        (three_area_system(vulnerable_fraction=0.5), True),
        (three_area_with_storage(), False),
        (two_area_desk(), False),
    ], ids=["desk_worst_case", "desk_vf0.5_shed", "storage_T4", "desk_two_area"])
    def test_matches_highs(self, monkeypatch, doc, allow_shed):
        calls = record_solves(monkeypatch)
        bundle = scenario_from_dict(doc)
        run_workflow(WorkflowConfig(mode="worst_case"), bundle=bundle)
        assert calls
        for scn, stab, shed, builds, programs, sol in calls:
            # every dispatch has the joint dispatch-plus-stability MIP's optimum
            assert_matches_joint_mip(scn, stab, shed, sol)
            # a storage horizon builds one LP; a storage-free one builds nothing
            assert len(builds) == bool(scn.storage)
            # the droop search's cell LPs, one variable per attacked area, then the storage LP
            cells = programs[:len(programs) - len(builds)]
            assert bool(cells) == multi_area(stab)
            assert all(lp.n_vars == len({a for _, a in stab.segments}) for lp in cells)
            if sol is not None:
                assert sol.lp_count == len(programs)
            for program in programs:
                mine = solve_lp(program)
                status, objective, _ = solve_with_highs(program)
                assert mine.status == status
                if status == "optimal":
                    assert mine.objective_value == pytest.approx(objective, rel=1e-9, abs=1e-12)
        final = [call for call in calls if call[1] is not None and call[2] == allow_shed]
        assert final and final[-1][5] is not None

    def test_package_loads_no_scipy(self):
        # HiGHS and scipy.linalg.expm stay test-only oracles: no SciPy module
        # loads with the package or with a simulate call, since importing
        # one costs every run's start-up and memory
        src = str(Path(dispatch.__file__).parent.parent)
        probe = (
            "import sys, numpy as np, cred, cred.cli\n"
            "from cred.grid import StateSpace\n"
            "from cred.simulate import simulate\n"
            "def scipy_modules():\n"
            "    return [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
            "assert not scipy_modules()\n"
            "e = np.diag([1.0, -1.0])\n"
            "s = np.array([[0.0, 1.0], [-5.0, -2.0]])\n"
            "traj = simulate(StateSpace(e, s, np.zeros(2)), np.array([0.1]), t_end=2.0)\n"
            "assert not scipy_modules() and not traj.diverged\n"
        )
        assert subprocess.run([sys.executable, "-c", probe], cwd=src).returncode == 0


class TestPeriodPrograms:
    """Each period of a storage-free dispatch equals that period's joint MIP on its own.

    The droop of a multi-area attack comes from one search per distinct
    wind band, shared by the periods with that band; a one-area attack's
    search solves no LP.
    """

    @pytest.mark.parametrize("case", ["desk_worst_case", "desk_vf0.5_shed", "toy",
                                      "desk_two_area"])
    def test_equal_fresh_single_period_builds(self, monkeypatch, case):
        from cred.systems import single_area_toy

        doc = {"desk_worst_case": three_area_system,
               "desk_vf0.5_shed": lambda: three_area_system(vulnerable_fraction=0.5),
               "toy": single_area_toy, "desk_two_area": two_area_desk}[case]()
        calls = record_solves(monkeypatch)
        rep = run_workflow(WorkflowConfig(mode="worst_case"), bundle=scenario_from_dict(doc))
        assert rep.branch_taken == ("cred_infeasible_shed" if case == "desk_vf0.5_shed"
                                    else "cred_applied")
        assert calls
        for scn, stab, allow_shed, builds, programs, sol in calls:
            assert not builds
            for periods in [None] if sol is None else [[t] for t in range(scn.n_periods)]:
                assert_matches_joint_mip(scn, stab, allow_shed, sol, periods=periods)
            if sol is None or not multi_area(stab):
                assert not programs
                continue
            assert case == "desk_two_area"
            # the search over period t's band sets its droop and held segments
            firsts = distinct_bands(scn, stab).values()
            assert len(firsts) < scn.n_periods
            n_cells = len(programs)  # before the searches below add theirs
            searches = [stab.net_gain_max(band) for band in net_gain_bands(scn, stab)]
            assert n_cells == sol.lp_count == sum(searches[t][2] for t in firsts)
            for t, (knet, held, _, _) in enumerate(searches):
                for a, k in knet.items():
                    assert sol.droop[t, a] == stab.robust_gains[a] - k
                assert {(i, a): m for (s, i, a), m in sol.held_segments.items() if s == t} \
                    == held and set(held) == set(stab.segments)


def multi_area_draw(seed):
    """A random dispatch with two to four attacked areas and synthetic tables.

    2-4 areas, 1-3 periods, 1-4 generators, storage in about 40% of draws,
    each attacked area with a table of each of 1-3 eigenvalues; returns
    (scn, stab, allow_shed).
    """
    rng = np.random.RandomState(seed)
    n, t_len = int(rng.randint(2, 5)), int(rng.randint(1, 4))
    gens = tuple(
        GeneratorSpec(int(rng.randint(n)), float(rng.uniform(5.0, 80.0)), p_min,
                      p_min + float(rng.uniform(0.0, 8.0)),
                      tuple(int(u) for u in rng.rand(t_len) < 0.8))
        for p_min in rng.choice([0.0, 0.0, 0.5, 2.0], int(rng.randint(1, 5))))
    storage = ()
    if rng.rand() < 0.4:
        storage = tuple(StorageSpec(int(rng.randint(n)), 0.1, 0.9, float(rng.uniform(0.8, 1.0)),
                                    float(rng.uniform(0.5, 3.0)), float(rng.uniform(1.0, 8.0)),
                                    soc_initial=float(rng.uniform(0.2, 0.8)))
                        for _ in range(int(rng.randint(1, 3))))
    attacked = sorted(int(a) for a in rng.choice(n, int(rng.randint(2, n + 1)), replace=False))
    scn = DispatchScenario(
        model=dispatch_model(n), demand=rng.uniform(0.0, 6.0, (t_len, n)),
        wind_available=rng.uniform(0.0, 4.0, (t_len, n)), generators=gens,
        shed_cost=float(rng.choice([20.0, 1000.0])), base_power=1.0,
        min_online_fraction=float(rng.choice([0.0, 0.3])), storage=storage)
    gains = np.zeros(n)
    gains[attacked] = rng.uniform(0.5, 4.0, len(attacked))
    bases = [complex(rng.uniform(-2.0, 0.1), 2.0 + i) for i in range(int(rng.randint(1, 4)))]
    tabs = tuple(random_table(rng, i, base, float(gains[a]), a)
                 for i, base in enumerate(bases) for a in attacked)
    stab = StabilityConstraintSet(tabs, gains, settle_margin=float(rng.uniform(0.0, 0.3)))
    return scn, stab, bool(rng.rand() < 0.5)


class TestMultiAreaDispatch:
    """solve_cred against HiGHS on the joint dispatch-plus-stability MIP, with and without storage."""

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_joint_mip(self, seed):
        scn, stab, allow_shed = multi_area_draw(seed)
        try:
            sol = solve_cred(scn, stab, allow_shed=allow_shed)
        except InfeasibleError:
            sol = None
        assert_matches_joint_mip(scn, stab, allow_shed, sol)
        if sol is not None:
            gains = stab.robust_gains
            # the chosen droop fits each area's wind band and meets every stability row
            assert np.all(2.0 * scn.model.omega_max * sol.droop
                          <= scn.wind_available + 1e-9)
            for t in range(scn.n_periods):
                shift = {}
                for (i, a), segs in stab.segments.items():
                    tab = stab.by_pair[(i, a)]
                    lo, hi, slope, offset = segs[sol.held_segments[(t, i, a)]]
                    k = gains[a] - sol.droop[t, a]
                    assert lo - 1e-9 <= k <= hi + 1e-9
                    shift[i] = shift.get(i, 0.0) + slope * k + offset
                    # the table estimate reads the held segment, also where k
                    # lies a round-off below its anchor (seed 72: 3e-16)
                    assert evaluate_piecewise(tab, k).real == pytest.approx(slope * k + offset,
                                                                            abs=1e-9)
                assert all(value <= stab.bounds[i] + 1e-9 for i, value in shift.items())


def anchored_table(eigen_index, area, base, points, range_end):
    """Table of (abscissa, shift, slope) anchors: each adds slope (k - abscissa) + shift to its row."""
    return SegmentTable(eigen_index, area,
                        tuple(LinearizationPoint(phi, base + shift, complex(slope, 0.0))
                              for phi, shift, slope in points),
                        range_end, base, np.zeros(0), np.zeros(0))


class TestCellSearch:
    """StabilityConstraintSet.net_gain_max, the droop search, against the net-gain MIP and by case."""

    def test_matches_highs_on_every_band(self):
        """Every distinct wind band of the 100 multi-area draws: the search's total is the MIP's.

        HiGHS's raw point may break a segment top u_m <= hi_m z_m by its
        feasibility tolerance and enter a strict gap (seed 4: 1e-6 above
        the optimum); solve_with_highs polishes it, so totals agree within
        1e-9.
        """
        problems = 0
        for seed in range(100):
            scn, stab, _ = multi_area_draw(seed)
            bands = net_gain_bands(scn, stab)
            for t in distinct_bands(scn, stab).values():
                problems += 1
                found = stab.net_gain_max(bands[t])
                status, objective, _ = solve_with_highs(*net_gain_milp(stab, bands[t])[0])
                if found is None:
                    assert status == "infeasible"
                    continue
                knet, held, _, _ = found
                assert status == "optimal"
                assert sum(knet.values()) == pytest.approx(-objective, rel=0.0, abs=1e-9)
                assert_held_point(stab, bands[t], knet, held)
        assert problems == 175

    @pytest.mark.parametrize("idle_area", [False, True], ids=["one_area", "two_areas"])
    def test_no_net_gain_in_a_strict_gap(self, idle_area):
        """Two pairs of one area with anchors 5e-7 apart: neither pair's gap (p - strict, p) is returned.

        Pair A's second segment holds only net gains up to p + 3e-7, which
        lies in pair B's gap (q - strict, q); the answer is the top of the
        first cell, p - strict.  The cell of anchor q clips empty by A's
        row, so with two areas only the first cell takes an LP.
        """
        p, q, strict, gain = 1.0, 1.0 + 5e-7, 1e-6, 3.0
        # A: flat, then slope 1 from p, under a row bound of 3e-7; B: flat, anchors 0 and q
        tabs = (anchored_table(0, 0, complex(-1.3e-6, 2.0), [(0.0, 0.0, 0.0), (p, 0.0, 1.0)], gain),
                anchored_table(1, 0, complex(-1.0, 3.0), [(0.0, 0.0, 0.0), (q, 0.0, 0.0)], gain))
        if idle_area:  # a second attacked area, whose table adds nothing: the LP path
            tabs += (idle_table(tabs[0]),)
        stab = StabilityConstraintSet(tabs, [gain, gain] if idle_area else [gain],
                                      strict_margin=strict)
        knet, held, lps, _ = stab.net_gain_max()
        assert knet[0] == p - strict
        assert held[(0, 0)] == held[(1, 0)] == 0
        assert lps == (1 if idle_area else 0)
        assert not any(x - strict < knet[0] < x for x in (p, q))
        assert_held_point(stab, np.zeros(2), knet, held)

    @pytest.mark.parametrize("no_cell", [False, True], ids=["rows_unmet", "cells_empty"])
    def test_band_without_a_point_names_the_period(self, no_cell):
        """Period 1's wind holds area 0's net gain to a band no cell meets; the error names period 1.

        rows_unmet: the band [2, 3] lies above the rows' ceiling 1.
        cells_empty: without wind the band is [3, 3], and the last cell of
        anchors 2.9999999 and 3.0000004 closes below 3 - strict.
        """
        gain = 3.0
        if no_cell:
            flat = complex(-1.0, 2.0)
            tabs = (anchored_table(0, 0, flat, [(0.0, 0.0, 0.0), (2.9999999, 0.0, 0.0)], 3.5),
                    anchored_table(1, 0, flat, [(0.0, 0.0, 0.0), (3.0000004, 0.0, 0.0)], 3.5),
                    ceiling_table(1, gain, gain))
        else:
            tabs = (ceiling_table(0, gain, 1.0), ceiling_table(1, gain, 1.0))
        stab = StabilityConstraintSet(tabs, [gain, gain])
        scn = DispatchScenario(
            model=dispatch_model(2), demand=[[1.0, 1.0], [1.0, 1.0]],
            wind_available=[[4.0, 4.0], [0.0 if no_cell else 1.0, 4.0]],
            generators=(GeneratorSpec(0, 10.0, 0.0, 10.0, (1, 1)),), shed_cost=1000.0,
            base_power=1.0)
        bands = net_gain_bands(scn, stab)
        assert stab.net_gain_max(bands[0]) is not None and stab.net_gain_max(bands[1]) is None
        for solve in (dispatch._droop_floor, solve_cred):
            with pytest.raises(InfeasibleError) as info:
                solve(scn, stab)
            assert str(info.value) == BAND_MESSAGE.format(1)

    @pytest.mark.parametrize("settle", [0.05, 0.5])
    def test_three_attacked_desk_areas_match_highs(self, settle):
        """All three desk areas attacked at gain 15, with their own sweep tables: the search is the MIP's.

        The rows hold the total net gain to 24.4 (settle 0.05) or 12.8
        (0.5) of 45.  Clipping each cell's top by the rows keeps the search
        to tens of cell LPs where the untightened cell tops took 81 and 128.
        """
        model = scenario_from_dict(three_area_system()).dispatch.model
        gain = 15.0
        sweeps = [sweep_loci(model, a, gain, None) for a in range(model.areas)]
        pairs = select_critical_pairs(tuple(sweeps), settle)
        stab = StabilityConstraintSet(
            tuple(build_segment_table(sweeps[a], i, 0.02) for i, a in pairs),
            np.full(model.areas, gain), settle_margin=settle)
        knet, held, lps, _ = stab.net_gain_max()
        status, objective, _ = solve_with_highs(*net_gain_milp(stab)[0])
        assert status == "optimal" and sorted(knet) == [0, 1, 2]
        assert sum(knet.values()) == pytest.approx(-objective, rel=0.0, abs=1e-9)
        assert_held_point(stab, np.zeros(3), knet, held)
        assert lps < 80

    def test_cell_lp_cap_raises(self, monkeypatch):
        """A search that needs more cell LPs than _CELL_LP_CAP raises NumericalError."""
        stab = StabilityConstraintSet((ceiling_table(0, 3.0, 1.0), ceiling_table(1, 3.0, 1.0)),
                                      [3.0, 3.0])
        assert stab.net_gain_max()[2] == 1
        monkeypatch.setattr(rows, "_CELL_LP_CAP", 0)
        with pytest.raises(NumericalError, match="more than 0 cell LPs"):
            stab.net_gain_max()

    def test_cell_lp_at_its_iteration_limit_raises(self, monkeypatch):
        stab = StabilityConstraintSet((ceiling_table(0, 3.0, 1.0), ceiling_table(1, 3.0, 1.0)),
                                      [3.0, 3.0])
        monkeypatch.setattr(rows, "solve_lp", lambda lp: SolveResult("iteration_limit"))
        with pytest.raises(NumericalError) as info:
            stab.net_gain_max()
        assert str(info.value) == "a droop-search cell LP hit its iteration limit"

    def test_flat_segment_beyond_its_row_admits_no_net_gain(self):
        """A zero-slope segment whose row fails at every net gain clips its cell away."""
        flat = anchored_table(0, 0, complex(-1.0, 2.0), [(0.0, 0.0, 0.0)], 2.0)
        # the row reads 0 <= 1 - strict - settle: met at settle 0.5, at no k at 1.5
        assert StabilityConstraintSet((flat,), [2.0], settle_margin=0.5).net_gain_max() == (
            {0: 2.0}, {(0, 0): 0}, 0, 0)
        assert StabilityConstraintSet((flat,), [2.0], settle_margin=1.5).net_gain_max() is None

    def test_no_attacked_area_needs_no_search(self):
        """Without live tables the search returns no net gains and solves nothing."""
        stab = StabilityConstraintSet((ceiling_table(0, 3.0, 1.0),), [0.0, 0.0])
        assert stab.net_gain_max() == ({}, {}, 0, 0)

    def test_held_net_gain_sits_on_its_cell(self):
        """Seed 72's search holds area 1's net gain exactly on an anchor, never a round-off below it.

        The droop the dispatch reports is gain - k, and gain - droop can
        read k a round-off off, which evaluate_piecewise tolerates; the
        search's own k lies within its cell's bounds exactly.
        """
        scn, stab, _ = multi_area_draw(72)
        on_anchor = 0
        for band in net_gain_bands(scn, stab):
            knet, held, _, _ = stab.net_gain_max(band)
            assert_held_point(stab, band, knet, held)
            for (i, a), segs in stab.segments.items():
                tab = stab.by_pair[(i, a)]
                phi, _, slope, offset = segs[held[(i, a)]]
                on_anchor += knet[a] == phi
                assert evaluate_piecewise(tab, knet[a]).real == pytest.approx(
                    slope * knet[a] + offset, abs=1e-12)
        assert on_anchor == scn.n_periods


class TestSolveLpResidual:
    """solve_lp never calls a point optimal that leaves its rows unmet."""

    @pytest.mark.parametrize("seed", [6, 13, 31])
    def test_joint_root_lp_matches_highs_or_raises(self, seed):
        # root LPs of joint programs whose tableau drifts from B^-1: the point
        # the dual simplex ends at violates a row by 0.02 to 6
        (lp, _), _ = joint_cred_milp(*multi_area_draw(seed))
        status, objective, _ = solve_with_highs(lp)
        try:
            res = solve_lp(lp)
        except NumericalError:
            return
        assert res.status == status == "optimal"
        row = lp.lhs @ res.values - lp.rhs
        rel = np.array(lp.relations)
        residual = np.where(rel == "<=", row, np.where(rel == ">=", -row, np.abs(row)))
        assert residual.max() <= 1e-6
        assert res.objective_value == pytest.approx(objective, rel=1e-7)
