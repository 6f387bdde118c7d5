"""Acceptance criteria, one test per criterion.

Each test prints a single CRITERION line (run pytest -s to stream them) and
enforces its stated tolerance and runtime budget.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cred.dispatch import (
    DispatchScenario,
    GeneratorSpec,
    solve_cred,
    validate_solution,
)
from cred.errors import ValidationFailure
from cred.grid import (
    AttackProfile,
    DroopSchedule,
    SystemModel,
    attack_from_gains,
    build_state_space,
)
from cred.linearize import (
    build_segment_table,
    evaluate_piecewise,
    sweep_loci,
)
from cred.rows import StabilityConstraintSet
from cred.scenario import load_scenario, scenario_from_dict
from cred.simulate import classify_trajectory, simulate
from cred.stability import eigen_decompose, is_stable, sensitivity
from cred.systems import (
    TABLE_GAIN_CASES,
    single_area_toy,
    three_area_no_wind,
    three_area_system,
)
from cred.uncertainty import AttackEstimate, k_eta, robust_gain
from cred.workflow import WorkflowConfig, run_workflow, sweep_study, write_artifacts

from oracles import (
    enumerate_milp,
    fd_eigen_sensitivity,
    joint_cred_milp,
    net_gain_state_space,
    random_system_model,
    spectral_gaps,
)


@contextmanager
def criterion(number, label, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:2d} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"CRITERION {number:2d} PASS: {label} ({elapsed:.2f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def one_area(kp=2.0):
    return SystemModel(
        areas=1, inertia_sg=[1.0], inertia_ibr=[0.0], damping=[0.0],
        gov_integral=[5.0], gov_proportional=[kp], susceptance=[[0.0]],
        secure_load=[7.0], vulnerable_load=[3.0], ibr_max_power=[4.0],
        omega_max=0.5,
    )


def exact_moment_samples(mean, std, area, count=400, seed=11):
    """Draws rescaled so the sample moments hit (mean, std) exactly."""
    rng = np.random.RandomState(seed)
    z = rng.normal(size=count)
    z = (z - z.mean()) / z.std(ddof=1)
    return [{"area": area, "samples": (mean + std * z).tolist()}]


def test_criterion_1_closed_form_eigen_oracle():
    with criterion(1, "closed-form spectrum and destabilization threshold", 1.0):
        model = one_area()
        ss = build_state_space(model, AttackProfile.none(1), DroopSchedule.none(1))
        eig = eigen_decompose(ss)
        assert abs(eig.eigenvalues[0] - (-1 - 2j)) <= 1e-9
        assert abs(eig.eigenvalues[1] - (-1 + 2j)) <= 1e-9

        droop_gain = 0.5
        for gain in np.linspace(0.0, 4.0, 50):
            ss_k = build_state_space(
                model,
                AttackProfile([gain], [0.0], (0,)),
                DroopSchedule([droop_gain], [0.0]),
            )
            verdict = is_stable(eigen_decompose(ss_k))
            # closed-form roots of lambda^2 + (2 + 0.5 - gain) lambda + 5
            damping = 2.0 + droop_gain - gain
            disc = damping * damping - 20.0
            if disc < 0:
                root_max_re = -damping / 2.0
            else:
                root_max_re = (-damping + math.sqrt(disc)) / 2.0
            assert verdict.stable == (root_max_re < 0.0)
            assert verdict.stable == (gain < 2.0 + droop_gain)


def test_criterion_2_sensitivity_against_finite_differences():
    with criterion(2, "analytic sensitivities match central differences", 10.0):
        model = one_area()
        ss = build_state_space(model, AttackProfile.none(1), DroopSchedule.none(1))
        eig = eigen_decompose(ss)
        assert abs(sensitivity(model, eig, 0)[1] - (0.5 + 0.25j)) <= 1e-10

        rng = np.random.RandomState(7)
        models = 0
        while models < 100:
            m = random_system_model(rng)
            n = m.areas
            ss_m = build_state_space(m, AttackProfile.none(n), DroopSchedule.none(n))
            eig_m = eigen_decompose(ss_m)
            if spectral_gaps(eig_m.eigenvalues).min() < 1e-3:
                continue
            area = rng.randint(0, n)
            analytic = sensitivity(m, eig_m, area)
            for i in range(len(eig_m)):
                fd = fd_eigen_sensitivity(m, eig_m.eigenvalues[i], area, h=1e-5)
                # the 1e-5 floor covers finite-difference noise on
                # sensitivities that are numerically zero
                assert abs(analytic[i] - fd) <= 1e-4 * max(abs(fd), 1e-5)
            models += 1


def test_criterion_3_recursive_linearization_guarantee():
    with criterion(3, "piecewise tables bound the real-part error", 30.0):
        curved = SystemModel(
            areas=2, inertia_sg=[2.0, 4.0], inertia_ibr=[0.0, 0.0],
            damping=[0.05, 0.05], gov_integral=[6.0, 5.0],
            gov_proportional=[3.0, 2.0], susceptance=[[0.0, 2.0], [2.0, 0.0]],
            secure_load=[2.0, 2.0], vulnerable_load=[1.0, 2.0],
            ibr_max_power=[0.0, 3.0], omega_max=0.25,
        )
        tab = build_segment_table(sweep_loci(curved, 1, 8.0, 0.04), 0, 0.02)
        assert len(tab.points) >= 2
        # independent re-sweep of the construction grid
        lam_prev = tab.base_eigenvalue
        for k in tab.grid_abscissas:
            spectrum = np.linalg.eigvals(net_gain_state_space(curved, 1, k).state_matrix)
            lam_true = spectrum[np.argmin(np.abs(spectrum - lam_prev))]
            est = tab.base_eigenvalue + evaluate_piecewise(tab, float(k))
            assert abs(lam_true.real - est.real) <= 0.02 + 1e-9
            lam_prev = lam_true

        linear = build_segment_table(sweep_loci(one_area(), 0, 4.0, 0.05), 1, 0.02)
        assert len(linear.points) == 1


def _toy_scenario(model, p_max=12.0):
    return DispatchScenario(
        model=model, demand=[[10.0]], wind_available=[[4.0]],
        generators=(GeneratorSpec(0, 10.0, 0.0, p_max, (1,)),),
        shed_cost=1000.0, base_power=1.0,
    )


def test_criterion_4_milp_exactness():
    with criterion(4, "the droop search equals exhaustive enumeration", 60.0):
        model = one_area()
        tab = build_segment_table(sweep_loci(model, 0, 3.0, 3.0 / 200.0), 1, 0.02)
        stab = StabilityConstraintSet((tab,), robust_gains=[3.0], strict_margin=1e-6)
        # (dispatch, stability set, allow_shed): the droop-first dispatch must reach
        # the optimum of the joint dispatch-plus-stability MIP, where the droop is
        # a decision beside the dispatch
        cases = [(_toy_scenario(model), stab, False),
                 (_toy_scenario(model, p_max=6.2), stab, True)]

        curved = SystemModel(
            areas=2, inertia_sg=[2.0, 4.0], inertia_ibr=[0.0, 0.0],
            damping=[0.05, 0.05], gov_integral=[6.0, 5.0],
            gov_proportional=[3.0, 2.0], susceptance=[[0.0, 2.0], [2.0, 0.0]],
            secure_load=[2.0, 2.0], vulnerable_load=[3.0, 3.0],
            ibr_max_power=[0.0, 3.0], omega_max=0.25,
        )
        scn2 = DispatchScenario(
            model=curved, demand=[[3.0, 3.0]], wind_available=[[0.0, 2.5]],
            generators=(GeneratorSpec(0, 20.0, 0.0, 8.0, (1,)),
                        GeneratorSpec(1, 40.0, 0.0, 3.0, (1,))),
            shed_cost=1000.0, base_power=1.0,
        )
        tabs2 = tuple(build_segment_table(sweep_loci(curved, 1, 6.0, 0.04), i, 0.02)
                      for i in (0, 2))
        cases.append((scn2, StabilityConstraintSet(tabs2, robust_gains=[0.0, 6.0]), False))

        # both areas attacked and windy: the search solves LPs over cells of two areas
        windy = SystemModel(
            areas=2, inertia_sg=[2.0, 4.0], inertia_ibr=[0.0, 0.0],
            damping=[0.05, 0.05], gov_integral=[6.0, 5.0],
            gov_proportional=[3.0, 2.0], susceptance=[[0.0, 2.0], [2.0, 0.0]],
            secure_load=[2.0, 2.0], vulnerable_load=[3.0, 3.0],
            ibr_max_power=[3.0, 3.0], omega_max=0.25,
        )
        scn3 = DispatchScenario(
            model=windy, demand=[[3.0, 3.0]], wind_available=[[2.5, 2.5]],
            generators=scn2.generators, shed_cost=1000.0, base_power=1.0,
        )
        gains3 = [4.0, 6.0]
        tabs3 = tuple(build_segment_table(sweep_loci(windy, a, gains3[a], gains3[a] / 150.0),
                                          i, 0.02) for a in (0, 1) for i in (0, 2))
        cases.append((scn3, StabilityConstraintSet(tabs3, robust_gains=gains3), False))

        for scn_k, stab_k, allow_shed in cases:
            program, _ = joint_cred_milp(scn_k, stab_k, allow_shed=allow_shed)
            assert 0 < len(program[1]) <= 20
            status, obj, _ = enumerate_milp(*program)
            assert status == "optimal"
            sol = solve_cred(scn_k, stab_k, allow_shed=allow_shed)
            assert sol.total_cost == pytest.approx(obj, abs=1e-6)
        assert np.all(sol.droop > 0.0) and sol.lp_count > 0

        sol = solve_cred(cases[0][0], stab)
        assert sol.droop[0, 0] == pytest.approx(1.0 + 2e-6, abs=1e-6)


def test_criterion_5_distributionally_robust_closed_form():
    with criterion(5, "two-moment safety multiplier and robust gain", None):
        assert abs(k_eta(0.95) - math.sqrt(19.0)) <= 1e-9
        est = AttackEstimate([17.59], [0.48], [1000])
        expected = 17.59 + math.sqrt(19.0) * 0.48
        assert abs(robust_gain(est, 0.95)[0] - expected) <= 1e-9


def test_criterion_6_time_domain_reproduction():
    with criterion(6, "attacked system grows, redispatched system decays", 30.0):
        bundle = scenario_from_dict(three_area_system())
        cfg = WorkflowConfig(mode="worst_case")
        rep = run_workflow(cfg, bundle=bundle)
        assert rep.branch_taken == "cred_applied"
        gains = np.array(rep.robust_gains)
        attack = AttackProfile(gains, bundle.static_attack, (1,))

        def run(droop):
            ss = build_state_space(bundle.model, attack, droop)
            lam_max = float(np.abs(np.linalg.eigvals(ss.state_matrix)).max())
            dt = min(0.02, 1.0 / (12.0 * lam_max))
            step = np.zeros(3)
            step[1] = 0.01 * (bundle.model.secure_load[1]
                              + bundle.model.vulnerable_load[1])
            traj = simulate(ss, step, t_step=1.0, t_end=60.0, dt=dt)
            verdict = is_stable(eigen_decompose(ss))
            return classify_trajectory(traj), verdict.stable

        label, stable = run(DroopSchedule.none(3))
        assert label == "growing" and not stable
        label, stable = run(DroopSchedule(rep.solution.droop[0],
                                          rep.solution.wind_power[0]))
        assert label == "decaying" and stable


def test_criterion_7_cost_ordering_across_attack_knowledge(tmp_path):
    with criterion(7, "worst-case >= robust >= mean dispatch cost", None):
        doc = three_area_system()
        worst = run_workflow(WorkflowConfig(mode="worst_case"),
                             bundle=scenario_from_dict(doc))
        assert worst.cost_increment >= 0.0
        for case in ("case1", "case2", "case3"):
            info = TABLE_GAIN_CASES[case]
            spath = tmp_path / f"{case}.json"
            spath.write_text(json.dumps(exact_moment_samples(
                info["mean"] * 1000.0, info["std"] * 1000.0, 1)))
            runs = {}
            for mode in ("auto", "mean_only"):
                cfg = WorkflowConfig(samples_path=str(spath), mode=mode, eta=0.95)
                runs[mode] = run_workflow(cfg, bundle=scenario_from_dict(doc))
            dr, mean = runs["auto"], runs["mean_only"]
            assert dr.robust_gains[1] == pytest.approx(
                info["mean"] + math.sqrt(19.0) * info["std"], abs=1e-9)
            assert mean.robust_gains[1] == pytest.approx(info["mean"], abs=1e-9)
            assert worst.final_cost >= dr.final_cost - 1e-6
            assert dr.final_cost >= mean.final_cost - 1e-6
            assert dr.cost_increment >= 0.0 and mean.cost_increment >= 0.0


def test_criterion_8_wind_and_vulnerability_trends():
    with criterion(8, "zero-wind flat, mid-wind monotone with shed knee", None):
        cfg = WorkflowConfig(mode="worst_case")
        flat = sweep_study(cfg, "vulnerable_fraction", [0.1, 0.2, 0.3, 0.4, 0.5],
                           scenario_doc=three_area_no_wind())
        assert all(r.error is None for r in flat)
        assert all(r.avg_increment == 0.0 for r in flat)

        rising = sweep_study(cfg, "vulnerable_fraction",
                             [0.1, 0.2, 0.3, 0.35, 0.4, 0.45, 0.5],
                             scenario_doc=three_area_system())
        assert all(r.error is None for r in rising)
        incs = [r.avg_increment for r in rising]
        assert all(b >= a - 1e-6 for a, b in zip(incs, incs[1:]))
        sheds = [r.shed_mwh for r in rising]
        assert sheds[:3] == [0.0, 0.0, 0.0]
        knee = next(i for i, s in enumerate(sheds) if s > 0.0)
        assert all(s > 0.0 for s in sheds[knee:])


def test_criterion_9_certificate_soundness():
    with criterion(9, "every accepted run is certified; corruption rejected", None):
        accepted = []
        toy = scenario_from_dict(single_area_toy())
        accepted.append(run_workflow(WorkflowConfig(mode="worst_case"), bundle=toy))
        desk = scenario_from_dict(three_area_system())
        accepted.append(run_workflow(WorkflowConfig(mode="worst_case"), bundle=desk))
        for rep in accepted:
            assert max(rep.certificate["max_real_per_period"]) < 0.0

        bundle = scenario_from_dict(single_area_toy())
        rep = accepted[0]
        sol = rep.solution
        sol.droop = sol.droop / 2.0
        with pytest.raises(ValidationFailure):
            attack = attack_from_gains(rep.robust_gains, bundle.static_attack, bundle.attack_areas)
            validate_solution(bundle.dispatch, sol, attack)


def test_criterion_10_deterministic_reruns(tmp_path):
    with criterion(10, "identical runs produce byte-identical artifacts", None):
        doc = tmp_path / "desk.json"
        doc.write_text(json.dumps(three_area_system()))
        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            bundle = load_scenario(doc)
            rep = run_workflow(WorkflowConfig(mode="worst_case"), bundle)
            write_artifacts(out, bundle.dispatch, rep)
            blobs.append(tuple(
                (out / f).read_bytes()
                for f in ("report.json", "solution.json", "summary.csv")
            ))
        assert blobs[0] == blobs[1]
