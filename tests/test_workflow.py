import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from cred.errors import ConfigurationError, ScenarioError
from cred.grid import AttackProfile, DroopSchedule, build_state_space
from cred.scenario import scenario_from_dict
from cred.simulate import classify_trajectory, simulate
from cred.stability import eigen_decompose
from cred.systems import (single_area_toy, synthesize_samples, three_area_no_wind,
                          three_area_system)
from cred.workflow import WorkflowConfig, run_workflow, sweep_study, write_artifacts


def run_toy(doc=None, **cfg_kw):
    doc = doc if doc is not None else single_area_toy()
    cfg = WorkflowConfig(mode=cfg_kw.pop("mode", "worst_case"), **cfg_kw)
    return run_workflow(cfg, bundle=scenario_from_dict(doc))


@pytest.mark.parametrize("edit, message", [
    (dict(detection_threshold=-1.0), "detection threshold must be >= 0"),
    (dict(mode="robust"), "mode must be one of ('auto', 'worst_case', 'mean_only')"),
], ids=["threshold", "mode"])
def test_config_check_names_its_fault(edit, message):
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        WorkflowConfig(**edit)


class TestBranches:
    def test_no_attack_short_circuits(self):
        rep = run_toy(detection_score=0.0, detection_threshold=0.5)
        assert rep.branch_taken == "no_attack"
        assert rep.final_cost == rep.baseline_cost
        assert rep.cost_increment == 0.0

    def test_precheck_stable_skips_redispatch(self):
        doc = single_area_toy()
        doc["areas"][0]["vulnerable_load"] = 1.0  # worst gain 1 < damping 2
        doc["areas"][0]["secure_load"] = 9.0
        rep = run_toy(doc)
        assert rep.branch_taken == "precheck_stable"
        assert rep.cost_increment == 0.0
        assert rep.precheck_max_real < 0.0

    def test_cred_applied_end_to_end(self):
        rep = run_toy()
        assert rep.branch_taken == "cred_applied"
        kc = rep.solution.droop[0, 0]
        # row: -1 + 0.5 (3 - kc) <= -(1e-6 + 0.05)
        assert kc == pytest.approx(1.100002, abs=1e-8)
        assert rep.cost_increment == pytest.approx(5.50001, abs=1e-4)
        assert max(rep.certificate["max_real_per_period"]) < 0.0

        bundle = scenario_from_dict(single_area_toy())
        attack = AttackProfile(np.array(rep.robust_gains), bundle.static_attack, (0,))
        droop = DroopSchedule(rep.solution.droop[0], rep.solution.wind_power[0])
        ss = build_state_space(bundle.model, attack, droop)
        traj = simulate(ss, np.array([0.5]), t_step=1.0, t_end=60.0, dt=0.01)
        assert classify_trajectory(traj) == "decaying"

    def test_precheck_branch_is_truly_stable(self):
        doc = single_area_toy()
        doc["areas"][0]["vulnerable_load"] = 1.0
        doc["areas"][0]["secure_load"] = 9.0
        rep = run_toy(doc)
        bundle = scenario_from_dict(doc)
        attack = AttackProfile(np.array(rep.robust_gains), bundle.static_attack, (0,))
        ss = build_state_space(bundle.model, attack, DroopSchedule.none(1))
        from cred.stability import eigen_decompose, is_stable

        assert is_stable(eigen_decompose(ss)).stable

    def test_shed_fallback_branch(self):
        doc = single_area_toy()
        doc["dispatch"]["generators"][0]["p_max"] = 6.2
        rep = run_toy(doc)
        assert rep.branch_taken == "cred_infeasible_shed"
        assert rep.solution.shed.sum() > 0.0
        assert rep.cost_increment > 0.0
        assert max(rep.certificate["max_real_per_period"]) < 0.0

    def test_band_failure_is_not_retried_with_shedding(self, monkeypatch):
        """No droop fits period 0's wind: shedding cannot help, so the droop search runs
        for the baseline and the no-shed dispatch only, and its error surfaces as is."""
        import cred.dispatch as dispatch
        from cred.errors import BandInfeasibleError

        doc = single_area_toy()
        doc["dispatch"]["periods"][0]["wind_available"] = [0.5]
        searched, search = [], dispatch._droop_floor

        def counting(scn, stab):
            searched.append(stab is not None)
            return search(scn, stab)

        monkeypatch.setattr(dispatch, "_droop_floor", counting)
        with pytest.raises(BandInfeasibleError) as raised:  # the stage keeps the type
            run_toy(doc)
        assert str(raised.value) == ("[dispatch] dispatch infeasible in period 0: no droop "
                                     "within the wind band meets every stability row")
        assert searched == [False, True]

    def test_mean_only_requires_samples(self):
        with pytest.raises(ScenarioError):
            run_toy(mode="mean_only")

    def test_increment_never_negative(self):
        for doc in (single_area_toy(), three_area_no_wind()):
            rep = run_toy(doc)
            assert rep.cost_increment >= 0.0

    def test_redispatch_moves_in_expected_directions(self):
        # with the stability rows active: reserve appears, wind backs off,
        # thermal picks up the slack, cost rises
        rep = run_toy(three_area_system())
        assert rep.branch_taken == "cred_applied"
        base, sol = rep.baseline_solution, rep.solution
        assert sol.wind_reserve.sum() > 0.0
        assert sol.wind_power.sum() < base.wind_power.sum()
        assert sol.sg_power.sum() > base.sg_power.sum()
        assert rep.final_cost > rep.baseline_cost

    def test_storage_variant_solves_monolithically(self):
        from cred.systems import three_area_with_storage

        rep = run_toy(three_area_with_storage())
        assert rep.branch_taken == "cred_applied"
        assert max(rep.certificate["max_real_per_period"]) < 0.0
        soc = rep.solution.storage_soc
        assert np.all((0.2 - 1e-9 <= soc) & (soc <= 0.8 + 1e-9))
        assert soc[-1, 0] == pytest.approx(0.5, abs=1e-9)

    def test_day_long_storage_horizon(self):
        from cred.systems import three_area_storage_day

        rep = run_toy(three_area_storage_day())
        assert rep.branch_taken == "cred_applied"
        # one LP over the whole day, certified period by period
        assert rep.solution.lp_count == 1
        assert len(rep.certificate["max_real_per_period"]) == 24
        assert max(rep.certificate["max_real_per_period"]) < 0.0
        soc = rep.solution.storage_soc
        assert np.all((0.2 - 1e-9 <= soc) & (soc <= 0.8 + 1e-9))
        assert soc[-1, 0] == pytest.approx(0.5, abs=1e-9)

    def test_simultaneous_two_area_attack(self):
        from cred.systems import three_area_system

        single = run_toy(three_area_system())
        doc = three_area_system()
        doc["areas"][0]["vulnerable_load"] = 600.0
        doc["areas"][0]["secure_load"] = 3200.0
        doc["attack"]["areas"] = [0, 1]
        rep = run_toy(doc)
        assert rep.branch_taken == "cred_applied"
        assert rep.robust_gains == [10.0, 25.0, 0.0]
        areas_with_pairs = {n for _, n in rep.pairs}
        assert areas_with_pairs == {0, 1}
        # no wind in area 0: its attack cannot be damped locally, so the
        # windy area must over-compensate relative to the single-area case
        assert rep.solution.droop[0, 0] == 0.0
        assert rep.solution.droop[0, 1] > single.solution.droop[0, 1]
        assert rep.cost_increment > single.cost_increment
        assert max(rep.certificate["max_real_per_period"]) < 0.0


FIXTURES = Path(__file__).parent / "fixtures"


class TestScreening:
    """One exact sweep per attacked area decides the pairs the tables cover."""

    def test_pairs_are_the_exact_loci_crossings(self):
        from cred.systems import three_area_system

        from oracles import assert_loci_close, critical_pairs_pointwise, exact_locus_pointwise

        doc = three_area_system()
        rep = run_toy(doc)
        model = scenario_from_dict(doc).model
        ranges = {n: rep.robust_gains[n] for n in doc["attack"]["areas"]}
        assert rep.pairs == list(critical_pairs_pointwise(model, ranges, 0.05)) == [(5, 1)]
        assert rep.pair_worst_real == [
            exact_locus_pointwise(model, i, n, ranges[n], ranges[n] / 200.0,
                                  reduced=True).real.max()
            for i, n in rep.pairs
        ]
        assert_loci_close(np.array(rep.pair_worst_real), np.array([
            exact_locus_pointwise(model, i, n, ranges[n], ranges[n] / 200.0).real.max()
            for i, n in rep.pairs
        ]))
        assert rep.pair_worst_real[0] >= -0.05

    def test_two_area_desk_keeps_one_mode_per_area(self):
        from cred.systems import three_area_system

        doc = three_area_system()
        doc["areas"][0]["vulnerable_load"] = 600.0
        doc["areas"][0]["secure_load"] = 3200.0
        doc["attack"]["areas"] = [0, 1]
        rep = run_toy(doc)
        assert rep.pairs == [(5, 0), (5, 1)]
        assert rep.branch_taken == "cred_applied"
        assert rep.final_cost == pytest.approx(1051862.342492, rel=1e-9)
        assert max(rep.certificate["max_real_per_period"]) < 0.0

    def test_ring_crossing_missed_by_first_order_is_certified(self):
        # the first-order screen kept the wrong mode here and every retry
        # ended in ValidationFailure
        rep = run_toy(json.loads((FIXTURES / "ring_seed0_op2.json").read_text()))
        assert rep.branch_taken == "cred_applied"
        assert max(rep.certificate["max_real_per_period"]) < 0.0

    def test_ring_lost_branch_is_a_screening_error(self, monkeypatch):
        import cred.workflow as wf
        from cred.errors import TrackingError

        built = []
        monkeypatch.setattr(wf, "build_segment_table", lambda *args: built.append(args))
        doc = json.loads((FIXTURES / "ring_seed0_op16.json").read_text())
        with pytest.raises(TrackingError, match=r"^\[screening\] area 19: .* at abscissa"):
            run_toy(doc)
        assert built == []


    def test_unstable_base_without_gain_is_a_screening_error(self):
        # no area has a positive gain, so the unstable precheck is the base
        # system's, and no sweep can anchor at it
        doc = single_area_toy()
        doc["areas"][0].update(gov_proportional=0.0, damping=0.0, vulnerable_load=0.0)
        message = "[screening] base system is unstable; cannot anchor the sweep at 0"
        with pytest.raises(ConfigurationError) as info:
            run_toy(doc)
        assert str(info.value) == message
        (row,) = sweep_study(WorkflowConfig(mode="worst_case"), "eta", [0.9], scenario_doc=doc)
        assert row.error == message and row.branch is None

    def test_grid_too_fine_is_a_screening_row(self):
        # a grid whose size overflows is a ConfigurationError, so the study records it
        (row,) = sweep_study(WorkflowConfig(mode="worst_case", eps_phi=1e-300), "eta", [0.9],
                             scenario_doc=three_area_system())
        assert row.error.startswith("[screening] a sweep of 2.5e+301 grid points of 6 states")
        assert row.branch is None


def _counting_calls(monkeypatch, modules, names):
    """Patch each name in each module to record its results; returns {name: [result, ...]}."""
    calls = {name: [] for name in names}
    for module in modules:
        for name in names:
            if not hasattr(module, name):
                continue

            def wrapper(*args, _real=getattr(module, name), _name=name, **kwargs):
                result = _real(*args, **kwargs)
                calls[_name].append(result)
                return result

            monkeypatch.setattr(module, name, wrapper)
    return calls


def _desk_certificate_inputs():
    """A certified worst-case desk run, its scenario and its attack."""
    from cred.grid import attack_from_gains
    from cred.systems import three_area_system

    rep = run_toy(three_area_system())
    assert rep.branch_taken == "cred_applied"
    bundle = scenario_from_dict(three_area_system())
    attack = attack_from_gains(rep.robust_gains, bundle.static_attack, bundle.attack_areas)
    sol = rep.solution
    sol.droop, sol.wind_power = sol.droop.copy(), sol.wind_power.copy()
    return bundle.require_dispatch(), sol, attack


class TestCertificateWork:
    LOOP = ("build_state_space", "eigen_decompose", "is_stable")

    def test_one_decomposition_and_verdict_per_distinct_loop(self, monkeypatch):
        """One assembly, one decomposition and one verdict per distinct droop."""
        import cred.dispatch as dispatch

        scn, sol, attack = _desk_certificate_inputs()
        # the desk's periods differ only in their power references: one loop
        calls = _counting_calls(monkeypatch, [dispatch], self.LOOP)
        dispatch.validate_solution(scn, sol, attack)
        assert len({row.tobytes() for row in sol.droop}) == 1
        assert [len(calls[name]) for name in self.LOOP] == [1, 1, 1]

        # a horizon whose periods get two droops: period 2 holds more in reserve
        sol.droop[2] *= 1.5
        calls = _counting_calls(monkeypatch, [dispatch], self.LOOP)
        cert = dispatch.validate_solution(scn, sol, attack)
        assert [len(calls[name]) for name in self.LOOP] == [2, 2, 2]
        assert len({ss.state_matrix.tobytes() for ss in calls["build_state_space"]}) == 2
        for t in range(scn.n_periods):
            own = build_state_space(scn.model, attack,
                                    DroopSchedule(sol.droop[t], sol.wind_power[t]))
            assert cert.max_real[t] == dispatch.is_stable(eigen_decompose(own)).max_real
        assert cert.max_real[2] != cert.max_real[0]

    def test_certified_desk_run_assembles_three_loops(self, monkeypatch):
        """The precheck, the sweep's base and one certificate loop; nothing else.

        A rerun of an equal document shares the sweep's base decomposition,
        while the precheck and the certificate decompose their loops again.
        """
        import cred.dispatch as dispatch
        import cred.linearize as linearize
        from cred.systems import three_area_system

        linearize._sweep_base.cache_clear()
        calls = _counting_calls(monkeypatch, [dispatch, linearize],
                                ("build_state_space", "eigen_decompose"))
        rep = run_toy(three_area_system())
        assert rep.branch_taken == "cred_applied"
        assert len(calls["build_state_space"]) == 3
        assert len(calls["eigen_decompose"]) == 3

        precheck, _, certificate = (e.eigenvalues.tobytes() for e in calls["eigen_decompose"])
        for name in calls:
            calls[name].clear()
        again = run_toy(three_area_system())
        assert again.branch_taken == "cred_applied"
        assert len(calls["build_state_space"]) == 3  # the base's state space keys the cache
        assert [e.eigenvalues.tobytes() for e in calls["eigen_decompose"]] == [precheck,
                                                                              certificate]
        assert linearize._sweep_base.cache_info().hits == 1

    @pytest.mark.parametrize("field,value", [
        ("wind_power", -1.0), ("wind_power", np.nan), ("wind_power", np.inf),
        ("droop", -1.0), ("droop", np.nan), ("droop", -np.inf),
    ])
    def test_invalid_later_period_raises_its_schedule_error(self, field, value):
        """A later period is checked as DroopSchedule checks it, even sharing period 0's loop."""
        from cred.dispatch import validate_solution

        scn, sol, attack = _desk_certificate_inputs()
        getattr(sol, field)[2, 1] = value
        if field == "wind_power":
            assert sol.droop[2].tobytes() == sol.droop[0].tobytes()
        with pytest.raises(ConfigurationError) as expected:
            DroopSchedule(sol.droop[2], sol.wind_power[2])
        with pytest.raises(ConfigurationError) as raised:
            validate_solution(scn, sol, attack)
        assert str(raised.value) == str(expected.value)

    def test_earlier_unstable_period_is_named_first(self):
        from cred.dispatch import validate_solution
        from cred.errors import ValidationFailure

        scn, sol, attack = _desk_certificate_inputs()
        sol.droop[0] = 0.0  # the precheck's unstable loop
        sol.wind_power[2, 1] = np.nan
        with pytest.raises(ValidationFailure, match="^period 0: "):
            validate_solution(scn, sol, attack)


class TestValidationRetry:
    def _counting(self, monkeypatch):
        """Table tolerances in call order, and stacked eigensolves before each table."""
        import cred.workflow as wf

        tolerances, stacked, solves = [], [], []
        original_table, original_eigvals = wf.build_segment_table, np.linalg.eigvals

        def counting_table(sweep, eigen_index, eps_lim):
            tolerances.append(eps_lim)
            stacked.append(len(solves))
            return original_table(sweep, eigen_index, eps_lim)

        def counting_eigvals(a):
            if a.ndim == 3:
                solves.append(a.shape[0])
            return original_eigvals(a)

        monkeypatch.setattr(wf, "build_segment_table", counting_table)
        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        return tolerances, stacked, solves

    def test_retry_at_half_tolerance_recovers(self, monkeypatch):
        from cred.systems import three_area_system

        tolerances, stacked, solves = self._counting(monkeypatch)
        # eps 0.1 solves to a point the exact check rejects; 0.05 survives
        rep = run_toy(three_area_system(), settle_margin=0.02, eps_lim=0.1)
        assert tolerances == [0.1, 0.05]
        assert rep.branch_taken == "cred_applied"
        assert max(rep.certificate["max_real_per_period"]) < 0.0
        # the retry rebuilds its table from the first attempt's sweep
        assert stacked == [1, 1]
        assert len(solves) == 1

    def test_one_attack_per_run(self, monkeypatch):
        """The precheck and both certificates of a retried run share the run's one attack."""
        import cred.workflow as wf
        from cred.systems import three_area_system

        attacks, certified = [], []
        make_attack, validate = wf.attack_from_gains, wf.validate_solution

        def counting(*args):
            attacks.append(make_attack(*args))
            return attacks[-1]

        def validating(scn, sol, attack, stab=None):
            certified.append(attack)
            return validate(scn, sol, attack, stab)

        monkeypatch.setattr(wf, "attack_from_gains", counting)
        monkeypatch.setattr(wf, "validate_solution", validating)
        tolerances, _, _ = self._counting(monkeypatch)
        rep = run_toy(three_area_system(), settle_margin=0.02, eps_lim=0.1)
        assert tolerances == [0.1, 0.05] and rep.branch_taken == "cred_applied"
        assert len(attacks) == 1 and len(certified) == 2
        assert all(attack is attacks[0] for attack in certified)
        assert attacks[0].dyn_gain.tolist() == rep.robust_gains

    def test_single_retry_then_surfaces_failure(self, monkeypatch):
        from cred.errors import ValidationFailure
        from cred.systems import three_area_system

        tolerances, stacked, solves = self._counting(monkeypatch)
        with pytest.raises(ValidationFailure):
            run_toy(three_area_system(), settle_margin=0.0, eps_lim=0.5)
        assert tolerances == [0.5, 0.25]
        assert stacked == [1, 1]
        assert len(solves) == 1


class TestArtifacts:
    def test_reruns_are_byte_identical(self, tmp_path):
        files = ("report.json", "solution.json", "summary.csv")
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            write_artifacts(out, scenario_from_dict(single_area_toy()).dispatch, run_toy())
            blobs.append(tuple((out / f).read_bytes() for f in files))
        assert blobs[0] == blobs[1]

    def test_report_contents(self, tmp_path):
        out = tmp_path / "run"
        rep = run_toy()
        write_artifacts(out, scenario_from_dict(single_area_toy()).dispatch, rep)
        report = json.loads((out / "report.json").read_text())
        assert report["branch_taken"] == "cred_applied"
        assert report["robust_gains_pu_per_hz"] == [3.0]
        cert = report["certificate"]
        assert max(cert["max_real_per_period"]) < 0.0
        assert cert["settle_shortfall"] == max(0.0, max(cert["max_real_per_period"]) + 0.05)
        solution = json.loads((out / "solution.json").read_text())
        assert solution["wind_power_mw"][0][0] == pytest.approx(4.0 - 0.550001, abs=1e-6)
        # the toy dispatches by merit order: no program is solved
        assert solution["simplex_iterations"] == solution["lp_count"] == 0
        assert rep.solution.simplex_iterations == rep.solution.lp_count == 0
        # the segment the toy's one pair holds, keyed "t,i,a"
        assert list(solution["held_segments"]) == ["0,1,0"]
        assert solution["held_segments"]["0,1,0"] == rep.solution.held_segments[(0, 1, 0)]
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("period,cost")
        assert len(summary) == 2


class TestBudgetClamp:
    """Every area's robust gain is held to its own budget, declared attacked or not."""

    @pytest.mark.parametrize("mode", ["mean_only", "auto"])
    def test_undeclared_area_is_clamped(self, tmp_path, caplog, mode):
        # the desk declares area 1 only; area 0 holds no vulnerable load, so
        # its budget is 0 and samples of about 50 p.u./Hz there attack nothing
        area1 = synthesize_samples(15000.0, 500.0, 1, seed=3)
        both, only = tmp_path / "both.json", tmp_path / "only.json"
        both.write_text(json.dumps(synthesize_samples(50000.0, 100.0, 0, seed=1) + area1))
        only.write_text(json.dumps(area1))
        with caplog.at_level(logging.WARNING, logger="cred.uncertainty"):
            rep = run_toy(three_area_system(), samples_path=str(both), mode=mode)
        (record,) = caplog.records
        assert record.getMessage().endswith(" in area 0 exceeds the physical budget 0; clamping")
        ref = run_toy(three_area_system(), samples_path=str(only), mode=mode)
        assert rep.branch_taken == ref.branch_taken == "cred_applied"
        assert rep.robust_gains == ref.robust_gains
        assert rep.robust_gains[0] == 0.0
        assert rep.to_dict() == ref.to_dict()


class TestSweeps:
    def test_eta_sweep_monotone(self, tmp_path):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps(synthesize_samples(2.5, 0.1, 0, seed=3)))
        cfg = WorkflowConfig(samples_path=str(samples), mode="auto")
        rows = sweep_study(cfg, "eta", [0.5, 0.9, 0.95], scenario_doc=single_area_toy())
        incs = [r.avg_increment for r in rows]
        assert all(r.error is None for r in rows)
        assert incs == sorted(incs)
        assert incs[0] > 0.0

    def test_zero_wind_fractions_cost_nothing(self):
        cfg = WorkflowConfig(mode="worst_case")
        rows = sweep_study(cfg, "vulnerable_fraction", [0.1, 0.3, 0.5],
                           scenario_doc=three_area_no_wind())
        assert all(r.branch == "precheck_stable" for r in rows)
        assert all(r.avg_increment == 0.0 for r in rows)

    def test_failed_point_recorded_and_sweep_continues(self):
        cfg = WorkflowConfig(mode="worst_case")
        rows = sweep_study(cfg, "vulnerable_fraction", [0.3, 2.0, 0.3],
                           scenario_doc=single_area_toy())
        assert rows[0].error is None and rows[2].error is None
        assert rows[1].error is not None

    @pytest.mark.parametrize("axis, value, edit", [
        ("vulnerable_fraction", 0.3, lambda d: d["attack"].update(areas=[1.0])),
    ])
    def test_numbers_read_as_the_parser_reads_them(self, axis, value, edit):
        # the parser takes area 1.0 as 1; so does the axis
        doc = three_area_system()
        edit(doc)
        cfg = WorkflowConfig(mode="worst_case")
        rows = sweep_study(cfg, axis, [value], scenario_doc=doc)
        assert rows == sweep_study(cfg, axis, [value], scenario_doc=three_area_system())
        assert rows[0].error is None

    def test_wind_capacity_scales_the_wind(self, monkeypatch):
        # each point rescales every wind area's capacity and availability;
        # the document's own 5000 MW reproduces the unswept run
        import cred.workflow as workflow

        doc, bundles, run = three_area_system(), [], workflow.run_workflow

        def recording(cfg, bundle):
            bundles.append(bundle)
            return run(cfg, bundle=bundle)

        monkeypatch.setattr(workflow, "run_workflow", recording)
        cfg = WorkflowConfig(mode="worst_case")
        rows = sweep_study(cfg, "wind_capacity", [3000.0, 5000.0, 8000.0], scenario_doc=doc)
        assert [r.branch for r in rows] == ["cred_infeasible_shed", "cred_applied",
                                           "cred_applied"]
        unswept = run(cfg, bundle=scenario_from_dict(doc))
        assert rows[1].total_increment == unswept.cost_increment
        assert rows[1].avg_increment == unswept.cost_increment / len(unswept.per_period)
        wind = scenario_from_dict(doc).dispatch.wind_available
        for value, bundle in zip([3000.0, 5000.0, 8000.0], bundles):
            assert bundle.model.ibr_max_power.tolist() == [0.0, value / 1000.0, 0.0]
            assert np.allclose(bundle.dispatch.wind_available, wind * value / 5000.0,
                               rtol=1e-15, atol=0.0)

    def test_numeric_string_rejected_before_the_grid(self):
        # the parser rejects "5000" as a number, so the sweep stops before its first point
        doc = three_area_system()
        doc["areas"][1]["ibr_max_power"] = "5000"
        with pytest.raises(ScenarioError, match=r"areas\[1\]\.ibr_max_power must be a number"):
            sweep_study(WorkflowConfig(mode="worst_case"), "wind_capacity", [4000.0],
                        scenario_doc=doc)

    @pytest.mark.parametrize("axis", ["vulnerable_fraction", "wind_capacity", "eta"])
    def test_document_without_dispatch_rejected_before_the_grid(self, monkeypatch, axis):
        calls = []
        monkeypatch.setattr("cred.workflow.run_workflow", lambda *a, **k: calls.append(a))
        doc = single_area_toy()
        del doc["dispatch"]
        with pytest.raises(ScenarioError, match=r"^scenario file has no dispatch section$"):
            sweep_study(WorkflowConfig(mode="worst_case"), axis, [0.3, 0.5], scenario_doc=doc)
        assert calls == []

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr("cred.workflow.run_workflow", broken)
        with pytest.raises(TypeError):
            sweep_study(WorkflowConfig(mode="worst_case"), "vulnerable_fraction", [0.3],
                        scenario_doc=single_area_toy())

    def test_unknown_axis_rejected(self):
        with pytest.raises(ScenarioError):
            sweep_study(WorkflowConfig(), "frequency", [1.0],
                        scenario_doc=single_area_toy())
