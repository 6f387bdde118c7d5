import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from cred import cli
from cred.cli import main
from cred.grid import build_state_space
from cred.linearize import sweep_loci
from cred.scenario import load_scenario, scenario_from_dict
from cred.stability import eigen_decompose, sensitivity
from cred.systems import single_area_toy, synthesize_samples, three_area_system
from cred.workflow import WorkflowConfig, run_workflow

from oracles import net_gain_state_space


@pytest.fixture
def toy_path(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(single_area_toy()))
    return path


#: every subcommand, with what it needs besides its input files
COMMANDS = (["analyze"], ["linearize"], ["simulate"], ["workflow"],
            ["sweep", "--axis", "eta", "--grid", "0.9"])


def input_error(capsys, argv, *flags) -> str:
    """The stderr of a run of argv with flags; it must exit 4 with an input error."""
    code = main([*argv, *map(str, flags)])
    err = capsys.readouterr().err
    assert code == 4, (argv, err)
    assert err.startswith("input error:") and "Traceback" not in err, (argv, err)
    return err


def unreadable(tmp_path, kind):
    """A path that exists but holds no readable text: a directory or non-UTF-8 bytes."""
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"base_power": "\xff"}')
    return path


def negative_samples(tmp_path) -> tuple:
    """(desk scenario, samples file): area 1's estimates average -450 MW/Hz, std 50."""
    desk, samples = tmp_path / "desk.json", tmp_path / "negative.json"
    desk.write_text(json.dumps(three_area_system()))
    samples.write_text(json.dumps([{"area": 1, "samples": [-500.0, -400.0, -450.0]}]))
    return desk, samples


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestAnalyze:
    def test_writes_eigenvalues_and_sensitivities(self, toy_path, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", "--scenario", str(toy_path), "--out", str(out)]) == 0
        eigs = read_csv(out / "eigenvalues.csv")
        assert eigs[0] == ["index", "re", "im"]
        assert float(eigs[1][1]) == pytest.approx(-1.0, abs=1e-9)
        assert float(eigs[2][2]) == pytest.approx(2.0, abs=1e-9)
        sens = read_csv(out / "sensitivities.csv")
        assert sens[0] == ["eigen_index", "area", "d_re", "d_im"]
        row = next(r for r in sens[1:] if r[0] == "1")
        assert float(row[2]) == pytest.approx(0.5, abs=1e-9)
        assert float(row[3]) == pytest.approx(0.25, abs=1e-9)

    def test_repeated_eigenvalue_skipped_with_a_note(self, tmp_path, capsys):
        double = single_area_toy()
        double["areas"][0]["gov_integral"] = 1.0  # lambda^2 + 2 lambda + 1: a double root
        # two uncoupled toys, both attacked: each eigenvalue twice, once per area
        twin = single_area_toy()
        twin["areas"].append(dict(twin["areas"][0], name="A2"))
        twin["coupling"] = [[0.0, 0.0], [0.0, 0.0]]
        twin["attack"] = {"areas": [0, 1], "static": [0.0, 0.0]}
        del twin["dispatch"]
        for doc, repeated in ((double, (0, 1)), (twin, (0, 1, 2, 3))):
            # one note per eigenvalue, however many areas are attacked
            path, out = tmp_path / "double.json", tmp_path / "out"
            path.write_text(json.dumps(doc))
            assert main(["analyze", "--scenario", str(path), "--out", str(out)]) == 0
            assert read_csv(out / "sensitivities.csv") == [["eigen_index", "area", "d_re", "d_im"]]
            assert capsys.readouterr().err.splitlines() == [
                f"note: eigenvalue {i} repeated; sensitivity skipped" for i in repeated]

    def test_sweep_and_analyze_read_one_sensitivity(self, tmp_path, monkeypatch):
        doc = three_area_system()
        bundle = scenario_from_dict(doc)
        (area,) = bundle.attack_areas
        eig = eigen_decompose(net_gain_state_space(bundle.model, area, 0.0))
        derivs = sensitivity(bundle.model, eig, area)
        residues = sweep_loci(bundle.model, area, 5.0).residues
        assert residues.tobytes() == derivs.tobytes()
        written, write_csv = {}, cli.write_csv

        def keep_rows(path, header, rows):
            written[path.name] = rows
            write_csv(path, header, rows)

        monkeypatch.setattr(cli, "write_csv", keep_rows)
        path, out = tmp_path / "desk.json", tmp_path / "out"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--scenario", str(path), "--out", str(out)]) == 0
        # one area attacked: one row per eigenvalue, in order
        assert written["sensitivities.csv"] == [[i, area, d.real, d.imag]
                                                for i, d in enumerate(derivs)]


class TestLinearize:
    def test_writes_segments_and_audit(self, toy_path, tmp_path):
        out = tmp_path / "out"
        assert main(["linearize", "--scenario", str(toy_path), "--out", str(out)]) == 0
        segs = read_csv(out / "segments.csv")
        assert segs[0] == ["eigen_index", "area", "abscissa", "eig_re", "eig_im",
                           "slope_re", "slope_im"]
        assert len(segs) == 2  # single anchor on the linear toy
        audit = read_csv(out / "linearize_audit.csv")
        errors = [float(r[3]) for r in audit[1:]]
        assert max(errors) <= 0.02

    def test_rerun_writes_identical_tables(self, tmp_path):
        desk = tmp_path / "desk.json"
        desk.write_text(json.dumps(three_area_system()))
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["linearize", "--scenario", str(desk), "--out", str(out),
                         "--mode", "worst_case"]) == 0
            blobs.append([(out / f).read_bytes() for f in ("segments.csv", "linearize_audit.csv")])
        assert len(blobs[0][1].splitlines()) > 200  # header plus a full grid per pair
        assert blobs[0] == blobs[1]


class TestSimulate:
    def test_trajectory_csv_and_labels(self, toy_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", str(toy_path), "--out", str(out),
                     "--mode", "worst_case", "--t-end", "40"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "growing" in printed
        rows = read_csv(out / "trajectory.csv")
        assert rows[0] == ["t", "omega_0", "delta_0"]

        code = main(["simulate", "--scenario", str(toy_path), "--out", str(out),
                     "--mode", "worst_case", "--kc", "3.0", "--t-end", "40"])
        assert code == 0
        assert "decaying" in capsys.readouterr().out

    def test_one_eigensolve_without_dt(self, toy_path, tmp_path, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals

        def counting(a):
            calls.append(a)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        assert main(["simulate", "--scenario", str(toy_path), "--out", str(tmp_path),
                     "--mode", "worst_case", "--t-end", "40"]) == 0
        assert len(calls) == 1

    def test_zero_step_stays_at_the_pre_step_equilibrium(self, tmp_path):
        desk = tmp_path / "desk.json"
        desk.write_text(json.dumps(three_area_system()))
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(desk), "--out", str(out),
                     "--step-mw", "0", "--t-end", "10"]) == 0
        rows = read_csv(out / "trajectory.csv")
        samples = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
        assert len(samples) > 100 and np.all(samples == samples[0])

    def test_step_past_the_last_sample_is_indeterminate(self, tmp_path, capsys):
        # the step is rounded up to 1.01 s, past the last sample at 1.00 s
        desk = tmp_path / "desk.json"
        desk.write_text(json.dumps(three_area_system()))
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(desk), "--out", str(out),
                     "--mode", "worst_case", "--t-step", "1.001", "--t-end", "1.004",
                     "--dt", "0.01"]) == 0
        assert capsys.readouterr().out.startswith(
            "trajectory: indeterminate (only 0 usable oscillation peaks; cannot classify); "
            "diverged=False;")
        assert len(read_csv(out / "trajectory.csv")) == 102

    def test_rerun_writes_identical_trajectory(self, toy_path, tmp_path):
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["simulate", "--scenario", str(toy_path), "--out", str(out),
                         "--mode", "worst_case", "--kc", "3.0", "--t-end", "40"]) == 0
            blobs.append((out / "trajectory.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestGainResolution:
    @pytest.mark.parametrize("flags, mode", [
        (["--samples"], "auto"),
        (["--mode"], "worst_case"),
        (["--samples", "--mode"], "worst_case"),
    ])
    def test_linearize_and_simulate_use_workflow_gains(self, toy_path, tmp_path, monkeypatch,
                                                       flags, mode):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps(synthesize_samples(2.5, 0.1, 0, seed=1)))
        with_samples = "--samples" in flags
        args = ["--scenario", str(toy_path)] + (["--samples", str(samples)] if with_samples else [])
        if "--mode" in flags:
            args += ["--mode", mode]
        expected = run_workflow(WorkflowConfig(
            samples_path=str(samples) if with_samples else None,
            mode=mode,
        ), load_scenario(toy_path)).robust_gains

        out = tmp_path / "lin"
        assert main(["linearize", "--out", str(out)] + args) == 0
        audit = read_csv(out / "linearize_audit.csv")
        assert max(float(r[2]) for r in audit[1:]) == pytest.approx(expected[0], rel=1e-12)

        seen = []

        def spy(model, attack, droop):
            seen.append(attack.dyn_gain.tolist())
            return build_state_space(model, attack, droop)

        monkeypatch.setattr(cli, "build_state_space", spy)
        assert main(["simulate", "--out", str(tmp_path / "sim"), "--t-end", "10"] + args) == 0
        assert seen == [expected]


    def test_a_static_step_outside_attack_areas_joins_the_attack(self, tmp_path, monkeypatch):
        # every command attacks the named areas and those with a positive
        # gain or a nonzero static step
        from cred import dispatch

        doc = three_area_system()
        doc["attack"]["static"] = [50.0, 0.0, 0.0]
        desk = tmp_path / "desk.json"
        desk.write_text(json.dumps(doc))
        seen = []

        def spy(model, attack, droop):
            seen.append((attack.attack_areas, tuple(attack.static_component.tolist())))
            return build_state_space(model, attack, droop)

        monkeypatch.setattr(dispatch, "build_state_space", spy)
        monkeypatch.setattr(cli, "build_state_space", spy)
        run_workflow(WorkflowConfig(mode="worst_case"), load_scenario(desk))
        assert main(["simulate", "--scenario", str(desk), "--out", str(tmp_path / "sim"),
                     "--mode", "worst_case", "--t-end", "10"]) == 0
        assert len(seen) > 2 and set(seen) == {((0, 1), (0.05, 0.0, 0.0))}

    @pytest.mark.parametrize("command", ["workflow", "linearize", "simulate"])
    @pytest.mark.parametrize("mode, value", [("auto", "-232.055"), ("mean_only", "-450")])
    def test_negative_estimated_gain_is_input_error(self, tmp_path, capsys, command, mode,
                                                    value):
        # it was once blamed on the precheck, on no gain to sweep or on dyn_gain
        desk, samples = negative_samples(tmp_path)
        err = input_error(capsys, [command], "--scenario", desk, "--out", tmp_path / "out",
                          "--samples", samples, "--mode", mode)
        stage = "[gain-estimation] " if command == "workflow" else ""
        assert err == (f"input error: {stage}area 1: estimated attack gain {value} MW/Hz "
                       "is negative\n")

    def test_negative_estimated_gain_is_a_failed_sweep_row(self, tmp_path, capsys):
        desk, samples = negative_samples(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(desk), "--out", str(out), "--samples",
                     str(samples), "--axis", "eta", "--grid", "0.9"]) == 0
        (row,) = read_csv(out / "sweep.csv")[1:]
        # mean -450 MW/Hz, std 50, and k_eta(0.9) = 3
        assert row[6] == "[gain-estimation] area 1: estimated attack gain -300 MW/Hz is negative"
        assert capsys.readouterr().out.splitlines()[0] == f"eta=0.9: FAILED ({row[6]})"


class TestWorkflow:
    def test_end_to_end_artifacts(self, toy_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["workflow", "--scenario", str(toy_path), "--out", str(out),
                     "--mode", "worst_case"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "branch: cred_applied" in stdout
        report = json.loads((out / "report.json").read_text())
        assert max(report["certificate"]["max_real_per_period"]) < 0.0
        assert (out / "summary.csv").exists()
        assert (out / "solution.json").exists()

    def test_deterministic_outputs(self, toy_path, tmp_path):
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main(["workflow", "--scenario", str(toy_path), "--out", str(out),
                  "--mode", "worst_case"])
            blobs.append((out / "report.json").read_bytes()
                         + (out / "solution.json").read_bytes()
                         + (out / "summary.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_samples_flow(self, toy_path, tmp_path):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps(synthesize_samples(2.5, 0.1, 0, seed=1)))
        out = tmp_path / "out"
        code = main(["workflow", "--scenario", str(toy_path), "--out", str(out),
                     "--samples", str(samples), "--eta", "0.9"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert 2.5 < report["robust_gains_pu_per_hz"][0] < 3.0

    def test_flags_are_the_config_fields(self):
        # each run setting's flag takes its WorkflowConfig field's default; the file
        # flags set no field, and --out keeps "out"
        parse = cli.build_parser().parse_args
        args = parse(["workflow", "--scenario", "x.json"])
        assert cli._config_from_args(args) == WorkflowConfig()
        assert (args.scenario_path, args.output_dir) == ("x.json", "out")
        args = parse(["sweep", "--scenario", "x.json", "--out", "o", "--samples", "s.json",
                      "--eta", "0.9", "--mode", "mean_only", "--eps-lim", "0.01",
                      "--eps-phi", "0.1", "--eps-strict", "1e-5", "--settle-margin", "0.1",
                      "--r", "2", "--r0", "1", "--axis", "eta", "--grid", "0.9"])
        assert cli._config_from_args(args) == WorkflowConfig(
            samples_path="s.json", detection_score=2.0, detection_threshold=1.0, eta=0.9,
            mode="mean_only", eps_lim=0.01, eps_phi=0.1, eps_strict=1e-5, settle_margin=0.1)

    def test_prints_summary(self, toy_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["workflow", "--scenario", str(toy_path), "--out", str(out),
                     "--mode", "worst_case"])
        assert code == 0
        assert "increment" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_csv(self, tmp_path):
        doc = tmp_path / "desk.json"
        doc.write_text(json.dumps(single_area_toy()))
        out = tmp_path / "out"
        code = main(["sweep", "--scenario", str(doc), "--out", str(out),
                     "--mode", "worst_case", "--axis", "vulnerable_fraction",
                     "--grid", "0.1,0.3"])
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0][0] == "axis"
        assert len(rows) == 3

    def test_eta_out_of_range_is_a_failed_row(self, toy_path, tmp_path, capsys):
        # the config check makes a bad eta point a row, not an exit, even in worst case
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(toy_path), "--out", str(out), "--mode",
                     "worst_case", "--axis", "eta", "--grid", "0.9,1.5"]) == 0
        good, bad = read_csv(out / "sweep.csv")[1:]
        assert good[5] == "cred_applied" and good[6] == ""
        assert bad[:6] == ["eta", "1.5", "", "", "", ""]
        assert bad[6] == "eta must be in (0, 1), got 1.5"

    def test_failed_point_is_a_printed_row(self, toy_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(toy_path), "--out", str(out), "--mode",
                     "worst_case", "--axis", "vulnerable_fraction", "--grid", "2.0"]) == 0
        (line, wrote) = capsys.readouterr().out.splitlines()
        assert wrote == f"wrote {out / 'sweep.csv'}"
        (row,) = read_csv(out / "sweep.csv")[1:]
        assert row[:6] == ["vulnerable_fraction", "2", "", "", "", ""]
        assert row[6].startswith("invalid physical model: secure_load must be >= 0")
        assert line == f"vulnerable_fraction=2: FAILED ({row[6]})"

    @pytest.mark.parametrize("axis, edit, message", [
        ("vulnerable_fraction", lambda d: d["attack"].update(areas=[7]),
         "attack area 7 out of range"),
        ("vulnerable_fraction", lambda d: d["attack"].update(areas=["x"]), "malformed scenario"),
        ("wind_capacity", lambda d: d["areas"][1].pop("ibr_max_power"),
         "missing key 'ibr_max_power'"),
        ("eta", lambda d: d.pop("dispatch"), "input error: scenario file has no dispatch section"),
        ("eta", lambda d: d["dispatch"]["generators"][0].update(p_min=900.0, p_max=800.0),
         "input error: invalid dispatch section: generator in area 0: need 0 <= p_min <= p_max"),
        ("eta", lambda d: d["dispatch"].update(storage=[
            {"area": 0, "soc_min": 0.1, "soc_max": 0.9, "efficiency": 2.0,
             "power_limit": 100.0, "energy": 400.0}]),
         "input error: invalid dispatch section: storage efficiency must lie in (0, 1]"),
    ], ids=["area_out_of_range", "area_not_a_number", "missing_ibr_max_power", "no_dispatch",
            "p_min_above_p_max", "storage_efficiency"])
    def test_malformed_document_is_input_error(self, tmp_path, capsys, axis, edit, message):
        doc = three_area_system()
        edit(doc)
        path = tmp_path / "desk.json"
        path.write_text(json.dumps(doc))
        code = main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "out"),
                     "--mode", "worst_case", "--axis", axis, "--grid", "0.3"])
        assert code == 4
        assert message in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["workflow", "--out", "out"],
        ["dispatch", "--scenario", "toy.json"],
        ["workflow", "--scenario", "toy.json", "--worst-case"],
        ["sweep", "--scenario", "toy.json", "--axis", "eta", "--grid", "0.1,x"],
        ["simulate", "--scenario", "toy.json", "--kc", "1,x"],
    ])
    def test_usage_error_is_input_error(self, argv, capsys):
        assert main(argv) == 4
        assert "usage:" in capsys.readouterr().err

    def test_empty_number_list_is_a_usage_error(self, capsys):
        assert main(["sweep", "--scenario", "toy.json", "--axis", "eta", "--grid", ","]) == 4
        assert "error: argument --grid: must list at least one value" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, edit, message", [
        (["linearize", "--mode", "worst_case"],
         lambda d: d["areas"][0].update(vulnerable_load=0.0),
         "no attacked area with a positive gain to sweep"),
        (["simulate", "--kc", "1,2", "--t-end", "1"], lambda d: None,
         "--kc must list 1 comma-separated MW/Hz values"),
    ], ids=["linearize_no_gain", "kc_length"])
    def test_command_check_is_input_error(self, tmp_path, capsys, argv, edit, message):
        doc = single_area_toy()
        edit(doc)
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(doc))
        err = input_error(capsys, argv, "--scenario", path, "--out", tmp_path / "out")
        assert err == f"input error: {message}\n"

    def test_help_exits_zero(self, capsys):
        assert main(["workflow", "-h"]) == 0
        assert "--mode" in capsys.readouterr().out

    def test_missing_scenario_is_input_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        for argv in COMMANDS:
            err = input_error(capsys, argv, "--scenario", missing, "--out", tmp_path / "out")
            assert err == f"input error: scenario file not found: {missing}\n", argv

    def test_malformed_scenario_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        for argv in COMMANDS:
            err = input_error(capsys, argv, "--scenario", bad, "--out", tmp_path / "out")
            assert err.startswith(f"input error: scenario file {bad} is not valid JSON: "), argv

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_scenario_is_input_error(self, tmp_path, capsys, kind):
        # a directory and non-UTF-8 bytes once ended in a traceback (exit 1)
        bad = unreadable(tmp_path, kind)
        for argv in COMMANDS:
            err = input_error(capsys, argv, "--scenario", bad, "--out", tmp_path / "out")
            assert err.startswith(f"input error: scenario file {bad} cannot be read: "), argv

    @pytest.mark.parametrize("kind, message", [
        ("missing", "samples file not found: {}"),
        ("malformed", "samples file {} is not valid JSON: "),
        ("directory", "samples file {} cannot be read: "),
        ("not_utf8", "samples file {} cannot be read: "),
        ("empty", "samples file . cannot be read: "),
    ], ids=["missing", "malformed", "directory", "not_utf8", "empty"])
    def test_bad_samples_file_is_input_error(self, toy_path, tmp_path, capsys, kind, message):
        # the sweep once made each point a failed row, or a traceback for a
        # directory; linearize and simulate once ran an empty path as no file
        if kind == "empty":
            bad = ""
        elif kind == "missing":
            bad = tmp_path / "nope.json"
        elif kind == "malformed":
            bad = tmp_path / "bad.json"
            bad.write_text("[{")
        else:
            bad = unreadable(tmp_path, kind)
        for argv in COMMANDS[1:]:
            err = input_error(capsys, argv, "--scenario", toy_path, "--out", tmp_path / "out",
                              "--samples", bad)
            assert err.startswith("input error: " + message.format(bad)), argv

    def test_out_naming_a_file_is_input_error(self, toy_path, tmp_path, capsys, monkeypatch):
        # the output directory could not be made: FileExistsError, exit 1; it
        # is made before any work, so no subcommand reaches its computation
        taken = tmp_path / "taken"
        taken.write_text("")
        called = []
        for name in ("load_scenario", "read_json", "build_state_space", "screen", "simulate",
                     "run_workflow", "sweep_study"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: called.append(name))
        for argv in COMMANDS:
            err = input_error(capsys, argv, "--scenario", toy_path, "--out", taken)
            assert "File exists" in err, argv
        assert called == []

    @pytest.mark.parametrize("flags, message", [
        (["--eps-phi", "nan"], "eps_phi must be > 0"),
        (["--eps-lim", "nan"], "eps_lim must be > 0"),
        (["--r0", "nan", "--r", "0"], "must be finite"),
    ], ids=["eps_phi", "eps_lim", "r0"])
    def test_nan_tolerance_is_input_error(self, toy_path, tmp_path, capsys, flags, message):
        code = main(["workflow", "--scenario", str(toy_path), "--out", str(tmp_path / "out"),
                     "--mode", "worst_case", *flags])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("input error:") and message in err

    @pytest.mark.parametrize("command, prefix", [("linearize", ""), ("workflow", "[screening] ")])
    def test_grid_too_fine_to_allocate_is_input_error(self, tmp_path, capsys, command, prefix):
        # 1e-300 once overflowed the grid size: a ValueError traceback, not exit 4
        desk = tmp_path / "desk.json"
        desk.write_text(json.dumps(three_area_system()))
        code = main([command, "--scenario", str(desk), "--out", str(tmp_path / "out"),
                     "--mode", "worst_case", "--eps-phi", "1e-300"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {prefix}a sweep of ") and "states exceeds" in err

    @pytest.mark.parametrize("flags, message", [
        (["--eta", "1.5"], "eta must be in (0, 1), got 1.5"),
        (["--eta", "0"], "eta must be in (0, 1), got 0.0"),
        (["--eta", "nan"], "eta must be in (0, 1), got nan"),
        (["--eps-lim", "-1"], "eps_lim must be > 0 and finite, got -1.0"),
        (["--eps-lim", "inf"], "eps_lim must be > 0 and finite, got inf"),
        (["--eps-strict", "0"], "eps_strict must be > 0 and finite, got 0.0"),
        (["--eps-phi", "-0.1"], "eps_phi must be > 0 and finite, got -0.1"),
        (["--settle-margin", "nan"], "settle_margin must be >= 0 and finite, got nan"),
        (["--settle-margin", "-1"], "settle_margin must be >= 0 and finite, got -1.0"),
        (["--r", "inf"], "detection score and threshold must be finite"),
    ], ids=["eta_high", "eta_zero", "eta_nan", "eps_lim", "eps_lim_inf", "eps_strict", "eps_phi",
            "settle_margin", "settle_margin_negative", "r_inf"])
    def test_bad_setting_is_input_error_before_any_stage(self, toy_path, tmp_path, capsys,
                                                         monkeypatch, flags, message):
        # a negative eps_lim once exited 0 on a no_attack run and failed at
        # [tables] after the sweep on a worst-case one; a negative settle
        # margin screened, then failed at [dispatch]; eta 1.5 ran worst case
        from cred import workflow

        dispatched = []
        monkeypatch.setattr(workflow, "solve_cred", lambda *a, **k: dispatched.append(a))
        runs = (["workflow", "--r", "0", "--r0", "0.5"], ["workflow", "--mode", "worst_case"],
                ["sweep", "--mode", "worst_case", "--axis", "vulnerable_fraction",
                 "--grid", "0.5"])
        for argv in runs:
            err = input_error(capsys, argv, "--scenario", toy_path, "--out", tmp_path / "out",
                              *flags)
            assert err == f"input error: {message}\n", argv
        assert dispatched == []

    @pytest.mark.parametrize("argv", [
        ["workflow"],
        ["workflow", "--mode", "mean_only"],
        ["simulate", "--t-end", "10"],
    ], ids=["workflow", "workflow_mean_only", "simulate"])
    def test_sample_file_without_records_is_input_error(self, tmp_path, capsys, argv):
        # without the check, workflow ran worst-case gains and mean_only asked for a file
        desk, empty = tmp_path / "desk.json", tmp_path / "empty.json"
        desk.write_text(json.dumps(three_area_system()))
        empty.write_text("[]")
        code = main([*argv, "--scenario", str(desk), "--out", str(tmp_path / "out"),
                     "--samples", str(empty)])
        assert code == 4
        assert capsys.readouterr().err == f"input error: samples file {empty} holds no records\n"

    def test_short_table_names_the_dispatch_stage(self, toy_path, tmp_path, capsys,
                                                  monkeypatch):
        # the stability set checks coverage when it is built, inside the dispatch stage
        from dataclasses import replace

        from cred import workflow

        build = workflow.build_segment_table
        monkeypatch.setattr(workflow, "build_segment_table",
                            lambda *args: replace(build(*args), range_end=1.0))
        code = main(["workflow", "--scenario", str(toy_path), "--out", str(tmp_path / "out"),
                     "--mode", "worst_case"])
        assert code == 4
        assert capsys.readouterr().err == ("input error: [dispatch] table for pair (1,0) "
                                           "covers [0, 1] but robust gain is 3\n")

    @pytest.mark.parametrize("text, mode", [
        ("NaN", "auto"), ("Infinity", "mean_only"), ("Infinity", "auto"),
    ], ids=["nan_auto", "inf_mean_only", "inf_auto"])
    def test_non_finite_sample_is_input_error(self, tmp_path, capsys, text, mode):
        # NaN once failed at the precheck, and infinity with mean_only was
        # clamped to the physical budget and exited 0
        desk, samples = tmp_path / "desk.json", tmp_path / "samples.json"
        desk.write_text(json.dumps(three_area_system()))
        samples.write_text(f'[{{"area": 1, "samples": [2000.0, {text}]}}]')
        code = main(["workflow", "--scenario", str(desk), "--out", str(tmp_path / "out"),
                     "--samples", str(samples), "--mode", mode])
        assert code == 4
        assert capsys.readouterr().err == (f"input error: samples file {samples} holds a "
                                           "non-finite sample in area 1\n")

    def test_unstable_base_without_gain_is_input_error(self, tmp_path, capsys):
        doc = single_area_toy()
        doc["areas"][0].update(gov_proportional=0.0, damping=0.0, vulnerable_load=0.0)
        toy = tmp_path / "unstable.json"
        toy.write_text(json.dumps(doc))
        code = main(["workflow", "--scenario", str(toy), "--out", str(tmp_path / "out"),
                     "--mode", "worst_case"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert "[screening] base system is unstable; cannot anchor the sweep at 0" in err

    @pytest.mark.parametrize("flags, message", [
        (["--dt", "0"], "dt must be positive"),
        (["--dt", "-0.01"], "dt must be positive"),
        (["--t-end", "nan"], "must be finite"),
        (["--step-area", "3"], "--step-area must name an area in [0, 2]"),
        (["--step-area", "-1"], "--step-area must name an area in [0, 2]"),
        (["--step-mw", "nan"], "disturbance must hold 3 finite values"),
        (["--step-mw", "inf"], "disturbance must hold 3 finite values"),
        # horizons past MAX_STATE_ENTRIES ended in OverflowError or MemoryError
        (["--dt", "1e-320"], "a horizon of inf samples of 6 states exceeds"),
        (["--t-end", "1e15"], "a horizon of 5e+16 samples of 6 states exceeds"),
        (["--dt", "1e-12"], "a horizon of 4e+13 samples of 6 states exceeds"),
        (["--t-step", "-5", "--t-end", "-1"], "t_end must exceed t_step and be nonnegative"),
        # checked with the other settings, though auto without samples reads no eta
        (["--eta", "1.5"], "eta must be in (0, 1), got 1.5"),
    ], ids=["dt_zero", "dt_negative", "t_end_nan", "step_area_high", "step_area_negative",
            "step_mw_nan", "step_mw_inf", "dt_underflow", "t_end_huge", "dt_tiny",
            "t_end_negative", "eta_high"])
    def test_bad_simulate_flag_is_input_error(self, tmp_path, capsys, flags, message):
        desk = tmp_path / "desk.json"
        desk.write_text(json.dumps(three_area_system()))
        code = main(["simulate", "--scenario", str(desk), "--out", str(tmp_path / "out"),
                     *flags])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("input error:") and message in err

    @pytest.mark.parametrize("case", ["non_numeric_field", "area_not_object", "nan_static"])
    def test_malformed_scenario_field_is_input_error(self, tmp_path, capsys, case):
        doc = single_area_toy()
        if case == "non_numeric_field":
            doc["areas"][0]["inertia_sg"] = "abc"
        elif case == "area_not_object":
            doc["areas"][0] = 5.0
        else:
            doc["attack"]["static"] = [float("nan")]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        # a detection score of 0 ends the run right after loading
        code = main(["workflow", "--scenario", str(path), "--out", str(tmp_path / "out"),
                     "--r", "0"])
        assert code == 4
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("records", [
        [{"area": 0, "samples": [2.5, "abc"]}],
        [{"area": 0, "samples": [2.5, 2.6]}, 5.0],
    ], ids=["non_numeric_sample", "record_not_object"])
    def test_malformed_samples_are_input_error(self, toy_path, tmp_path, capsys, records):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps(records))
        code = main(["workflow", "--scenario", str(toy_path), "--out", str(tmp_path / "out"),
                     "--samples", str(samples)])
        assert code == 4
        assert capsys.readouterr().err.startswith("input error:")

    def test_infeasible_is_exit_three(self, tmp_path):
        # attacked area with no wind anywhere: no droop, no way to stabilize
        doc = single_area_toy()
        doc["areas"][0]["ibr_max_power"] = 0.0
        for p in doc["dispatch"]["periods"]:
            p["wind_available"] = [0.0]
        path = tmp_path / "doomed.json"
        path.write_text(json.dumps(doc))
        code = main(["workflow", "--scenario", str(path), "--out",
                     str(tmp_path / "out"), "--mode", "worst_case"])
        assert code == 3

    def test_validation_failure_is_exit_two(self, tmp_path):
        from cred.systems import three_area_system

        # a coarse table against the bare axis survives the solver but not
        # the exact certificate, even after the automatic rebuild
        path = tmp_path / "desk.json"
        path.write_text(json.dumps(three_area_system()))
        code = main(["workflow", "--scenario", str(path), "--out",
                     str(tmp_path / "out"), "--mode", "worst_case",
                     "--eps-lim", "0.5", "--settle-margin", "0"])
        assert code == 2


class TestReadme:
    def test_command_lines_parse(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line, comments=True)
                    for line in block.replace("\\\n", " ").splitlines()]
        commands = [c for c in commands if c and c[0] == "cred"]
        assert {c[1] for c in commands} == {"analyze", "linearize", "simulate", "workflow",
                                           "sweep"}
        parser = cli.build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])
