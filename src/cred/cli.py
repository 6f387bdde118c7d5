"""Command-line entry point.

Subcommands: analyze, linearize, simulate, workflow, sweep.
Exit codes: 0 success, 2 validation failure, 3 infeasible, 4 input error
(a command-line usage error included).  The command reads --scenario and
writes into --out, which it creates before any work; the computations
themselves take parsed documents and write no files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from .errors import (
    CredError,
    DegenerateEigenvalueError,
    InfeasibleError,
    ScenarioError,
    ValidationFailure,
)
from .grid import AttackProfile, DroopSchedule, attack_from_gains, build_state_space
from .linearize import build_segment_table
from .scenario import load_scenario, read_json
from .simulate import classify_trajectory, simulate
from .stability import check_simple, eigen_decompose, sensitivity
from .workflow import (
    MODES,
    SWEEP_AXES,
    SweepRow,
    WorkflowConfig,
    resolve_gains,
    run_workflow,
    screen,
    sweep_study,
    write_artifacts,
    write_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_INPUT = 4


def _float_list(text: str) -> list:
    """argparse type: comma-separated numbers, at least one."""
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("must list at least one value")
    return values


# A flag that sets a run setting stores it under its WorkflowConfig field's
# name (metavar keeps the flag's own), with that field's default.  The file
# flags --scenario and --out are the command's own: WorkflowConfig has no
# field for either, and --out defaults to "out".
def _io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", dest="scenario_path", metavar="SCENARIO", required=True,
                        help="scenario JSON file")
    parser.add_argument("--out", dest="output_dir", metavar="OUT", default="out",
                        help="output directory")


def _gain_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", dest="samples_path", metavar="SAMPLES",
                        default=WorkflowConfig.samples_path, help="detection-sample JSON file")
    parser.add_argument("--eta", type=float, default=WorkflowConfig.eta,
                        help="confidence level in (0,1)")
    parser.add_argument("--mode", choices=MODES, default=WorkflowConfig.mode,
                        help="attack knowledge; auto is worst case without --samples")


def _table_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps-lim", type=float, default=WorkflowConfig.eps_lim,
                        help="linearization error limit on Re(lambda)")
    parser.add_argument("--eps-phi", type=float, default=WorkflowConfig.eps_phi,
                        help="sweep grid step (default: the swept gain / 200)")


def _workflow_flags(parser: argparse.ArgumentParser) -> None:
    _io_flags(parser)
    _gain_flags(parser)
    _table_flags(parser)
    parser.add_argument("--eps-strict", type=float, default=WorkflowConfig.eps_strict,
                        help="softening of strict inequalities")
    parser.add_argument("--settle-margin", type=float, default=WorkflowConfig.settle_margin,
                        help="extra left shift of the stability boundary")
    parser.add_argument("--r", dest="detection_score", metavar="R", type=float,
                        default=WorkflowConfig.detection_score, help="detection score")
    parser.add_argument("--r0", dest="detection_threshold", metavar="R0", type=float,
                        default=WorkflowConfig.detection_threshold, help="detection threshold")


def _config_from_args(args) -> WorkflowConfig:
    given = vars(args)
    return WorkflowConfig(**{f.name: given[f.name] for f in fields(WorkflowConfig)
                             if f.name in given})


def cmd_analyze(args) -> int:
    bundle = load_scenario(args.scenario_path)
    n = bundle.model.areas
    ss = build_state_space(bundle.model, AttackProfile.none(n), DroopSchedule.none(n))
    eig = eigen_decompose(ss)
    out = Path(args.output_dir)
    write_csv(out / "eigenvalues.csv", ["index", "re", "im"],
              [[i, lam.real, lam.imag] for i, lam in enumerate(eig.eigenvalues)])
    areas = bundle.attack_areas or tuple(range(n))
    derivs = [sensitivity(bundle.model, eig, a) for a in areas]
    rows = []
    for i, lam in enumerate(eig.eigenvalues):
        try:
            check_simple(eig.eigenvalues, lam, 0.0)
        except DegenerateEigenvalueError:
            print(f"note: eigenvalue {i} repeated; sensitivity skipped", file=sys.stderr)
            continue
        rows += [[i, a, d[i].real, d[i].imag] for a, d in zip(areas, derivs)]
    write_csv(out / "sensitivities.csv", ["eigen_index", "area", "d_re", "d_im"], rows)
    print(f"wrote {out / 'eigenvalues.csv'} and {out / 'sensitivities.csv'}")
    return EXIT_OK


def cmd_linearize(args) -> int:
    bundle = load_scenario(args.scenario_path)
    cfg = _config_from_args(args)
    gains = resolve_gains(cfg, bundle, cfg.read_samples(bundle.base_power))
    if not (gains > 0).any():
        raise ScenarioError("no attacked area with a positive gain to sweep")
    sweeps, pairs = screen(bundle.model, gains, cfg)
    seg_rows, audit_rows = [], []
    for i, a in pairs:
        tab = build_segment_table(sweeps[a], i, cfg.eps_lim)
        for p in tab.points:
            seg_rows.append([i, a, p.abscissa, p.eigenvalue.real, p.eigenvalue.imag,
                             p.slope.real, p.slope.imag])
        for k, err in zip(tab.grid_abscissas, tab.grid_errors):
            audit_rows.append([i, a, k, err])
    out = Path(args.output_dir)
    write_csv(out / "segments.csv",
              ["eigen_index", "area", "abscissa", "eig_re", "eig_im", "slope_re", "slope_im"],
              seg_rows)
    write_csv(out / "linearize_audit.csv",
              ["eigen_index", "area", "abscissa", "abs_re_error"], audit_rows)
    print(f"wrote {out / 'segments.csv'} ({len(pairs)} pairs)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    bundle = load_scenario(args.scenario_path)
    n = bundle.model.areas
    cfg, gains = _config_from_args(args), np.zeros(n)
    if cfg.mode != "auto" or cfg.samples_path is not None:
        gains = resolve_gains(cfg, bundle, cfg.read_samples(bundle.base_power))
    droop_gain = np.zeros(n)
    if args.kc is not None:
        droop_gain = np.array(args.kc) / bundle.base_power
        if droop_gain.shape != (n,):
            raise ScenarioError(f"--kc must list {n} comma-separated MW/Hz values")
    attack = attack_from_gains(gains, bundle.static_attack, bundle.attack_areas)
    ss = build_state_space(bundle.model, attack, DroopSchedule(droop_gain, np.zeros(n)))

    step = np.zeros(n)
    area = args.step_area
    if area is None:
        area = bundle.attack_areas[0] if bundle.attack_areas else 0
    elif not 0 <= area < n:
        raise ScenarioError(f"--step-area must name an area in [0, {n - 1}]")
    load = bundle.model.secure_load[area] + bundle.model.vulnerable_load[area]
    step[area] = 0.01 * load if args.step_mw is None else args.step_mw / bundle.base_power

    traj = simulate(ss, step, t_step=args.t_step, t_end=args.t_end, dt=args.dt)
    out = Path(args.output_dir)
    header = ["t"] + [f"omega_{a}" for a in range(n)] + [f"delta_{a}" for a in range(n)]
    rows = [
        [traj.times[k]] + list(traj.omega[k]) + list(traj.delta[k])
        for k in range(len(traj.times))
    ]
    write_csv(out / "trajectory.csv", header, rows)
    try:
        label = classify_trajectory(traj)
    except CredError as exc:
        label = f"indeterminate ({exc})"
    print(f"trajectory: {label}; diverged={traj.diverged}; wrote {out / 'trajectory.csv'}")
    return EXIT_OK


def cmd_workflow(args) -> int:
    bundle = load_scenario(args.scenario_path)
    rep = run_workflow(_config_from_args(args), bundle)
    write_artifacts(Path(args.output_dir), bundle.dispatch, rep)
    print(f"branch: {rep.branch_taken}")
    print(f"baseline cost: {rep.baseline_cost:.2f}")
    print(f"final cost:    {rep.final_cost:.2f}")
    print(f"increment:     {rep.cost_increment:.2f}")
    if rep.certificate is not None:
        worst = max(rep.certificate["max_real_per_period"])
        print(f"certificate:   max Re(lambda) = {worst:.6g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    doc = read_json(args.scenario_path, "scenario")
    rows = sweep_study(_config_from_args(args), args.axis, args.grid, doc)
    path = Path(args.output_dir) / "sweep.csv"
    write_csv(path, [f.name for f in fields(SweepRow)], map(astuple, rows))
    for r in rows:
        if r.error:
            print(f"{r.axis}={r.value:g}: FAILED ({r.error})")
        else:
            print(f"{r.axis}={r.value:g}: avg increment {r.avg_increment:.2f}, "
                  f"shed {r.shed_mwh:.1f} MWh, branch {r.branch}")
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cred",
        description="stability-constrained dispatch against load-altering attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="eigenvalues and sensitivities of the base system")
    _io_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("linearize", help="build piecewise eigenvalue tables")
    _io_flags(p)
    _gain_flags(p)
    _table_flags(p)
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("simulate", help="time-domain step response")
    _io_flags(p)
    _gain_flags(p)
    p.add_argument("--kc", type=_float_list, default=None,
                   help="per-area droop gains, MW/Hz, comma separated")
    p.add_argument("--t-step", type=float, default=1.0)
    p.add_argument("--t-end", type=float, default=40.0)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--step-area", type=int, default=None)
    p.add_argument("--step-mw", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("workflow", help="detection-to-certificate pipeline")
    _workflow_flags(p)
    p.set_defaults(func=cmd_workflow)

    p = sub.add_parser("sweep", help="repeat the workflow across a parameter grid")
    _workflow_flags(p)
    p.set_defaults(func=cmd_sweep)
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--grid", type=_float_list, required=True, help="comma-separated grid values")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: -h exits 0, a usage error 2
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        Path(args.output_dir).mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (CredError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
