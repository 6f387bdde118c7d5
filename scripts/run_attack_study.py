#!/usr/bin/env python3
"""Cost of resilience under different levels of attack knowledge.

For each estimation case, solves the redispatch three ways: assuming the
attacker saturates the whole vulnerable load (worst case), covering the
estimated moments at the chosen confidence (robust), and trusting the
estimated mean outright.  Prints the cost increments and writes a CSV.
"""

import argparse
import json
import tempfile
from pathlib import Path

from cred.scenario import scenario_from_dict
from cred.systems import TABLE_GAIN_CASES, synthesize_samples, three_area_system
from cred.workflow import WorkflowConfig, run_workflow, write_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--eta", type=float, default=0.95)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    doc = three_area_system()
    worst = run_workflow(WorkflowConfig(mode="worst_case"),
                         bundle=scenario_from_dict(doc))
    print(f"worst case: increment {worst.cost_increment:,.0f} "
          f"(gain {worst.robust_gains[1]:.2f} p.u./Hz)")

    rows = [["case", "mode", "gain_pu_per_hz", "increment"]]
    rows.append(["base", "worst_case", worst.robust_gains[1], worst.cost_increment])
    with tempfile.TemporaryDirectory() as tmp:
        for case in ("case1", "case2", "case3"):
            info = TABLE_GAIN_CASES[case]
            spath = Path(tmp) / f"{case}.json"
            spath.write_text(json.dumps(synthesize_samples(
                info["mean"] * 1000.0, info["std"] * 1000.0, 1, seed=args.seed)))
            for mode, label in (("auto", "robust"), ("mean_only", "mean")):
                cfg = WorkflowConfig(samples_path=str(spath), mode=mode, eta=args.eta)
                rep = run_workflow(cfg, bundle=scenario_from_dict(doc))
                rows.append([case, label, rep.robust_gains[1], rep.cost_increment])
                print(f"{case} {label:>6}: increment {rep.cost_increment:,.0f} "
                      f"(gain {rep.robust_gains[1]:.2f} p.u./Hz, {rep.branch_taken})")

    out = Path(args.out)
    write_csv(out / "attack_study.csv", rows[0], rows[1:])
    print(f"wrote {out / 'attack_study.csv'}")


if __name__ == "__main__":
    main()
