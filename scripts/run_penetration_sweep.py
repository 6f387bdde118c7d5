#!/usr/bin/env python3
"""Cost increment vs vulnerable-load share at several wind penetrations.

Runs a vulnerable-fraction sweep on the no-wind fleet and on the windy
system at a few installed capacities, using worst-case attack gains.  The
no-wind fleet keeps its heavier governor response (an upstream scheduler
commits every unit when wind is absent), which is why attacks there are
free to ride through.
"""

import argparse
from pathlib import Path

from cred.systems import three_area_no_wind, three_area_system
from cred.workflow import WorkflowConfig, sweep_study, write_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--fractions", default="0.1,0.2,0.3,0.35,0.4,0.45,0.5")
    parser.add_argument("--capacities-mw", default="3000,5000")
    args = parser.parse_args()

    grid = [float(x) for x in args.fractions.split(",")]
    cfg = WorkflowConfig(mode="worst_case")
    out = Path(args.out)

    table = [["wind_capacity_mw", "vulnerable_fraction", "avg_increment",
              "shed_mwh", "branch", "error"]]

    rows = sweep_study(cfg, "vulnerable_fraction", grid,
                       scenario_doc=three_area_no_wind())
    for r in rows:
        table.append([0.0, r.value, r.avg_increment, r.shed_mwh, r.branch, r.error])
        print(f"wind 0 MW, f={r.value:.2f}: increment {r.avg_increment}, {r.branch}")

    for cap in (float(x) for x in args.capacities_mw.split(",")):
        doc = three_area_system(wind_capacity_mw=cap)
        rows = sweep_study(cfg, "vulnerable_fraction", grid, scenario_doc=doc)
        for r in rows:
            inc = "failed" if r.avg_increment is None else f"{r.avg_increment:,.0f}"
            table.append([cap, r.value, r.avg_increment, r.shed_mwh, r.branch, r.error])
            print(f"wind {cap:.0f} MW, f={r.value:.2f}: increment {inc}, "
                  f"shed {r.shed_mwh}, {r.branch or r.error}")

    write_csv(out / "penetration_sweep.csv", table[0], table[1:])
    print(f"wrote {out / 'penetration_sweep.csv'}")


if __name__ == "__main__":
    main()
