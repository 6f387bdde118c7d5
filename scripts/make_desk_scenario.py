#!/usr/bin/env python3
"""Write the desk-scale study scenarios and detection-sample files.

Produces the single-area toy, the three-area system (with and without wind,
plus a storage variant over four periods and over a day), and one sample
file per estimation case.
"""

import argparse
import json
from pathlib import Path

from cred.systems import (
    TABLE_GAIN_CASES,
    single_area_toy,
    synthesize_samples,
    three_area_no_wind,
    three_area_storage_day,
    three_area_system,
    three_area_with_storage,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="data", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="sample synthesis seed")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    docs = {
        "toy.json": single_area_toy(),
        "desk_mid_wind.json": three_area_system(),
        "desk_no_wind.json": three_area_no_wind(),
        "desk_storage.json": three_area_with_storage(),
        "desk_storage_day.json": three_area_storage_day(),
    }
    for name, doc in docs.items():
        (out / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out / name}")

    for case, info in TABLE_GAIN_CASES.items():
        records = synthesize_samples(
            info["mean"] * 1000.0, info["std"] * 1000.0, area=1,
            count=1000, seed=args.seed,
        )
        path = out / f"samples_{case}.json"
        path.write_text(json.dumps(records) + "\n")
        print(f"wrote {path} (mean {info['mean']} p.u., std {info['std']} p.u.)")


if __name__ == "__main__":
    main()
