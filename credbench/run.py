#!/usr/bin/env python3
"""Benchmark of cred: time to a certified dispatch on four workloads.

Run from the root of a checkout:

    python3 credbench/run.py --workload desk_redispatch --seed 0 --seconds 40 --trace 0

One client runs operations back to back (a closed loop) in this process.
An operation is one ``run_workflow`` call from a scenario document to a
report or, on ``step_response``, one ``simulate`` + ``classify_trajectory``
pair.  The workload's seeded pool of operations is run in passes until
``--seconds`` of wall time have gone by and every operation has run at
least once.  Every result goes through the correctness gate
(``gate.py``) outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
operation twice, once bare and once under the tracer (``tracing.py``), and
prints the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it is a JSON object with the environment, the workload's
input distribution, the tail percentile and its sample count, and the
failures itemised by stage and exception type.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "cred" / "__init__.py").is_file():
        print(f"error: no cred sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    import workloads

    if Path(harness.cred.__file__).resolve().parent != (src / "cred").resolve():
        print(f"error: imported cred from {harness.cred.__file__}, not {src}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the default seed's results as the gate's reference")
    return harness.run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
