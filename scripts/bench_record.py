#!/usr/bin/env python3
"""Record one benchmark trajectory point as BENCH_<label>.json.

Runs the command BENCHMARK.json declares (``credbench/run.py``) once on each
workload it names, for its ``run_seconds``, and stores every run's metrics
line and info line (environment with the BLAS thread count, gate verdict,
failures, wall-clock values).  Neither BENCHMARK.json nor credbench is
edited.  ``--root`` benchmarks another checkout, e.g. a parent commit
unpacked with ``git archive``, with that checkout's own benchmark files; the
record is written into that checkout.

The record names the code it measured: ``commit`` is HEAD and ``diff_sha256``
the sha256 of the uncommitted changes to everything but the docs and the
records, ``git diff --binary --full-index HEAD -- <CODE>`` (None on a clean
tree).  Once those changes are committed as C, the same hash comes from
``git diff --binary --full-index HEAD C -- <CODE>``.  A tree with untracked
files there is refused, because the hash would not cover them.

    python3 scripts/bench_record.py --label after-change
"""

import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

#: the pathspec the diff hash covers: all but the docs and the trajectory records
CODE = [".", ":(exclude)*.md", ":(exclude)BENCH_*.json"]


def parse_run(stdout: str) -> dict:
    """The info and metrics objects: the last two lines of a run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("benchmark output ends before its info and metrics lines")
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def git(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True)


def revision_of(root: Path) -> dict:
    """HEAD and the hash of the uncommitted changes; both None outside git."""
    head = git(root, "rev-parse", "HEAD")
    if head.returncode != 0:
        return {"commit": None, "diff_sha256": None}
    untracked = git(root, "ls-files", "--others", "--exclude-standard", "--", *CODE).stdout
    if untracked:
        raise ValueError("untracked files outside the diff hash: "
                         + ", ".join(untracked.decode().split()))
    diff = git(root, "diff", "--binary", "--full-index", "HEAD", "--", *CODE).stdout
    return {"commit": head.stdout.decode().strip(),
            "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--root", type=Path, default=HERE, help="checkout to benchmark")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    try:
        revision = revision_of(root)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = list(spec["command"]) + ["--workload", workload,
                                       "--seconds", str(spec["run_seconds"])]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"error: {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        run = parse_run(proc.stdout)
        run.update(workload=workload, elapsed_s=time.perf_counter() - start)
        runs.append(run)
        metrics = {k: round(v["value"], 6) for k, v in run["result"]["metrics"].items()}
        print(f"{workload}: {metrics}", flush=True)
    record = {"label": args.label, **revision, "command": spec["command"],
              "run_seconds": spec["run_seconds"], "runs": runs}
    path = root / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
