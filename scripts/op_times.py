#!/usr/bin/env python3
"""Print each operation's best-of-N wall time on one benchmark pool.

Builds one seeded ``credbench`` pool as the benchmark does (``Bench`` in
``credbench/harness.py``, read only), warms it up, runs N passes over it
op by op and prints one line per op

    <op>  <seconds>  rank=<r>  <marks>

its best wall time over the passes and its rank in the pool (1 the
fastest).  The marks name the ranks that credbench's metrics read, applied
to these times: ``p50`` at the one or two middle ranks that
``op_p50_s``'s median averages, and ``tail`` at the nearest rank of
``op_tail_s``'s percentile (``harness.tail_percentile``).  credbench takes
per-op medians in reference seconds; best-of-N wall times rank the same
ops when the machine is steady and show one op's change more sharply.

``--against FILE`` (an earlier output, say of a parent checkout) ends the
output with the ops whose time moved by more than ``--moved`` of their
earlier time, the largest change first,

    # against FILE: <m> of <n> ops moved by more than <moved>; p50 <s> -> <s>, tail <s> -> <s>
    # <op>  <seconds> -> <seconds>  <+-percent>  <marks then> -> <marks now>

    python3 scripts/op_times.py --workload step_response --seed 0 > before.txt
    python3 scripts/op_times.py --workload step_response --seed 0 --against before.txt
"""

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "credbench")]

import harness  # noqa: E402
import workloads  # noqa: E402


def best_times(bench, passes: int) -> list:
    """Per op, its least wall time over `passes` passes of the pool."""
    best = [float("inf")] * len(bench.items)
    for _ in range(passes):
        for j in range(len(best)):
            start = time.perf_counter()
            try:
                bench.operation(j)
            except Exception:  # a failed op is timed too, as credbench times it
                pass
            best[j] = min(best[j], time.perf_counter() - start)
    return best


def marks(times: list) -> list:
    """Per op, its rank (1 the fastest) and the credbench metrics read at that rank."""
    n = len(times)
    ranks = [0] * n
    for r, j in enumerate(sorted(range(n), key=times.__getitem__), start=1):
        ranks[j] = r
    middle = statistics.median(range(1, n + 1))
    p50 = {int(middle), -int(-middle // 1)}
    tail = harness.percentile_value(range(1, n + 1), harness.tail_percentile(n))
    return [(r, " ".join(name for name, at in (("p50", r in p50), ("tail", r == tail)) if at))
            for r in ranks]


def parse(lines: list) -> list:
    """(seconds, marks) of each op line of an earlier output."""
    out = []
    for line in lines:
        if line and not line.startswith("#"):
            fields = line.split("  ")
            out.append((float(fields[1]), fields[3] if len(fields) > 3 else ""))
    return out


def _ranked(rows: list, label: str) -> float:
    """Mean time of the ops that carry the mark `label`."""
    return statistics.mean(t for t, m in rows if label in m.split())


def against(rows: list, before: list, moved: float) -> list:
    """The summary line and one line per op that moved, largest change first."""
    if len(rows) != len(before):
        return [f"{len(rows)} ops here, {len(before)} there"]
    changed = sorted(((now[0] / then[0] - 1.0, j, then, now)
                      for j, (now, then) in enumerate(zip(rows, before))
                      if abs(now[0] / then[0] - 1.0) > moved),
                     key=lambda c: -abs(c[0]))
    out = [f"{len(changed)} of {len(rows)} ops moved by more than {moved:g}; "
           f"p50 {_ranked(before, 'p50'):.6g} -> {_ranked(rows, 'p50'):.6g}, "
           f"tail {_ranked(before, 'tail'):.6g} -> {_ranked(rows, 'tail'):.6g}"]
    for rel, j, then, now in changed:
        out.append(f"{j}  {then[0]:.6g} -> {now[0]:.6g}  {100.0 * rel:+.1f}%  "
                   f"[{then[1]}] -> [{now[1]}]")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--passes", type=int, default=15, help="passes over the pool")
    parser.add_argument("--against", type=Path, help="compare with this earlier output")
    parser.add_argument("--moved", type=float, default=0.05,
                        help="with --against: the relative change that counts as moved")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        bench = harness.Bench(args.workload, args.seed, Path(tmp))
        bench.warm_up()
        times = best_times(bench, args.passes)
    rows = []
    for j, (t, (rank, mark)) in enumerate(zip(times, marks(times))):
        rows.append((t, mark))
        print(f"{j}  {t:.6e}  rank={rank}  {mark}".rstrip(), flush=True)
    if args.against is not None:
        before = parse(args.against.read_text().splitlines())
        summary, *lines = against(rows, before, args.moved)
        print(f"# against {args.against}: {summary}")
        for line in lines:
            print(f"# {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
