import importlib.util
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "op_times.py"
LINE = re.compile(r"^(\d+)  (\S+)  rank=(\d+)(?:  (p50|tail|p50 tail))?$")


def load_script():
    spec = importlib.util.spec_from_file_location("op_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_marks_follow_credbench_ranks():
    script = load_script()
    # 100 ops: the median averages ranks 50 and 51, the tail is the 90th
    times = [float((37 * j) % 100) for j in range(100)]
    marked = script.marks(times)
    assert sorted(r for r, _ in marked) == list(range(1, 101))
    assert {r: m for r, m in marked if m} == {50: "p50", 51: "p50", 90: "tail"}
    # 5 ops: the median is rank 3, and with fewer than 20 the tail is the maximum
    marked = script.marks([5.0, 1.0, 4.0, 2.0, 3.0])
    assert marked == [(5, "tail"), (1, ""), (4, ""), (2, ""), (3, "p50")]


def test_one_line_per_op_and_the_moved_ops(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--workload", "storage_horizon",
                           "--passes", "1"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    matches = [LINE.match(line) for line in proc.stdout.splitlines()]
    assert [int(m.group(1)) for m in matches] == list(range(5))
    assert sorted(int(m.group(3)) for m in matches) == [1, 2, 3, 4, 5]
    # an earlier run twice as slow: every op moved by -50%
    script = load_script()
    rows = script.parse(proc.stdout.splitlines())
    before = [(2.0 * t, m) for t, m in rows]
    summary, *lines = script.against(rows, before, 0.05)
    assert summary.startswith("5 of 5 ops moved by more than 0.05; p50 ")
    assert all(re.fullmatch(r"\d+  \S+ -> \S+  -50\.0%  \[.*\] -> \[.*\]", line)
               for line in lines)
    assert script.against(rows, before[:4], 0.05) == ["5 ops here, 4 there"]
    assert script.against(rows, rows, 0.05)[1:] == []
