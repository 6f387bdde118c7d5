import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "src_lines.py"

SAMPLE = '''"""Module docstring,
over two lines."""

import numpy as np  # code
# a comment line

X = """a string that is
not a docstring"""


def f(a,
      # a comment inside a call
      b):
    """Docstring."""
    return (a
            + b)
'''
#: SAMPLE's code lines, by number
CODE = [4, 7, 8, 11, 13, 15, 16]


def run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True)


def test_counts_code_lines_of_each_module(tmp_path):
    pkg = tmp_path / "src" / "cred"
    pkg.mkdir(parents=True)
    (pkg / "sample.py").write_text(SAMPLE)
    (pkg / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    proc = run(tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows == [["empty.py", "0"], ["sample.py", str(len(CODE))],
                    ["total", str(len(CODE))]]


def test_against_gives_both_trees_and_the_difference(tmp_path):
    """A module in one tree only reads "-" in the other and counts 0 there."""
    trees = {"new": {"sample.py": SAMPLE, "moved.py": "X = 1\n"},
             "old": {"sample.py": SAMPLE + "Y = 2\n", "gone.py": "Z = (1,\n     2)\n"}}
    for tree, modules in trees.items():
        pkg = tmp_path / tree / "src" / "cred"
        pkg.mkdir(parents=True)
        for name, text in modules.items():
            (pkg / name).write_text(text)
    proc = run(tmp_path / "new", "--against", tmp_path / "old")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    n = len(CODE)
    assert rows == [["gone.py", "-", "2", "-2"], ["moved.py", "1", "-", "+1"],
                    ["sample.py", str(n), str(n + 1), "-1"],
                    ["total", str(n + 1), str(n + 3), "-2"]]


def test_missing_modules_and_extra_arguments_fail(tmp_path):
    assert run(tmp_path).returncode == 2
    assert run(tmp_path, tmp_path).returncode == 2
    pkg = tmp_path / "tree" / "src" / "cred"
    pkg.mkdir(parents=True)
    (pkg / "sample.py").write_text(SAMPLE)
    assert run(tmp_path / "tree", "--against", tmp_path).returncode == 2
