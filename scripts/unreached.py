#!/usr/bin/env python3
"""Run pytest under a line tracer and print each src/cred statement that never ran.

    python3 scripts/unreached.py [ROOT] [-- PYTEST_ARGS ...]

ROOT is a checkout (default: the one holding this script).  pytest runs in
this process on ROOT/tests, or on PYTEST_ARGS when given, with ROOT/src
first on sys.path and a `sys.settrace` tracer that follows only frames of
files under ROOT/src/cred.  A statement is one `ast` statement other than a
docstring or a `global`/`nonlocal` declaration; it ran when a line event
fell on one of its lines (for a compound statement: its decorators and
header, up to its body).  Code run in a subprocess or a thread is not
traced, and a module imported before the tracer starts reads as unreached
at its top level.  Each unreached statement is printed as
`path:line: source`, then their count; the exit code is pytest's.
"""

import ast
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent


def statement_lines(path: Path) -> dict:
    """{first line: the lines a line event may fall on} of each statement in path."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring or a bare string: no code
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        stop = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        out[start] = set(range(start, stop + 1))
    return out


def trace_pytest(root: Path, pytest_args: list) -> tuple:
    """(pytest's exit code, {file name: the lines that ran}) for files under root/src/cred."""
    prefix = str(root / "src" / "cred") + "/"
    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    sys.path.insert(0, str(root / "src"))
    sys.settrace(call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(code), ran


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pytest_args = []
    if "--" in argv:
        cut = argv.index("--")
        argv, pytest_args = argv[:cut], argv[cut + 1:]
    if len(argv) > 1:
        print("usage: unreached.py [ROOT] [-- PYTEST_ARGS ...]", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve() if argv else HERE
    modules = sorted(root.joinpath("src", "cred").glob("*.py"))
    if not modules:
        print(f"error: no modules under {root}/src/cred", file=sys.stderr)
        return 2
    code, ran = trace_pytest(root, pytest_args or ["-q", "-p", "no:cacheprovider",
                                                   str(root / "tests")])
    missed = 0
    for path in modules:
        hit = ran.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        for first, lines in sorted(statement_lines(path).items()):
            if not lines & hit:
                missed += 1
                print(f"{path.relative_to(root)}:{first}: {source[first - 1].strip()}")
    print(f"{missed} statements unreached")
    return code


if __name__ == "__main__":
    sys.exit(main())
