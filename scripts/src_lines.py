#!/usr/bin/env python3
"""Print the code lines of each src/cred module and their total.

A code line is a source line that holds part of a token other than a
comment, a docstring or layout (newlines and indentation).  A statement
made of string literals alone, such as a docstring, counts as no code; a
string inside any other statement counts on every line it spans.  Blank
lines and lines holding only a comment count as no code.

    python3 scripts/src_lines.py [ROOT] [--against OTHER_ROOT]

ROOT is a checkout (default: the one holding this script); the modules are
ROOT/src/cred/*.py.  With --against, each row gives the module's code lines
in ROOT, in OTHER_ROOT and their difference ROOT - OTHER_ROOT, a module
present in one tree only reading "-" in the other and counting 0 there.
"""

import argparse
import sys
import tokenize
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

#: tokens that carry no code by themselves
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Number of lines of path that hold code (see the module docstring)."""
    lines, statement = set(), []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def module_lines(root: Path) -> dict:
    """Code lines of each module under root/src/cred, by file name."""
    modules = sorted(root.joinpath("src", "cred").glob("*.py"))
    return {path.name: code_lines(path) for path in modules}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print the code lines of each src/cred module.")
    parser.add_argument("root", nargs="?", type=Path, default=HERE)
    parser.add_argument("--against", type=Path, metavar="OTHER_ROOT")
    args = parser.parse_args(argv)
    roots = [args.root] + ([args.against] if args.against else [])
    trees = [module_lines(root) for root in roots]
    for root, tree in zip(roots, trees):
        if not tree:
            print(f"error: no modules under {root}/src/cred", file=sys.stderr)
            return 2
    names = sorted(set().union(*trees))
    rows = [(name, [tree.get(name) for tree in trees]) for name in names]
    rows.append(("total", [sum(tree.values()) for tree in trees]))
    width = max(map(len, names))
    for name, counts in rows:
        cells = [f"{'-' if count is None else count:>5}" for count in counts]
        if args.against:
            cells.append(f"{(counts[0] or 0) - (counts[1] or 0):>+6}")
        print(f"{name:<{width}}  " + "  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
