#!/usr/bin/env python3
"""Print the code lines of each src/cred module and their total.

A code line is a source line that holds part of a token other than a
comment, a docstring or layout (newlines and indentation).  A statement
made of string literals alone, such as a docstring, counts as no code; a
string inside any other statement counts on every line it spans.  Blank
lines and lines holding only a comment count as no code.

    python3 scripts/src_lines.py [ROOT]

ROOT is a checkout (default: the one holding this script); the modules are
ROOT/src/cred/*.py.
"""

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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: src_lines.py [ROOT]", file=sys.stderr)
        return 2
    modules = sorted((Path(argv[0]) if argv else HERE).joinpath("src", "cred").glob("*.py"))
    if not modules:
        print("error: no modules under ROOT/src/cred", file=sys.stderr)
        return 2
    counts = {path.name: code_lines(path) for path in modules}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
