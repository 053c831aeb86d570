#!/usr/bin/env python3
"""Line counts of the library: total lines and code lines.

    python3 tools/loc.py [DIR]

Counts every ``.py`` file under DIR (default ``src/bidistance`` next to this
script's parent).  A code line is a physical line that holds part of a
token other than a comment, a docstring, a line break or an indent; blank
lines, comment lines and docstring lines are not code.  A docstring is a
string literal that is a whole statement (the first statement of a module,
class or function, or an attribute note).  Prints one row per file and a
total row.  Standard library only.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_DROPPED = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
_LAYOUT = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(path: Path) -> int:
    """Physical lines of ``path`` that hold code."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in _DROPPED]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        # a string alone between statement breaks is a docstring
        before = tokens[i - 1].type if i else tokenize.NEWLINE
        after = tokens[i + 1].type if i + 1 < len(tokens) else tokenize.NEWLINE
        if tok.type == tokenize.STRING and after == tokenize.NEWLINE and before in _LAYOUT:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src/bidistance"
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        lines, kept = len(path.read_bytes().splitlines()), code_lines(path)
        total, code = total + lines, code + kept
        print(f"{lines:6d} {kept:6d}  {path.relative_to(root)}")
    print(f"{total:6d} {code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
