#!/usr/bin/env python3
"""Line counts of the library: total lines and code lines.

    python3 tools/loc.py [--against REV] [DIR]

Counts every ``.py`` file under DIR (default ``src/bidistance`` next to this
script's parent).  A code line is a physical line that holds part of a
token other than a comment, a docstring, a line break or an indent; blank
lines, comment lines and docstring lines are not code.  A docstring is a
string literal that is a whole statement (the first statement of a module,
class or function, or an attribute note).  Prints one row per file and a
total row.  With ``--against REV`` each row also holds the file's counts at
the git revision REV (read with ``git show REV:path``) and today's counts
minus those.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_DROPPED = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
_LAYOUT = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(source: bytes) -> int:
    """Physical lines of a Python source that hold code."""
    tokens = [t for t in tokenize.tokenize(io.BytesIO(source).readline)
              if t.type not in _DROPPED]
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


def counts(source: bytes | None) -> tuple[int, int]:
    """(total lines, code lines) of a source, (0, 0) for a file that is absent."""
    return (len(source.splitlines()), code_lines(source)) if source is not None else (0, 0)


def _total(rows: list[tuple[int, int]]) -> tuple[int, int]:
    return sum(r[0] for r in rows), sum(r[1] for r in rows)


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True).stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Line counts of the library.")
    parser.add_argument("dir", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src/bidistance")
    parser.add_argument("--against", metavar="REV",
                        help="also print each file's counts at this git revision")
    args = parser.parse_args(argv)
    root = args.dir
    today = {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*.py"))}
    before: dict[str, bytes] = {}
    if args.against:
        # ls-tree lists the revision's files under root, relative to it
        try:
            listed = _git(root, "ls-tree", "-r", "--name-only", args.against).decode().splitlines()
            before = {name: _git(root, "show", f"{args.against}:./{name}")
                      for name in listed if name.endswith(".py")}
        except subprocess.CalledProcessError as exc:
            sys.stderr.write(exc.stderr.decode())
            return 2
        print(f"{'lines':>6} {'code':>6} {'at REV':>13}  {'change':>11}")
    names = sorted(today.keys() | before.keys())
    now = [counts(today.get(name)) for name in names]
    old = [counts(before.get(name)) for name in names]
    for name, (lines, kept), (old_lines, old_kept) in zip(
            [*names, "total"], [*now, _total(now)], [*old, _total(old)]):
        diff = f" {old_lines:6d} {old_kept:6d}  {lines - old_lines:+5d} {kept - old_kept:+5d}"
        print(f"{lines:6d} {kept:6d}{diff if args.against else ''}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
