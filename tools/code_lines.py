"""Count the code lines of Python files.

A code line holds at least one token that is not a comment, a docstring or a
line break. A docstring is the string that opens a module, class or function
body. Usage:

    python tools/code_lines.py [PATH ...]

Each PATH is a file or a directory (searched for ``*.py``); the default is
``src/emoskit``. Prints one line per file, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of ``source`` starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_starts(source)
    lines = set()
    with path.open("rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type in _SKIPPED or (token.type == tokenize.STRING and token.start in docstrings):
                continue
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [Path("src/emoskit")]
    files = sorted(f for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
