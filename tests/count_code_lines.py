"""Count the code lines of src/fps, per file and in total.

Usage (from the root of a checkout): python tests/count_code_lines.py [DIR]

A code line holds at least one token other than a comment: blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, class or function body) are not counted.  A multi-line token other
than a docstring counts every line it spans.  DIR defaults to src/fps.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

#: Tokens that make no line a code line.
_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) of every docstring token in `source`."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path: Path) -> int:
    """The number of code lines of one Python file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_starts(source)
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in _SKIPPED:
                continue
            if token.type == tokenize.STRING and token.start in docstrings:
                continue
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path("src/fps")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
