"""List the statements of src/fps that no tier-1 test executes.

Usage (from the root of a checkout): python tests/reach.py [PYTEST-ARGS...]

Runs the tier-1 suite (`tests/`, or PYTEST-ARGS) in this process under a
`sys.settrace` line tracer that records the lines run in src/fps, then
prints every statement none of whose lines ran, as `path:line: source`,
and a count.  A statement counts only if a line of its own (not of a
statement nested in it) holds bytecode, so docstrings and comments never
show.  Lines that only a subprocess runs (`python -m fps`) or only a type
checker reads (`if TYPE_CHECKING:`) show by design.  The tracer makes the
suite about twice as slow, and it follows the main thread only (no test
starts a thread); pytest collects only test_*.py, so this script is not
part of tier-1.  Exit code: that of the suite.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fps"


def _bytecode_lines(code) -> set[int]:
    """Lines holding bytecode in `code` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _bytecode_lines(const)
    return lines


def _span(node: ast.stmt) -> set[int]:
    """The lines of a statement, its decorators included."""
    first = min([node.lineno] + [dec.lineno for dec in getattr(node, "decorator_list", [])])
    return set(range(first, node.end_lineno + 1))


def _statements(source: str, filename: str) -> dict[int, set[int]]:
    """First line of each statement -> its own lines that hold bytecode."""
    executable = _bytecode_lines(compile(source, filename, "exec"))
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        own = _span(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                own -= _span(child)
        if own & executable:
            found[min(_span(node))] = own & executable
    return found


def run_traced(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest on `args` under the line tracer; (exit code, executed (file, line) pairs)."""
    prefix = str(PACKAGE) + "/"
    executed: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *args]
        )
    finally:
        sys.settrace(None)
    return int(code), executed


def main(argv: list[str]) -> int:
    code, executed = run_traced(argv or [str(ROOT / "tests")])
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for first, own in sorted(_statements(source, str(path)).items()):
            if not any((str(path), line) in executed for line in own):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    where = PACKAGE.relative_to(ROOT)
    print(f"{missed} statement(s) of {where} not reached; suite exit code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
