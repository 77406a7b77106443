"""Rewrite tests/cli_pins.json, the CLI's byte pins, from the current tree.

Usage (from the root of a checkout): PYTHONPATH=src python tests/capture_pins.py

Each row of the table holds one CLI call: its argv, its exit code, the
SHA-256 of its stdout and its whole stderr.  The calls run in process, in one
directory holding every preset as `preset-<name>.json` (the benchmark's form)
and the table's own scenario files.  To add a row, append its argv to the
table and run this script.  Re-capturing accepts the current program's
outputs as correct: do it only on a commit whose outputs are known to be
right.  The table is written one row per line, so the diff of a re-capture
lists exactly the rows that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from fps.cli import PRESETS, _preset, main

TABLE = Path(__file__).with_name("cli_pins.json")


def setup(directory: Path, scenarios: dict) -> None:
    """Write every preset as `preset-<name>.json` and each scenario under its file name."""
    files = {f"preset-{name}.json": _preset(name) for name in PRESETS}
    for name, payload in {**files, **scenarios}.items():
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        (directory / name).write_text(text, encoding="utf-8")


def call(argv: list[str]) -> dict:
    """The exit code, stdout SHA-256 and stderr of `fps <argv>` in the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"exit": code, "stdout_sha256": digest, "stderr": err.getvalue()}


def capture() -> None:
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        setup(Path(directory), table["scenarios"])
        os.chdir(directory)
        try:
            rows = [{**row, **call(row["argv"])} for row in table["rows"]]
        finally:
            os.chdir(home)
    rows.sort(key=lambda row: row["argv"])
    scenarios = json.dumps(table["scenarios"], indent=1, sort_keys=True)
    lines = ",\n".join(json.dumps(row, sort_keys=True) for row in rows)
    TABLE.write_text(f'{{"scenarios": {scenarios},\n"rows": [\n{lines}\n]}}\n', encoding="utf-8")


if __name__ == "__main__":
    capture()
