"""Capture the output references of the benchmark's checks into refs.json.

Usage (from the root of a checkout): python3 perfbench/capture_refs.py

Runs the checkout's `python -m fps` on the unmodified presets and stores
the SHA-256 of each output that must stay byte-identical (first-order
spectrum of every preset, mi, the classify cases, presets) and the exact-ode
spectra of the two-axis-pump operations, which have no closed form.
Re-capturing accepts the current program's outputs as correct: do it only
on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

from checks import parse_csv, sha256  # noqa: E402  (imports fps from ROOT/src)
from scenarios import (  # noqa: E402
    CLASSIFY_CASES,
    PRESET_NAMES,
    PRESETS,
    exact_cases,
    scenario_text,
)


def main() -> int:
    work = ROOT / ".perfbench" / "capture"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1")

    def fps(*argv: str) -> bytes:
        argv = [sys.executable, "-m", "fps", *argv]
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, check=True)
        return proc.stdout

    refs: dict = {"sha256": {}, "exact": {}}
    for preset in PRESET_NAMES:
        name = f"preset-{preset}.json"
        (work / name).write_text(scenario_text(PRESETS[preset]))
        refs["sha256"][f"spectrum-first-order:{preset}"] = sha256(
            fps("spectrum", "--scenario", name, "--method", "first-order")
        )
    refs["sha256"]["mi:fig1a"] = sha256(fps("mi", "--scenario", "preset-fig1a.json"))
    for preset, omega in CLASSIFY_CASES:
        refs["sha256"][f"classify:{preset}:{omega!r}"] = sha256(
            fps("classify", "--scenario", f"preset-{preset}.json", "--omega", repr(omega))
        )
    refs["sha256"]["presets"] = sha256(fps("presets"))
    for name, flat, _ in exact_cases(None):
        if not (flat["pump.p0x_W"] > 0 and flat["pump.p0y_W"] > 0):
            continue
        (work / "exact.json").write_text(scenario_text(flat))
        _, _, rows = parse_csv(fps("spectrum", "--scenario", "exact.json").decode())
        spectra: dict = {}
        for row in rows:
            entry = spectra.setdefault(row[4], {"f_x": [], "f_y": []})
            entry["f_x"].append(float(row[1]))
            entry["f_y"].append(float(row[2]))
        refs["exact"][f"exact:{name}"] = spectra
    shutil.rmtree(work)
    (BENCH / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
