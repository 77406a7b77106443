"""Record a baseline: every workload on several seeds, plus traced runs.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py --seeds 1-10 --seconds 20 --out perfbench/baseline.json

For each workload, runs `run.py --trace 0` once per seed and stores every
end-to-end value with its median, quartiles and spread (quartile distance
over median); then runs `run.py --trace 1` twice on the first seed and
stores the per-layer metrics, checking that the work counts repeat
exactly.  Runs are sequential, so nothing else competes with them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from scenarios import WORKLOADS
from tracer import COUNT_METRICS

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result, context) of one benchmark run; the context gains its duration."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[0])["context"]
    context["run_duration_s"] = time.perf_counter() - start
    return json.loads(lines[-1]), context


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    baseline: dict = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        contexts = []
        attempted = failed = 0
        for seed in seeds:
            result, context = run(workload, seed, args.seconds, 0)
            contexts.append(context)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        traced = [run(workload, seeds[0], args.seconds, 1) for _ in range(2)]
        layers = [{k: m["value"] for k, m in result["metrics"].items()} for result, _ in traced]
        baseline["workloads"][workload] = {
            "end_to_end": {name: spread(v) for name, v in values.items()},
            "attempted": attempted,
            "failed": failed,
            "per_layer": layers[0],
            "per_layer_repeat": layers[1],
            "counts_repeat_exactly": all(layers[0][k] == layers[1][k] for k in COUNT_METRICS),
            "run_duration_s": [c["run_duration_s"] for c in contexts]
            + [c["run_duration_s"] for _, c in traced],
            "context": contexts[0],
        }
        for name, stats in baseline["workloads"][workload]["end_to_end"].items():
            print(f"  {name}: median {stats['median']:.6g} spread {stats['spread']:.4f}")
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
