"""fps benchmark: one workload, measured end to end or traced by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cli-first-order --seed 1 --seconds 20 --trace 0

Workloads: cli-first-order, cli-exact, library-sweep (see README.md).  The
load is a closed loop with one client: each operation starts after the
previous one returned.  The program is the checkout's own `src/fps`, run
from source.  The last line of stdout is the JSON result; the lines before
it give the run context and a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from scenarios import WORKLOADS, build_plan, write_plan
from tracer import COUNT_METRICS, LAYER_METRICS, layer_metrics, pool_efficiency

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

#: Fresh interpreters timed for setup_s, after one untimed warm-up.
SETUP_SPAWNS = 5
#: `python -X importtime` children parsed for the import.* metrics.
IMPORTTIME_SPAWNS = 3
#: A CLI call that runs longer than this counts as failed.
OP_TIMEOUT_S = 60.0
#: Untraced passes that always run, so wall_s is a median of at least two.
#: With --trace 1 one untraced and one traced pass always run instead.
MIN_PASSES = 2
#: Further passes start only when expected to end within --seconds and
#: within this many seconds of the run.
RUN_LIMIT_S = 140.0

#: One thread per BLAS and OpenMP pool keeps every operation, `--workers 2`
#: included, within nproc threads.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}


def child_env() -> dict:
    """Environment of every child: the checkout's sources and THREAD_ENV."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(THREAD_ENV)
    return env


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_run(argv: list[str], env: dict, cwd: Path, timeout: float):
    start = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout
    )
    return time.perf_counter() - start, proc


def measure_setup(env: dict, cwd: Path) -> float:
    """Median time for a fresh interpreter to finish `import fps`."""
    argv = [sys.executable, "-c", "import fps"]
    times = []
    for i in range(SETUP_SPAWNS + 1):
        wall, proc = timed_run(argv, env, cwd, OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import fps failed: {proc.stderr.decode()[-500:]}")
        if i:
            times.append(wall)
    return statistics.median(times)


def import_breakdown(env: dict, cwd: Path) -> dict:
    """import.* metrics from `python -X importtime -c "import fps"`, median of several."""
    samples = []
    for _ in range(IMPORTTIME_SPAWNS):
        _, proc = timed_run(
            [sys.executable, "-X", "importtime", "-c", "import fps"], env, cwd, OP_TIMEOUT_S
        )
        sums = dict.fromkeys(
            ("import.total_s", "import.scipy_s", "import.numpy_s", "import.fps_self_s"), 0.0
        )
        for line in proc.stderr.decode().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[len("import time:") :].split("|")
            if not self_us.strip().isdigit():
                continue
            name = name.strip()
            top = name.split(".")[0]
            if name == "fps":
                sums["import.total_s"] = int(cumulative_us) / 1e6
            key = IMPORT_SELF.get(top)
            if key:
                sums[key] += int(self_us) / 1e6
        samples.append(sums)
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


#: Top-level package -> import metric summing its modules' self time.
IMPORT_SELF = {"scipy": "import.scipy_s", "numpy": "import.numpy_s", "fps": "import.fps_self_s"}


class CliRunner:
    """Runs the passes of a CLI workload and checks every output."""

    def __init__(self, plan, run_dir: Path, env: dict, refs: dict) -> None:
        from checks import check_op, sha256

        self.check_op, self.sha256 = check_op, sha256
        self.plan, self.run_dir, self.env, self.refs = plan, run_dir, env, refs
        self.digests: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def run_op(self, op, traced: bool):
        """(wall seconds, output bytes, tracer record or None) of one checked call."""
        spans = self.run_dir / f"spans-{op.name}.json"
        out = self.run_dir / f"out-{op.name}.txt"
        if traced:
            argv = [sys.executable, str(BENCH / "fps_traced.py"), str(spans), *op.argv]
        else:
            argv = [sys.executable, "-m", "fps", *op.argv]
        if op.out:
            argv += ["--out", out.name]
        self.attempted += 1
        try:
            wall, proc = timed_run(argv, self.env, self.run_dir, OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail(op, f"timed out after {OP_TIMEOUT_S} s")
            return OP_TIMEOUT_S, 0, None
        output = proc.stdout
        if op.out and out.exists():
            output = out.read_bytes()
            out.unlink()
        record = None
        if traced and spans.exists():
            record = json.loads(spans.read_text())
            spans.unlink()
        if proc.returncode != 0:
            self.fail(op, f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]!r}")
        else:
            reason = self.check_op(op, output, self.run_dir, self.refs)
            digest = self.sha256(output)
            if reason is None and self.digests.setdefault(op.name, digest) != digest:
                reason = "output differs from the first pass"
            if reason:
                self.fail(op, reason)
        return wall, len(output), record

    def fail(self, op, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op.name} ({' '.join(op.argv)}): {reason}")

    def run_pass(self, traced: bool) -> tuple[dict, dict | None]:
        """({operation: wall seconds}, per-layer metrics if traced) of one pass."""
        walls, output_bytes, records, pool = {}, 0, [], None
        for op in self.plan.ops:
            walls[op.name], size, record = self.run_op(op, traced)
            output_bytes += size
            if record is not None:
                records.append(record)
                if op.workers > 1:
                    pool = pool_efficiency(record, op.workers)
        if not traced:
            return walls, None
        layers = layer_metrics(records)
        layers["cli.output_bytes"] = output_bytes
        layers["cli.pool_efficiency"] = pool or 0.0
        return walls, layers


def run_cli(plan, run_dir: Path, env: dict, seconds: float, trace: bool):
    refs = json.loads((BENCH / "refs.json").read_text())
    runner = CliRunner(plan, run_dir, env, refs)
    walls, traced_walls, layers = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        last = max((sum(w.values()) for w in walls + traced_walls), default=0.0)
        need_more = len(walls) < (1 if trace else MIN_PASSES) or (trace and not traced_walls)
        if not need_more and elapsed + last > min(seconds, RUN_LIMIT_S):
            break
        traced = trace and len(walls) > len(traced_walls)
        wall, pass_layers = runner.run_pass(traced)
        if traced:
            traced_walls.append(wall)
            layers.append(pass_layers)
        else:
            walls.append(wall)
    return {
        "walls": walls,
        "traced_walls": traced_walls,
        "layers": layers,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
    }


def run_sweep(plan, run_dir: Path, env: dict, seconds: float, trace: bool):
    argv = [sys.executable, str(BENCH / "sweep.py"), "sweep.json", repr(seconds), str(int(trace))]
    _, proc = timed_run(argv, env, run_dir, seconds + RUN_LIMIT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"library sweep failed: {proc.stderr.decode()[-1000:]}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def median_pass(passes: list[dict]) -> float:
    """Wall time of a pass built from the median time of each of its operations."""
    return sum(statistics.median(p[key] for p in passes) for key in passes[0])


def summarize_layers(result: dict, imports: dict) -> dict:
    """Per-layer metrics: medians of the traced passes, counts from the first."""
    layers = result["layers"]
    metrics = {}
    for name in LAYER_METRICS:
        if name.startswith("import."):
            metrics[name] = imports[name]
        elif name == "trace.overhead_frac":
            metrics[name] = (
                median_pass(result["traced_walls"]) / median_pass(result["walls"]) - 1.0
            )
        elif name in COUNT_METRICS:
            metrics[name] = layers[0][name]
        elif name == "dynamics.max_defect":
            metrics[name] = max(layer[name] for layer in layers)
        else:
            metrics[name] = statistics.median(layer[name] for layer in layers)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fps" / "__init__.py").is_file():
        print(f"perfbench: no fps sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    run_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        plan = build_plan(args.workload, args.seed, nproc)
        write_plan(plan, run_dir)
        setup_s = measure_setup(env, run_dir)
        trace = bool(args.trace)
        if args.workload == "library-sweep":
            result = run_sweep(plan, run_dir, env, args.seconds, trace)
        else:
            result = run_cli(plan, run_dir, env, args.seconds, trace)
        imports = import_breakdown(env, run_dir) if trace else {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    wall_s = median_pass(result["walls"])
    attempted, failed = result["attempted"], result["failed"]
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "points_per_s": plan.points / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(),
        "child_threads": THREAD_ENV,
        "passes": len(result["walls"]),
        "traced_passes": len(result["traced_walls"]),
        "points_per_pass": plan.points,
        "step_points_bound_per_pass": plan.step_points,
        "failures": result["failures"],
    }
    print(json.dumps({"context": context}))
    for name, value in end_to_end.items():
        print(f"{name} = {value:.6g} {END_TO_END[name]}")
    print(f"fail_frac = {failed / attempted:.6g} 1")
    if trace:
        layer_values = summarize_layers(result, imports)
        for name, value in layer_values.items():
            print(f"{name} = {value:.6g} {LAYER_METRICS[name][0]}")
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in layer_values.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
