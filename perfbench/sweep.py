"""The library-sweep workload: seeded fps library calls in one process.

Usage: python perfbench/sweep.py SWEEP.json SECONDS TRACE

After `import fps`, repeats one pass of library calls (no process start-up,
no formatting) while another pass fits in SECONDS, checks every result outside the
timed region, and prints one JSON line with the wall times of each pass's
call groups, the
operation counts and, with TRACE 1, the per-layer metrics of the traced
passes.  With TRACE 1 untraced and traced passes alternate, so their ratio
gives the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time

import numpy as np

import fps
from checks import EXACT_RTOL, objects
from tracer import Tracer, layer_metrics

LABELS = {"scalar-only-x", "scalar-only-y", "product-xy", "product-yx", "bell-like", "partial"}


def run_pass(sweep: dict, setups: dict) -> tuple[dict, dict, list[str]]:
    """({call group: wall seconds}, results, errors) of one pass; only calls are timed."""
    results: dict = {}
    errors: list[str] = []
    walls: dict[str, float] = {}

    def call(key, func, *args):
        try:
            results[key] = func(*args)
        except Exception as exc:  # an operation failure, reported and counted
            errors.append(f"{key}: {type(exc).__name__}: {exc}")

    def timed(key, func, *args):
        start = time.perf_counter()
        call(key, func, *args)
        walls[key] = time.perf_counter() - start

    hb, lb, scalar = setups["hb"], setups["lb"], setups["scalar"]
    timed("flux_hb", fps.flux_hb, hb["fiber"], hb["pump"], hb["omegas"])
    timed("flux_lb", fps.flux_lb, lb["fiber"], lb["pump"], lb["omegas"])
    for family, regime in (("hb", "HB"), ("scalar", "HB"), ("lb", "LB")):
        setup = setups[family]
        start = time.perf_counter()
        for i, omega in enumerate(sweep["detunings"][family]):
            call(
                (family, i),
                lambda omega=omega: fps.classify(
                    fps.filtered_state(setup["fiber"], setup["pump"], regime, omega, 100.0)
                ),
            )
        walls[f"classify-{family}"] = time.perf_counter() - start
    timed("p_t", fps.total_scatter_probability, scalar["fiber"], scalar["pump"], 100.0, "numeric")
    timed("mi", fps.mi_gain_curve, scalar["fiber"], scalar["pump"].p0x, scalar["grid"])
    timed("closed", fps.exact_scalar_flux, scalar["fiber"], scalar["pump"].p0x, scalar["omegas"])
    timed(
        "batch",
        lambda: fps.flux_from_matrices(
            fps.integrate_transfer_grid(scalar["fiber"], scalar["pump"], "HB", scalar["batch"])[0]
        ),
    )
    return walls, results, errors


def _flux_bound(fiber, px: float, py: float) -> tuple[float, float]:
    """Largest first-order flux on each axis: scalar plus one vector channel."""
    vector = (2.0 / 3.0) * fiber.gamma * math.sqrt(px * py) * fiber.length
    bound_x = ((fiber.gamma * px * fiber.length) ** 2 + vector**2) / (2.0 * math.pi)
    bound_y = ((fiber.gamma * py * fiber.length) ** 2 + vector**2) / (2.0 * math.pi)
    return bound_x, bound_y


def _bounded(values, bound: float) -> bool:
    values = np.asarray(values)
    finite = np.all(np.isfinite(values)) and np.all(values >= 0)
    return bool(finite and values.max() <= bound * (1 + 1e-12))


def check_pass(results: dict, setups: dict, sweep: dict) -> list[str]:
    """Reasons why results are wrong, one per failed operation."""
    bad: list[str] = []
    hb, lb, scalar = setups["hb"], setups["lb"], setups["scalar"]
    if "flux_hb" in results:
        bx, by = _flux_bound(hb["fiber"], hb["pump"].p0x, hb["pump"].p0y)
        f_x, f_y = results["flux_hb"]
        if not (_bounded(f_x, bx) and _bounded(f_y, by) and f_x.shape == hb["omegas"].shape):
            bad.append("flux_hb: value non-finite, negative or above the channel bound")
    if "flux_lb" in results:
        g_pl = lb["fiber"].gamma * lb["pump"].p0x * lb["fiber"].length
        f_x, f_y = results["flux_lb"]
        if not (
            _bounded(f_x, g_pl**2 / (2 * math.pi))
            and _bounded(f_y, (g_pl / 3) ** 2 / (2 * math.pi))
            and f_y.shape == lb["omegas"].shape
        ):
            bad.append("flux_lb: value non-finite, negative or above the channel bound")
    for family in ("hb", "scalar", "lb"):
        for i in range(len(sweep["detunings"][family])):
            report = results.get((family, i))
            if report is not None and not (
                report.classification in LABELS and 0.0 <= report.concurrence <= 1.0 + 1e-12
            ):
                bad.append(f"classify {family}[{i}]: {report}")
    fiber, p0 = scalar["fiber"], scalar["pump"].p0x
    if "p_t" in results:
        analytic = fps.total_scatter_probability(fiber, scalar["pump"], 100.0, "analytic")
        if not abs(results["p_t"] - analytic) <= 0.1 * analytic:
            bad.append(f"P_T numeric {results['p_t']} is not within 10 % of {analytic}")
    if "mi" in results:
        gain = results["mi"].gain_vals
        gp = fiber.gamma * p0
        if not (_bounded(gain, gp) and gain.max() >= 0.999 * gp):
            bad.append("mi gain curve misses its peak gamma*P or exceeds it")
    if "closed" in results and not _bounded(results["closed"], math.inf):
        bad.append("exact_scalar_flux: value non-finite or negative")
    if "batch" in results:
        f_x, f_y = results["batch"]
        closed = fps.exact_scalar_flux(fiber, p0, scalar["batch"])
        deviation = max(np.abs(f_x - closed).max(), np.abs(f_y).max()) / closed.max()
        if not deviation <= EXACT_RTOL:
            bad.append(f"integrate_transfer_grid: deviation {deviation:.3e} of peak")
    return bad


def digest(results: dict) -> str:
    """Hash of every numeric result, to check that passes repeat exactly."""
    h = hashlib.sha256()
    for key in sorted(results, key=repr):
        value = results[key]
        if isinstance(value, tuple):
            for part in value:
                h.update(np.asarray(part).tobytes())
        elif hasattr(value, "gain_vals"):
            h.update(value.gain_vals.tobytes())
        elif hasattr(value, "concurrence"):
            h.update(repr(value).encode())
        else:
            h.update(np.asarray(value).tobytes())
    return h.hexdigest()


def setups_of(sweep: dict) -> dict:
    n = sweep["n_grid"]
    setups = {}
    for family in ("hb", "lb", "scalar"):
        fiber, pump, grid = objects(sweep[family])
        w = max(abs(grid.omega_min), abs(grid.omega_max))
        setups[family] = {"fiber": fiber, "pump": pump, "omegas": np.linspace(-w, w, n)}
    scalar = setups["scalar"]
    scalar["grid"] = fps.FrequencyGrid(-2.5, 2.5, n)
    scalar["omegas"] = scalar["grid"].omegas
    scalar["batch"] = np.linspace(-2.0, 2.0, sweep["n_batch"])
    return setups


def main() -> int:
    path, seconds, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    with open(path, encoding="utf-8") as handle:
        sweep = json.load(handle)
    setups = setups_of(sweep)
    ops_per_pass = 7 + sum(len(d) for d in sweep["detunings"].values())
    walls, traced_walls, layers, failures = [], [], [], []
    attempted = failed = 0
    first_digest = None
    start = time.perf_counter()
    last = 0.0
    while (
        time.perf_counter() - start + last <= seconds
        or len(walls) < (1 if trace else 2)
        or (trace and not traced_walls)
    ):
        tracer = Tracer() if trace and len(walls) > len(traced_walls) else None
        if tracer is not None:
            tracer.install()
        try:
            wall, results, errors = run_pass(sweep, setups)
        finally:
            if tracer is not None:
                tracer.uninstall()
        bad = errors + check_pass(results, setups, sweep)
        current = digest(results)
        if first_digest is None:
            first_digest = current
        elif current != first_digest:
            bad.append("results differ from the first pass")
        attempted += ops_per_pass
        failed += min(len(bad), ops_per_pass)
        failures = (failures + bad)[:5]
        last = sum(wall.values())
        if tracer is None:
            walls.append(wall)
        else:
            traced_walls.append(wall)
            layers.append(layer_metrics([tracer.record()]))
    print(
        json.dumps(
            {
                "walls": walls,
                "traced_walls": traced_walls,
                "layers": layers,
                "attempted": attempted,
                "failed": failed,
                "failures": failures,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
