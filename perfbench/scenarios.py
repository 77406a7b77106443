"""Seeded workload plans for the fps benchmark.

A plan is a pure function of (workload, seed): the scenario JSON files the
CLI will read, the ordered operations of one pass, and, for the library
sweep, the parameter sets of its in-process calls.  The same seed always
gives byte-identical files.  Nothing here imports fps; the preset table is
the benchmark's own copy of the parameter sets the CLI shipped with when
the benchmark was defined, so a changed preset shows up as a failed
reference check instead of silently changing the workload.

Cost cap.  Every exact-path operation carries an upper bound on the RK4
work it can ask for, sum(steps x grid points), from the step policy
steps = max(1000, ceil(20 * L * kappa)) with kappa bounded above by
gamma*max(P) + |beta2|*W^2 + |delta_beta1|*W + 2*gamma*P0 + 2*|delta_beta0|
(W the largest |Omega| of the grid).  `build_plan` refuses any plan whose
pass exceeds MAX_STEP_POINTS, and the per-parameter jitter is small (2 %),
so no seed can ask for more than a bounded amount of work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("cli-first-order", "cli-exact", "library-sweep")

#: Upper bound on sum(RK4 steps x grid points) in one pass of any workload.
MAX_STEP_POINTS = 3_000_000

#: Relative jitter applied to the physical parameters of seeded scenarios.
JITTER = 0.02

MIN_STEPS = 1000
K_STEP = 20.0

#: The CLI's built-in parameter sets when the benchmark was defined.
PRESETS: dict[str, dict] = {
    "fig1a": {
        "fiber.gamma_per_W_km": 3.0,
        "fiber.beta2_ps2_per_km": -20.0,
        "fiber.delta_beta0_per_km": 0.0,
        "fiber.delta_beta1_ps_per_km": 0.0,
        "fiber.length_km": 0.1,
        "pump.p0x_W": 0.3,
        "pump.p0y_W": 0.0,
        "pump.theta0x_rad": 0.0,
        "pump.theta0y_rad": 0.0,
        "pump.duration_ps": 100.0,
        "grid.omega_min": -2.0,
        "grid.omega_max": 2.0,
        "grid.n_points": 500,
        "regime": "HB",
        "method": "all",
        "lengths_km": [0.1, 0.2, 0.3],
    },
    "fig2": {
        "fiber.gamma_per_W_km": 3.0,
        "fiber.beta2_ps2_per_km": 15.0,
        "fiber.delta_beta0_per_km": 0.0,
        "fiber.delta_beta1_ps_per_km": 200.0,
        "fiber.length_km": 0.2,
        "pump.p0x_W": 0.15,
        "pump.p0y_W": 0.15,
        "pump.theta0x_rad": 0.0,
        "pump.theta0y_rad": 0.0,
        "pump.duration_ps": 100.0,
        "grid.omega_min": -15.0,
        "grid.omega_max": 15.0,
        "grid.n_points": 600,
        "regime": "HB",
        "method": "first-order",
        "lengths_km": [0.1, 0.2, 0.3],
    },
    "fig3": {
        "fiber.gamma_per_W_km": 36.0,
        "fiber.beta2_ps2_per_km": -139.0,
        "fiber.delta_beta0_per_km": 0.0,
        "fiber.delta_beta1_ps_per_km": 400.0,
        "fiber.length_km": 0.00015,
        "pump.p0x_W": 20.0,
        "pump.p0y_W": 20.0,
        "pump.theta0x_rad": 0.0,
        "pump.theta0y_rad": 0.0,
        "pump.duration_ps": 100.0,
        "grid.omega_min": -10.0,
        "grid.omega_max": 10.0,
        "grid.n_points": 400,
        "regime": "HB",
        "method": "exact-ode",
        "lengths_km": [0.00015, 0.0003, 0.00045],
    },
    "fig4a": {
        "fiber.gamma_per_W_km": 3.0,
        "fiber.beta2_ps2_per_km": 5.0,
        "fiber.delta_beta0_per_km": 2000.0,
        "fiber.delta_beta1_ps_per_km": 0.0,
        "fiber.length_km": 0.15,
        "pump.p0x_W": 1.0,
        "pump.p0y_W": 0.0,
        "pump.theta0x_rad": 0.0,
        "pump.theta0y_rad": 0.0,
        "pump.duration_ps": 100.0,
        "grid.omega_min": -32.0,
        "grid.omega_max": 32.0,
        "grid.n_points": 640,
        "regime": "LB",
        "method": "first-order",
        "lengths_km": [0.05, 0.1, 0.15],
    },
}
PRESETS["fig1b"] = {**PRESETS["fig1a"], "fiber.beta2_ps2_per_km": 20.0}
PRESETS["fig4b"] = {
    **PRESETS["fig4a"],
    "fiber.beta2_ps2_per_km": -5.0,
    "fiber.delta_beta0_per_km": -2000.0,
}
PRESET_NAMES = tuple(sorted(PRESETS))

#: (preset, omega rad/ps) of the classify operations: the fig2 Bell pair,
#: a scalar fig1a pair and an LB pair near the far-detuned peak.
CLASSIFY_CASES = (("fig2", 1.0), ("fig1a", 0.5), ("fig4a", 24.0))

_JITTERED_KEYS = (
    "fiber.gamma_per_W_km",
    "fiber.beta2_ps2_per_km",
    "fiber.delta_beta0_per_km",
    "fiber.delta_beta1_ps_per_km",
    "pump.p0x_W",
    "pump.p0y_W",
)


@dataclass(frozen=True)
class Op:
    """One CLI call of a pass.

    argv holds the fps arguments; `scenario` is the generated file it reads,
    relative to the run directory.  `check` names the output check and `ref`
    the key of its stored reference, if any.  `points` counts spectral
    points delivered; `step_points` bounds sum(RK4 steps x grid points).
    """

    name: str
    argv: tuple[str, ...]
    out: bool
    check: str
    scenario: str | None = None
    ref: str | None = None
    points: int = 1
    step_points: int = 0
    workers: int = 1
    steps: int | None = None


@dataclass
class Plan:
    workload: str
    seed: int
    files: dict[str, str] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    sweep: dict | None = None

    @property
    def points(self) -> int:
        if self.sweep is not None:
            return self.sweep["points"]
        return sum(op.points for op in self.ops)

    @property
    def step_points(self) -> int:
        if self.sweep is not None:
            return self.sweep["step_points"]
        return sum(op.step_points for op in self.ops)


def _round(value: float) -> float:
    return float(f"{value:.6g}")


def scenario_text(flat: dict) -> str:
    return json.dumps(flat, indent=1, sort_keys=True) + "\n"


def jittered(rng: random.Random, preset: str, **overrides) -> dict:
    """Preset with 2 % jitter on its physical constants and random pump phases."""
    flat = dict(PRESETS[preset])
    for key in _JITTERED_KEYS:
        flat[key] = _round(flat[key] * (1.0 + JITTER * (2.0 * rng.random() - 1.0)))
    scale = 1.0 + JITTER * (2.0 * rng.random() - 1.0)
    flat["lengths_km"] = [_round(length * scale) for length in flat["lengths_km"]]
    flat["fiber.length_km"] = flat["lengths_km"][-1]
    flat.update(phases(rng))
    flat.update(overrides)
    return flat


def phases(rng: random.Random) -> dict:
    """Random pump phases; fluxes do not depend on them (a gauge choice)."""
    return {
        "pump.theta0x_rad": _round(math.pi * (2.0 * rng.random() - 1.0)),
        "pump.theta0y_rad": _round(math.pi * (2.0 * rng.random() - 1.0)),
    }


def step_bound(flat: dict, length: float) -> int:
    """Upper bound on the RK4 steps the default step policy takes for one length."""
    w = max(abs(flat["grid.omega_min"]), abs(flat["grid.omega_max"]))
    g = flat["fiber.gamma_per_W_km"]
    px, py = flat["pump.p0x_W"], flat["pump.p0y_W"]
    kappa = (
        g * max(px, py)
        + abs(flat["fiber.beta2_ps2_per_km"]) * w * w
        + abs(flat["fiber.delta_beta1_ps_per_km"]) * w
        + 2.0 * g * (px + py)
        + 2.0 * abs(flat["fiber.delta_beta0_per_km"])
    )
    return max(MIN_STEPS, math.ceil(K_STEP * length * kappa))


def exact_step_points(flat: dict, steps: int | None = None) -> int:
    """Bound on sum(steps x points) of one exact-ode sweep over all lengths."""
    n = flat["grid.n_points"]
    return sum(
        (steps if steps is not None else step_bound(flat, length)) * n
        for length in flat["lengths_km"]
    )


def _spectrum_points(flat: dict, methods: int) -> int:
    return flat["grid.n_points"] * len(flat["lengths_km"]) * methods


def _first_order_plan(plan: Plan, rng: random.Random) -> None:
    """Every preset through `spectrum --method first-order`, plus mi, classify, presets.

    Half of the operations run an unmodified preset and are checked byte
    for byte against references; the other half run a jittered scenario
    and are checked against an in-process recomputation.  The seed decides
    which half is which, so every seed costs the same.
    """
    index = 0

    def variant(preset: str) -> tuple[str, dict, bool]:
        nonlocal index
        unmodified = (index + plan.seed) % 2 == 0
        index += 1
        if unmodified:
            name, flat = f"preset-{preset}.json", dict(PRESETS[preset])
        else:
            name, flat = f"seeded-{preset}-{index}.json", jittered(rng, preset)
        plan.files[name] = scenario_text(flat)
        return name, flat, unmodified

    for preset in PRESET_NAMES:
        name, flat, unmodified = variant(preset)
        plan.ops.append(
            Op(
                name=f"spectrum-{preset}",
                argv=("spectrum", "--scenario", name, "--method", "first-order"),
                out=len(plan.ops) % 2 == 1,
                check="ref" if unmodified else "spectrum",
                scenario=name,
                ref=f"spectrum-first-order:{preset}" if unmodified else None,
                points=_spectrum_points(flat, 1),
            )
        )
    name, flat, unmodified = variant("fig1a")
    plan.ops.append(
        Op(
            name="mi-fig1a",
            argv=("mi", "--scenario", name),
            out=len(plan.ops) % 2 == 1,
            check="ref" if unmodified else "mi",
            scenario=name,
            ref="mi:fig1a" if unmodified else None,
            points=flat["grid.n_points"],
        )
    )
    for preset, omega in CLASSIFY_CASES:
        name, flat, unmodified = variant(preset)
        if not unmodified:
            omega = _round(omega * (1.0 + 0.2 * (2.0 * rng.random() - 1.0)))
        plan.ops.append(
            Op(
                name=f"classify-{preset}",
                argv=("classify", "--scenario", name, "--omega", repr(omega)),
                out=len(plan.ops) % 2 == 1,
                check="ref" if unmodified else "classify",
                scenario=name,
                ref=f"classify:{preset}:{omega!r}" if unmodified else None,
            )
        )
    plan.ops.append(
        Op(
            name="presets",
            argv=("presets",),
            out=len(plan.ops) % 2 == 1,
            check="ref",
            ref="presets",
        )
    )


def exact_cases(rng: random.Random | None) -> list[tuple[str, dict, dict]]:
    """(name, scenario, op options) of the exact-path operations.

    With rng None every scenario is the unjittered reference version; two-axis
    pumps only ever get random phases, so their references stay valid.
    """

    def near(preset: str, **overrides) -> dict:
        if rng is None:
            return {**PRESETS[preset], **overrides}
        return jittered(rng, preset, **overrides)

    def phased(preset: str, **overrides) -> dict:
        flat = {**PRESETS[preset], **overrides}
        if rng is not None:
            flat.update(phases(rng))
        return flat

    return [
        # Large batch, few steps: 400 points x 1000 steps, no closed form.
        ("fig3", phased("fig3", lengths_km=[0.00045], **{"fiber.length_km": 0.00045}), {}),
        # Closed form, thread pool and first order in one call; two exact
        # tasks, so the pool has work to overlap.
        (
            "fig1a-all",
            near("fig1a", method="all", lengths_km=[0.1, 0.3], **{"grid.n_points": 250}),
            {"workers": 2},
        ),
        # Small batch, many steps: per-step overhead dominates.
        (
            "fig4a",
            near(
                "fig4a",
                method="exact-ode",
                lengths_km=[0.05],
                **{"grid.n_points": 32, "fiber.length_km": 0.05},
            ),
            {},
        ),
        (
            "fig2",
            phased(
                "fig2",
                method="exact-ode",
                lengths_km=[0.05],
                **{"grid.n_points": 32, "fiber.length_km": 0.05},
            ),
            {},
        ),
        ("compare-fig1b", near("fig1b", **{"grid.n_points": 64}), {"command": "compare"}),
        # The explicit-step RK4 oracle path.
        (
            "fig1a-steps",
            near(
                "fig1a",
                method="exact-ode",
                lengths_km=[0.3],
                **{"grid.n_points": 64, "fiber.length_km": 0.3},
            ),
            {"steps": 2000},
        ),
    ]


def _exact_plan(plan: Plan, rng: random.Random, nproc: int) -> None:
    for name, flat, options in exact_cases(rng):
        file = f"exact-{name}.json"
        plan.files[file] = scenario_text(flat)
        command = options.get("command", "spectrum")
        argv = [command, "--scenario", file]
        steps = options.get("steps")
        if steps is not None:
            argv += ["--steps", str(steps)]
        workers = min(options.get("workers", 1), nproc)
        if workers > 1:
            argv += ["--workers", str(workers)]
        two_axis = flat["pump.p0x_W"] > 0 and flat["pump.p0y_W"] > 0
        if command == "compare":
            points = 2 * _spectrum_points(flat, 1)
        elif flat["method"] == "all":
            points = _spectrum_points(flat, 2 if two_axis else 3)
        else:
            points = _spectrum_points(flat, 1)
        plan.ops.append(
            Op(
                name=name,
                argv=tuple(argv),
                out=len(plan.ops) % 2 == 1,
                check=command,
                scenario=file,
                ref=f"exact:{name}" if two_axis else None,
                points=points,
                step_points=exact_step_points(flat, steps),
                workers=workers,
                steps=steps,
            )
        )


def _sweep_plan(plan: Plan, rng: random.Random) -> None:
    """Parameter sets and sizes of the in-process library calls of one pass."""
    hb = jittered(rng, "fig2")
    lb = jittered(rng, "fig4a")
    scalar = jittered(rng, "fig1a")
    n_grid, n_detunings, n_batch = 20_000, 1000, 32
    sweep = {
        "hb": hb,
        "lb": lb,
        "scalar": scalar,
        "n_grid": n_grid,
        "n_batch": n_batch,
        "detunings": {
            "hb": [_round(0.05 + 14.9 * rng.random()) for _ in range(n_detunings)],
            "scalar": [_round(0.02 + 1.9 * rng.random()) for _ in range(n_detunings)],
            "lb": [_round(0.1 + 31.8 * rng.random()) for _ in range(n_detunings)],
        },
    }
    batch = dict(scalar, **{"grid.n_points": n_batch, "lengths_km": [scalar["fiber.length_km"]]})
    sweep["step_points"] = exact_step_points(batch)
    # flux_hb, flux_lb, mi_gain_curve, exact_scalar_flux on n_grid points,
    # one point per (filtered_state, classify) pair, 1 for P_T, the batch.
    sweep["points"] = 4 * n_grid + 3 * n_detunings + 1 + n_batch
    plan.sweep = sweep
    plan.files["sweep.json"] = json.dumps(sweep, indent=1, sort_keys=True) + "\n"


def build_plan(workload: str, seed: int, nproc: int = 2) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    plan = Plan(workload=workload, seed=seed)
    if workload == "cli-first-order":
        _first_order_plan(plan, rng)
    elif workload == "cli-exact":
        _exact_plan(plan, rng, nproc)
    else:
        _sweep_plan(plan, rng)
    if plan.step_points > MAX_STEP_POINTS:
        raise ValueError(
            f"plan asks for {plan.step_points} RK4 step-points, above the cap {MAX_STEP_POINTS}"
        )
    return plan


def write_plan(plan: Plan, directory) -> None:
    for name, text in plan.files.items():
        with open(directory / name, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
