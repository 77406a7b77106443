"""Deterministic command-line front end.

Subcommands: spectrum (flux-density sweeps as CSV), compare (first-order
vs exact deviation report as JSON), classify (filtered-pair entanglement
report as JSON), mi (gain curve as CSV), presets (list built-in parameter
sets).  Output formatting is fixed ('.' decimal, '\\n' line endings, ordered
rows, sorted JSON keys), so repeated runs are byte-identical.  CSV values,
header echoes and the computed compare values have 9 significant digits;
the classify JSON report prints floats at full repr precision (up to 17
significant digits), so a last-bit change shows there first.

Each subcommand imports only the modules it runs, so `presets`, argument
errors, `mi` and `classify` never load numpy: `mi` sweeps
`FrequencyGrid.omega_list` through `lambda_param` in Python floats, and
`classify` evaluates one detuning.  `run_spectrum` is the one place that
picks between Python floats and numpy, from its grid: a first-order-only
spectrum of at most MAX_FLOAT_PATH_POINTS points runs on
`FrequencyGrid.omega_list` without numpy, every other on the array.  The
runners format lists of Python floats either way.

Exit codes: 0 success, 2 input validation (the cost caps included), 3
numerical failure (symplectic defect above tolerance or a non-finite
result, which the library raises as `NumericalFailure`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .errors import FpsError, NumericalFailure, count, real

if TYPE_CHECKING:
    from .fiber import FiberParams, FrequencyGrid, PumpConfig

METHOD_ORDER = ("first-order", "exact-ode", "closed-form")

#: Cap on the spectral points of one call: grid points x lengths x methods
#: for spectrum (two methods for compare), the grid once for mi and
#: classify.  A one-length exact-ode call needs about 2.9 KB and 15-19 us
#: per point (730 MB peak RSS and 3.6-4.7 s at the cap for fig2's physics,
#: on 2 vCPUs), so a call at the cap stays below ~1 GB and a few seconds.
#: The matrix exponential squares at most 53 times per point and rejects a
#: generator that asks for more before any work (`dynamics._expm`).  The
#: worst accepted case, 53 squarings at every point, took 9.9-14 s at the
#: cap (731 MB) before its exit 3.  Exit 2 above it.
MAX_SPECTRAL_POINTS = 250_000

#: Cap on --steps x grid points x lengths of one RK4 run.  The oracle
#: powers its one-step matrix in about 2 log2(--steps) batched 4x4 products
#: per point (about 19 us per point at 2000 steps), so its time, like the
#: matrix exponential's, is bounded through MAX_SPECTRAL_POINTS; this cap
#: bounds the step count asked of it.  Exit 2 above it.
MAX_STEP_POINTS = 20_000_000

#: Largest grid points x lengths of a spectrum that runs first-order only
#: and is therefore computed point by point in Python floats, one
#: `flux_hb` or `flux_lb` call per Python-float omega, without importing
#: numpy.  Both paths print the same bytes.  Measured on the
#: fig1a, fig2 and fig4a physics with Python 3.11 and numpy 2.4 on 2 vCPUs:
#: the float path takes 4-10 us per point, the array path 0.2-0.5 us, and
#: importing numpy about 170 ms (229 ms for a `python -c` that imports
#: numpy against 58 ms for `python -c pass`), so the two break even between
#: about 17,000 and 40,000 points; 10,000 keeps a margin.
MAX_FLOAT_PATH_POINTS = 10_000


@dataclass(frozen=True)
class Scenario:
    fiber: FiberParams
    pump: PumpConfig
    grid: FrequencyGrid
    regime: str
    lengths: tuple[float, ...]
    method: str


#: Marks a scenario field without a default.
_REQUIRED = object()


#: Scenario schema: key -> (default or _REQUIRED, container field).  The
#: container is the key's prefix (fiber, pump or grid) and converts the raw
#: JSON value by its own rule (`errors.real`, `errors.count`), so a boolean,
#: a string, NaN, infinity or a non-integral count is its ValueError naming
#: the field.  Keys without a field configure the run.
_SCHEMA = {
    "fiber.gamma_per_W_km": (_REQUIRED, "gamma"),
    "fiber.beta2_ps2_per_km": (_REQUIRED, "beta2"),
    "fiber.delta_beta0_per_km": (0.0, "delta_beta0"),
    "fiber.delta_beta1_ps_per_km": (0.0, "delta_beta1"),
    "fiber.length_km": (_REQUIRED, "length"),
    "pump.p0x_W": (0.0, "p0x"),
    "pump.p0y_W": (0.0, "p0y"),
    "pump.theta0x_rad": (0.0, "theta0x"),
    "pump.theta0y_rad": (0.0, "theta0y"),
    "pump.duration_ps": (None, "duration"),
    "grid.omega_min": (_REQUIRED, "omega_min"),
    "grid.omega_max": (_REQUIRED, "omega_max"),
    "grid.n_points": (_REQUIRED, "n_points"),
    "regime": (_REQUIRED, None),
    "method": ("first-order", None),
    "lengths_km": (None, None),
}

#: Built-in parameter sets mirroring the reference spectra: each lists
#: only the fields its figure sets, and `_preset` fills in _SCHEMA's
#: defaults.  Symmetric grids with even point counts keep Omega = 0 off
#: the grid.
PRESETS: dict[str, dict] = {
    "fig1a": {
        "fiber.gamma_per_W_km": 3.0,
        "fiber.beta2_ps2_per_km": -20.0,
        "fiber.length_km": 0.1,
        "pump.p0x_W": 0.3,
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
        "fiber.delta_beta1_ps_per_km": 200.0,
        "fiber.length_km": 0.2,
        "pump.p0x_W": 0.15,
        "pump.p0y_W": 0.15,
        "pump.duration_ps": 100.0,
        "grid.omega_min": -15.0,
        "grid.omega_max": 15.0,
        "grid.n_points": 600,
        "regime": "HB",
        "lengths_km": [0.1, 0.2, 0.3],
    },
    "fig3": {
        "fiber.gamma_per_W_km": 36.0,
        "fiber.beta2_ps2_per_km": -139.0,
        "fiber.delta_beta1_ps_per_km": 400.0,
        "fiber.length_km": 0.00015,
        "pump.p0x_W": 20.0,
        "pump.p0y_W": 20.0,
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
        "fiber.length_km": 0.15,
        "pump.p0x_W": 1.0,
        "pump.duration_ps": 100.0,
        "grid.omega_min": -32.0,
        "grid.omega_max": 32.0,
        "grid.n_points": 640,
        "regime": "LB",
        "lengths_km": [0.05, 0.1, 0.15],
    },
}
PRESETS["fig1b"] = {**PRESETS["fig1a"], "fiber.beta2_ps2_per_km": 20.0}
PRESETS["fig4b"] = {
    **PRESETS["fig4a"],
    "fiber.beta2_ps2_per_km": -5.0,
    "fiber.delta_beta0_per_km": -2000.0,
}


def _flatten(obj: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in obj.items():
        full = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, full + "."))
        else:
            flat[full] = value
    return flat


def load_scenario(flat: dict) -> tuple[Scenario, dict]:
    """Validate a flat key/value mapping into a Scenario.

    Returns the scenario together with the resolved flat mapping (defaults
    filled in, fields as the containers store them, axis convention
    normalized) used for provenance headers.  Every violation, a field the
    containers reject included, raises ValueError.
    """
    from .fiber import FiberParams, FrequencyGrid, PumpConfig, normalize_convention

    unknown = sorted(set(flat) - set(_SCHEMA))
    if unknown:
        raise ValueError(f"unknown scenario field(s): {', '.join(unknown)}")
    resolved = {}
    fields = {"fiber": {}, "pump": {}, "grid": {}}
    for key, (default, field) in _SCHEMA.items():
        if flat.get(key) is not None:
            resolved[key] = flat[key]
        elif default is _REQUIRED:
            raise ValueError(f"missing required scenario field: {key}")
        else:
            resolved[key] = default
        if field is not None:
            fields[key.partition(".")[0]][field] = resolved[key]
    if resolved["regime"] not in ("HB", "LB"):
        raise ValueError(f"field regime: must be HB or LB, got {resolved['regime']!r}")
    if resolved["method"] not in METHOD_ORDER + ("all",):
        raise ValueError(
            f"field method: must be one of {', '.join(METHOD_ORDER + ('all',))}"
        )
    fiber, pump = normalize_convention(
        FiberParams(**fields["fiber"]), PumpConfig(**fields["pump"])
    )
    grid = FrequencyGrid(**fields["grid"])
    lengths = resolved["lengths_km"]
    if lengths is None:
        lengths = [fiber.length]
    if isinstance(lengths, (list, tuple)):
        lengths = resolved["lengths_km"] = [real(length, "lengths_km") for length in lengths]
    if not isinstance(lengths, list) or not lengths or min(lengths) <= 0:
        raise ValueError("field lengths_km: must be a nonempty list of positive lengths")
    if fiber.gamma <= 0:
        raise ValueError("field fiber.gamma_per_W_km: must be > 0")
    if fiber.length <= 0:
        raise ValueError("field fiber.length_km: must be > 0")
    if pump.total <= 0:
        raise ValueError("field pump.p0x_W/p0y_W: total pump power must be > 0")
    # Echo the normalized values: a negative delta_beta1 swaps the axes.
    containers = {"fiber": fiber, "pump": pump, "grid": grid}
    for key, (_, field) in _SCHEMA.items():
        if field is not None:
            resolved[key] = getattr(containers[key.partition(".")[0]], field)
    if resolved["regime"] == "LB" and pump.p0x != 0 and pump.p0y != 0:
        raise ValueError("regime LB requires the pump on a single axis")
    scenario = Scenario(
        fiber=fiber,
        pump=pump,
        grid=grid,
        regime=resolved["regime"],
        lengths=tuple(lengths),
        method=resolved["method"],
    )
    return scenario, resolved


def _fmt(value) -> str:
    """Fixed 9-significant-digit decimal rendering."""
    if value is None:
        return "none"
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(entry) for entry in value)
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".9g")


def _preset(name: str) -> dict:
    """The built-in parameter set `name` with _SCHEMA's defaults filled in.

    The fill is the one `load_scenario` applies, so the result resolves to
    itself.  An unknown name raises ValueError.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    defaults = {key: default for key, (default, _) in _SCHEMA.items() if default is not _REQUIRED}
    return {**defaults, **PRESETS[name]}


def _resolve_scenario(args) -> tuple[Scenario, dict, list[str]]:
    if args.preset is not None and args.scenario is not None:
        raise ValueError("give either --preset or --scenario, not both")
    if args.preset is not None:
        flat = _preset(args.preset)
        origin = [f"# preset = {args.preset}"]
    elif args.scenario is not None:
        try:
            with open(args.scenario, encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ValueError(f"cannot read scenario file: {exc}") from None
        except (ValueError, RecursionError) as exc:
            # ValueError: JSONDecodeError, or an integer literal beyond
            # Python's digit limit for int conversion.
            raise ValueError(f"scenario file is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError("scenario file must contain a JSON object")
        flat = _flatten(raw)
        origin = [f"# scenario = {args.scenario}"]
    else:
        raise ValueError("a scenario is required: give --preset or --scenario")
    method = getattr(args, "method", None)
    if method is not None:
        flat["method"] = method
    scenario, resolved = load_scenario(flat)
    return scenario, resolved, origin


def _header_lines(command: str, origin: list[str], resolved: dict) -> list[str]:
    lines = [f"# fps {command}"]
    lines.extend(origin)
    for key in _SCHEMA:
        lines.append(f"# {key} = {_fmt(resolved[key])}")
    lines.append("# units = omega rad/ps, flux ps/rad, gain 1/km, length km")
    return lines


def _methods(scenario: Scenario, command: str) -> tuple[str, ...]:
    """Spectrum methods a command runs: compare runs two, mi and classify none.

    spectrum runs the scenario's method; "all" skips closed-form for a two-axis HB pump.
    """
    if command == "compare":
        return ("first-order", "exact-ode")
    if command != "spectrum":
        return ()
    if scenario.method != "all":
        return (scenario.method,)
    if scenario.regime == "HB" and scenario.pump.p0x != 0 and scenario.pump.p0y != 0:
        return ("first-order", "exact-ode")
    return METHOD_ORDER


def _check_cost(scenario: Scenario, command: str, steps: int | None) -> None:
    """Raise ValueError above MAX_SPECTRAL_POINTS or MAX_STEP_POINTS.

    Runs before any grid is built, so an oversized request allocates nothing.
    --steps below 1 (`errors.count`'s ValueError) and --steps where no
    exact-ode runs, which nothing would read, are rejected too.
    """
    n_points, n_lengths = scenario.grid.n_points, len(scenario.lengths)
    methods = _methods(scenario, command)
    # mi reads the grid once, classify not at all
    points = n_points * n_lengths * len(methods) if methods else n_points
    if points > MAX_SPECTRAL_POINTS:
        raise ValueError(
            f"{points} spectral points (grid x lengths x methods) exceed the cap "
            f"{MAX_SPECTRAL_POINTS}"
        )
    if steps is None:
        return
    count(steps, "--steps", 1)
    if "exact-ode" not in methods:
        raise ValueError(
            f"--steps applies to exact-ode only; this {command} runs {', '.join(methods)}"
        )
    step_points = steps * n_points * n_lengths
    if step_points > MAX_STEP_POINTS:
        raise ValueError(
            f"{step_points} RK4 step-points (--steps x grid x lengths) exceed the cap "
            f"{MAX_STEP_POINTS}"
        )


def _spectrum_task(
    scenario: Scenario, method: str, length: float, steps: int | None, omegas
) -> tuple[list[str], list, list]:
    """Compute one (method, L) slice; returns (extra header lines, f_x, f_y).

    omegas is the grid as an array, or for first-order a list of Python floats,
    one `flux_hb`/`flux_lb` call per value; f_x and f_y are lists of Python
    floats either way.
    """
    fiber = replace(scenario.fiber, length=length)
    extra: list[str] = []
    if method == "first-order":
        from .hb import flux_hb, flux_lb

        flux = flux_lb if scenario.regime == "LB" else flux_hb
        if isinstance(omegas, list):
            f_x, f_y = map(list, zip(*(flux(fiber, scenario.pump, omega) for omega in omegas)))
        else:
            f_x, f_y = flux(fiber, scenario.pump, omegas)
    elif method == "exact-ode":
        from .dynamics import flux_from_matrices, integrate_transfer_grid

        matrices, used_steps = integrate_transfer_grid(
            fiber, scenario.pump, scenario.regime, omegas, steps=steps
        )
        f_x, f_y = flux_from_matrices(matrices)
        extra.append(f"# steps.L={_fmt(length)} = {used_steps or 'expm'}")
    else:
        from .dynamics import _closed_form_flux

        f_x, f_y = _closed_form_flux(fiber, scenario.pump, scenario.regime, omegas)
    if not isinstance(omegas, list):
        f_x, f_y = f_x.tolist(), f_y.tolist()
    return extra, f_x, f_y


def run_spectrum(scenario: Scenario, resolved: dict, origin: list[str], args) -> str:
    methods = _methods(scenario, "spectrum")
    points = scenario.grid.n_points * len(scenario.lengths)
    if methods == ("first-order",) and points <= MAX_FLOAT_PATH_POINTS:
        omegas = omega_list = scenario.grid.omega_list
    else:
        omegas = scenario.grid.omegas
        omega_list = omegas.tolist()
    tasks = [(method, length) for method in methods for length in scenario.lengths]
    results = [
        _spectrum_task(scenario, method, length, args.steps, omegas) for method, length in tasks
    ]
    lines = _header_lines("spectrum", origin, resolved)
    for extra, _, _ in results:
        lines.extend(extra)
    lines.append("omega_rad_per_ps,f_x,f_y,method,L_km")
    # Python floats through one f-string per row: the same float.__format__
    # as _fmt, without a call per value.
    for (method, length), (_, f_x, f_y) in zip(tasks, results):
        tail = f"{method},{_fmt(length)}"
        lines.extend(
            f"{omega:.9g},{fx_val:.9g},{fy_val:.9g},{tail}"
            for omega, fx_val, fy_val in zip(omega_list, f_x, f_y)
        )
    return "\n".join(lines) + "\n"


def run_compare(scenario: Scenario, resolved: dict, origin: list[str], args) -> str:
    omegas = scenario.grid.omegas
    comparisons = []
    deviations = []
    for length in scenario.lengths:
        _, fo_x, fo_y = _spectrum_task(scenario, "first-order", length, None, omegas)
        _, ex_x, ex_y = _spectrum_task(scenario, "exact-ode", length, args.steps, omegas)
        peak = max(ex_x + ex_y)
        if peak == 0:
            raise ValueError("exact spectrum is identically zero; nothing to compare")
        deviation = [abs(fo - ex) / peak for fo, ex in zip(fo_x + fo_y, ex_x + ex_y)]
        max_dev, mean_dev = max(deviation), math.fsum(deviation) / len(deviation)
        deviations.append(max_dev)
        # 9 significant digits, as in the CSVs: a last-bit change in a flux
        # stays out of the bytes.
        comparisons.append(
            {
                "L_km": length,
                "peak_flux": float(_fmt(peak)),
                "max_rel_dev": float(_fmt(max_dev)),
                "mean_rel_dev": float(_fmt(mean_dev)),
            }
        )
    report = {
        "command": "compare",
        "scenario": resolved,
        "comparisons": comparisons,
        "deviation_increases_with_length": all(
            a < b for a, b in zip(deviations, deviations[1:])
        ),
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def run_classify(scenario: Scenario, resolved: dict, origin: list[str], args) -> str:
    duration = args.duration
    if duration is None:
        duration = scenario.pump.duration
    if duration is None:
        raise ValueError("classify needs --duration or pump.duration_ps")
    from .entangle import BASIS, bell_phase, classify, filtered_state

    state = filtered_state(scenario.fiber, scenario.pump, scenario.regime, args.omega, duration)
    report = classify(state, tol=args.tol)
    payload = {
        "command": "classify",
        "scenario": resolved,
        "omega_rad_per_ps": args.omega,
        "duration_ps": duration,
        "classification": report.classification,
        "concurrence": report.concurrence,
        "relative_phase_rad": None
        if math.isnan(report.relative_phase)
        else report.relative_phase,
        "bell_phase_rad": bell_phase(scenario.pump),
        "generation_probability": state.generation_probability,
        "coeff_abs2": {
            label: float(abs(coeff) ** 2) for label, coeff in zip(BASIS, state.coeffs)
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run_mi(scenario: Scenario, resolved: dict, origin: list[str], args) -> str:
    from .fiber import bandwidth_ratio, lambda_param

    power = scenario.pump.total
    omegas = scenario.grid.omega_list
    lambda_vals = [lambda_param(scenario.fiber, power, omega) for omega in omegas]
    ratio = bandwidth_ratio(scenario.fiber, power, scenario.fiber.length)
    lines = _header_lines("mi", origin, resolved)
    lines.append(f"# pump_total_W = {_fmt(power)}")
    lines.append(f"# bandwidth_ratio = {_fmt(ratio)}")
    lines.append("omega_rad_per_ps,gain_per_km,lambda_re_per_km,lambda_im_per_km")
    # The gain, Re(lambda) clipped at zero, is Re(lambda) itself: the
    # principal root's real part is never negative (lambda_param raises for NaN).
    for omega, lam in zip(omegas, lambda_vals):
        gain = f"{lam.real:.9g}"
        lines.append(f"{omega:.9g},{gain},{gain},{lam.imag:.9g}")
    return "\n".join(lines) + "\n"


def run_presets(args) -> str:
    names = sorted(PRESETS) if args.name is None else [args.name]
    selected = {name: _preset(name) for name in names}
    return json.dumps(selected, indent=2, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fps",
        description="Photon-pair spectra and modulation-instability gain "
        "for four-photon scattering in birefringent fibers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p: argparse.ArgumentParser, with_method: bool = True, with_steps: bool = True
    ) -> None:
        p.add_argument("--scenario", help="JSON scenario file")
        p.add_argument("--preset", help="built-in parameter set name")
        p.add_argument("--out", help="output file (default: stdout)")
        if with_method:
            p.add_argument(
                "--method",
                choices=METHOD_ORDER + ("all",),
                help="override the scenario method",
            )
        if with_steps:
            p.add_argument(
                "--steps",
                type=int,
                help="run exact-ode with the fixed-step RK4 oracle at this step count "
                "instead of the matrix exponential",
            )

    p_spectrum = sub.add_parser("spectrum", help="flux-density sweep as CSV")
    add_common(p_spectrum)
    p_spectrum.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility; tasks run in turn and the output "
        "does not depend on it",
    )

    p_compare = sub.add_parser("compare", help="first-order vs exact deviations as JSON")
    add_common(p_compare, with_method=False)

    p_classify = sub.add_parser("classify", help="filtered-pair entanglement report")
    add_common(p_classify, with_method=False, with_steps=False)
    p_classify.add_argument("--omega", type=float, required=True, help="detuning rad/ps")
    p_classify.add_argument("--duration", type=float, help="pump duration ps")
    p_classify.add_argument(
        "--tol", type=float, default=1e-3, help="significance threshold on |c|^2"
    )

    p_mi = sub.add_parser("mi", help="modulation-instability gain curve as CSV")
    add_common(p_mi, with_method=False, with_steps=False)

    p_presets = sub.add_parser("presets", help="list built-in parameter sets")
    p_presets.add_argument("--name", help="show a single preset")
    p_presets.add_argument("--out", help="output file (default: stdout)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "presets":
            text = run_presets(args)
        else:
            scenario, resolved, origin = _resolve_scenario(args)
            _check_cost(scenario, args.command, getattr(args, "steps", None))
            runner = {
                "spectrum": run_spectrum,
                "compare": run_compare,
                "classify": run_classify,
                "mi": run_mi,
            }[args.command]
            # Overflow and NaN are reported by the library's finiteness and
            # defect checks, as one exit-3 line rather than numpy warnings.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                text = runner(scenario, resolved, origin, args)
    except NumericalFailure as exc:
        print(f"fps: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FpsError) as exc:  # scenario and library input errors
        print(f"fps: error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"fps: error: cannot write output file: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
