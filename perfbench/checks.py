"""Output checks of the benchmark's CLI operations.

Each check returns None when the output is correct and a one-line reason
otherwise; any reason counts the operation as failed.

- Unmodified presets (first-order spectrum, mi, classify, presets) must be
  byte-identical to the references in refs.json, captured with
  capture_refs.py when the benchmark was defined.
- Seeded scenarios must have every value finite, the expected rows, and
  first-order, closed-form and mi values equal to an in-process library
  recomputation at the printed precision (9 significant digits, one unit
  of the last digit allowed for rounding).
- Exact-ode values must agree with the closed forms exact_scalar_flux /
  exact_lb_orthogonal_flux where one exists (single-axis pump) and with
  the stored references otherwise, to EXACT_RTOL of the spectrum's peak.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace

import numpy as np

from fps import (
    FiberParams,
    FrequencyGrid,
    PumpConfig,
    bandwidth_ratio,
    classify,
    exact_lb_orthogonal_flux,
    exact_scalar_flux,
    filtered_state,
    flux_hb,
    flux_lb,
    mi_gain_curve,
)

#: Exact-ode values must lie within this share of the spectrum's peak.
EXACT_RTOL = 1e-6

#: Printed 9-significant-digit values may differ from the recomputation by
#: rounding plus one unit of the last digit.
PRINT_RTOL = 1.5e-8

METHOD_ORDER = ("first-order", "exact-ode", "closed-form")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def objects(flat: dict):
    """(fiber, pump, grid) of a flat scenario mapping."""
    fiber = FiberParams(
        gamma=flat["fiber.gamma_per_W_km"],
        beta2=flat["fiber.beta2_ps2_per_km"],
        length=flat["fiber.length_km"],
        delta_beta0=flat["fiber.delta_beta0_per_km"],
        delta_beta1=flat["fiber.delta_beta1_ps_per_km"],
    )
    pump = PumpConfig(
        p0x=flat["pump.p0x_W"],
        p0y=flat["pump.p0y_W"],
        theta0x=flat["pump.theta0x_rad"],
        theta0y=flat["pump.theta0y_rad"],
        duration=flat["pump.duration_ps"],
    )
    grid = FrequencyGrid(flat["grid.omega_min"], flat["grid.omega_max"], flat["grid.n_points"])
    return fiber, pump, grid


def parse_csv(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    """(comment lines, column names, rows) of a CLI CSV output."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    lines.pop()
    comments = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    if not body:
        raise ValueError("no column header")
    return comments, body[0], body[1:]


def _numbers(fields: list[str]) -> np.ndarray:
    values = np.array([float(field) for field in fields])
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite value written")
    return values


def _printed_mismatch(printed: np.ndarray, expected, label: str) -> str | None:
    expected = np.broadcast_to(np.asarray(expected, dtype=float), printed.shape)
    bad = np.abs(printed - expected) > PRINT_RTOL * np.abs(expected)
    if np.any(bad):
        i = int(np.argmax(bad))
        return f"{label}: printed {printed[i]!r} != recomputed {expected[i]!r}"
    return None


def _peak_mismatch(values: np.ndarray, reference: np.ndarray, peak: float, label: str):
    deviation = float(np.max(np.abs(values - reference))) / peak if peak > 0 else math.inf
    if not deviation <= EXACT_RTOL:
        return f"{label}: deviation {deviation:.3e} of peak exceeds {EXACT_RTOL:.0e}"
    return None


def _closed_form(flat: dict, fiber: FiberParams, pump: PumpConfig, omegas):
    """Closed-form (f_x, f_y) for an x-axis pump, or None for a two-axis pump."""
    if pump.p0y != 0:
        return None
    f_x = exact_scalar_flux(fiber, pump.p0x, omegas)
    if flat["regime"] == "LB":
        return f_x, exact_lb_orthogonal_flux(fiber, pump.p0x, omegas)
    return f_x, np.zeros_like(omegas)


def _first_order(flat: dict, fiber: FiberParams, pump: PumpConfig, omegas):
    if flat["regime"] == "LB":
        return flux_lb(fiber, pump, omegas)
    return flux_hb(fiber, pump, omegas)


def check_spectrum(op, text: str, flat: dict, refs: dict) -> str | None:
    fiber, pump, grid = objects(flat)
    method = op.argv[op.argv.index("--method") + 1] if "--method" in op.argv else flat["method"]
    methods = METHOD_ORDER if method == "all" else (method,)
    if method == "all" and flat["regime"] == "HB" and pump.p0x and pump.p0y:
        methods = ("first-order", "exact-ode")
    comments, columns, rows = parse_csv(text)
    if columns != ["omega_rad_per_ps", "f_x", "f_y", "method", "L_km"]:
        return f"unexpected columns {columns}"
    n = grid.n_points
    tasks = [(m, length) for m in methods for length in flat["lengths_km"]]
    if len(rows) != n * len(tasks):
        return f"expected {n * len(tasks)} rows, got {len(rows)}"
    for index, (m, length) in enumerate(tasks):
        block = rows[index * n : (index + 1) * n]
        if any(row[3] != m or float(row[4]) != float(format(length, ".9g")) for row in block):
            return f"rows of ({m}, L={length}) out of order"
        omega = _numbers([row[0] for row in block])
        f_x, f_y = _numbers([row[1] for row in block]), _numbers([row[2] for row in block])
        reason = _printed_mismatch(omega, grid.omegas, "omega")
        if reason:
            return reason
        fiber_l = replace(fiber, length=length)
        label = f"{m} L={length}"
        if m == "first-order":
            ex_x, ex_y = _first_order(flat, fiber_l, pump, grid.omegas)
            reason = _printed_mismatch(f_x, ex_x, label + " f_x") or _printed_mismatch(
                f_y, ex_y, label + " f_y"
            )
        elif m == "closed-form":
            ex_x, ex_y = _closed_form(flat, fiber_l, pump, grid.omegas)
            reason = _printed_mismatch(f_x, ex_x, label + " f_x") or _printed_mismatch(
                f_y, ex_y, label + " f_y"
            )
        else:
            closed = _closed_form(flat, fiber_l, pump, grid.omegas)
            if closed is None:
                stored = refs["exact"].get(op.ref, {}).get(format(length, ".9g"))
                if stored is None:
                    return f"no stored reference for {op.ref} at L={length}"
                closed = np.array(stored["f_x"]), np.array(stored["f_y"])
            peak = max(float(np.max(closed[0])), float(np.max(closed[1])))
            reason = _peak_mismatch(f_x, closed[0], peak, label + " f_x") or _peak_mismatch(
                f_y, closed[1], peak, label + " f_y"
            )
        if reason:
            return reason
    if op.steps is not None:
        step_lines = [line for line in comments if line.startswith("# steps.L=")]
        if len(step_lines) != len(flat["lengths_km"]) or not all(
            f"= {op.steps}" in line for line in step_lines
        ):
            return f"explicit --steps {op.steps} not reported: {step_lines}"
    return None


def check_mi(op, text: str, flat: dict) -> str | None:
    fiber, pump, grid = objects(flat)
    comments, columns, rows = parse_csv(text)
    if columns != ["omega_rad_per_ps", "gain_per_km", "lambda_re_per_km", "lambda_im_per_km"]:
        return f"unexpected columns {columns}"
    if len(rows) != grid.n_points:
        return f"expected {grid.n_points} rows, got {len(rows)}"
    curve = mi_gain_curve(fiber, pump.total, grid)
    expected = (grid.omegas, curve.gain_vals, curve.lambda_vals.real, curve.lambda_vals.imag)
    for column, (name, values) in enumerate(zip(columns, expected)):
        reason = _printed_mismatch(_numbers([row[column] for row in rows]), values, name)
        if reason:
            return reason
    ratio = [line for line in comments if line.startswith("# bandwidth_ratio = ")]
    if len(ratio) != 1:
        return "missing bandwidth_ratio header"
    printed = _numbers([ratio[0].split(" = ")[1]])
    return _printed_mismatch(
        printed, bandwidth_ratio(fiber, pump.total, fiber.length), "bandwidth_ratio"
    )


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-finite value {constant} written")

    return json.loads(text, parse_constant=reject)


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def check_classify(op, text: str, flat: dict) -> str | None:
    fiber, pump, _ = objects(flat)
    omega = float(op.argv[op.argv.index("--omega") + 1])
    payload = _strict_json(text)
    state = filtered_state(fiber, pump, flat["regime"], omega, pump.duration)
    report = classify(state, tol=1e-3)
    if payload["classification"] != report.classification:
        return f"classification {payload['classification']} != {report.classification}"
    if not _close(payload["concurrence"], report.concurrence, 1e-9, 1e-12):
        return f"concurrence {payload['concurrence']} != {report.concurrence}"
    if not _close(payload["generation_probability"], state.generation_probability, 1e-9):
        return "generation_probability differs from the recomputation"
    for label, coeff in zip(("xx", "yy", "xy", "yx"), state.coeffs):
        if not _close(payload["coeff_abs2"][label], abs(coeff) ** 2, 1e-9, 1e-12):
            return f"coeff_abs2[{label}] differs from the recomputation"
    phase = payload["relative_phase_rad"]
    if (phase is None) != math.isnan(report.relative_phase) or (
        phase is not None and not _close(phase, report.relative_phase, 1e-9, 1e-12)
    ):
        return f"relative_phase_rad {phase} != {report.relative_phase}"
    return None


def check_compare(op, text: str, flat: dict) -> str | None:
    """Deviation report against first order and the closed form (x-axis pump only)."""
    fiber, pump, grid = objects(flat)
    payload = _strict_json(text)
    comparisons = payload["comparisons"]
    if len(comparisons) != len(flat["lengths_km"]):
        return f"expected {len(flat['lengths_km'])} comparisons, got {len(comparisons)}"
    for entry, length in zip(comparisons, flat["lengths_km"]):
        fiber_l = replace(fiber, length=length)
        fo_x, fo_y = _first_order(flat, fiber_l, pump, grid.omegas)
        ex_x, ex_y = _closed_form(flat, fiber_l, pump, grid.omegas)
        peak = max(float(np.max(ex_x)), float(np.max(ex_y)))
        dev = np.concatenate([np.abs(fo_x - ex_x), np.abs(fo_y - ex_y)]) / peak
        if entry["L_km"] != length:
            return f"comparison for L={entry['L_km']} where {length} was expected"
        if not _close(entry["peak_flux"], peak, EXACT_RTOL):
            return f"peak_flux {entry['peak_flux']} != {peak} at L={length}"
        for key, value in (("max_rel_dev", dev.max()), ("mean_rel_dev", dev.mean())):
            if not _close(entry[key], float(value), 0.0, EXACT_RTOL):
                return f"{key} {entry[key]} != {value} at L={length}"
    if not isinstance(payload["deviation_increases_with_length"], bool):
        return "deviation_increases_with_length is not a boolean"
    return None


def check_op(op, output: bytes, run_dir, refs: dict) -> str | None:
    """None when the output of `op` is correct, else the reason it is not."""
    if op.check == "ref":
        expected = refs["sha256"].get(op.ref)
        if sha256(output) != expected:
            return f"output differs from the reference {op.ref}"
        return None
    with open(run_dir / op.scenario, encoding="utf-8") as handle:
        flat = json.load(handle)
    text = output.decode("utf-8")
    try:
        if op.check == "spectrum":
            return check_spectrum(op, text, flat, refs)
        if op.check == "mi":
            return check_mi(op, text, flat)
        if op.check == "classify":
            return check_classify(op, text, flat)
        if op.check == "compare":
            return check_compare(op, text, flat)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {exc}"
    raise ValueError(f"unknown check {op.check!r}")
