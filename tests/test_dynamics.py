import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm

import fps.dynamics
from fps import (
    Channel,
    FiberParams,
    NumericalFailure,
    PumpConfig,
    PumpNotOnAxis,
    StepCountTooSmall,
    ZeroDispersion,
    ZeroGain,
    bandwidth_ratio,
    exact_lb_orthogonal_flux,
    exact_scalar_flux,
    flux_from_matrices,
    flux_hb,
    integrate_transfer_grid,
    lambda_param,
    mi_asymptotic_flux,
    mi_gain,
    mi_gain_curve,
    mi_peak,
    mi_support_edge,
    symplectic_defect,
    xi_hb,
)
from fps.dynamics import (
    J_METRIC,
    _closed_form_flux,
    _coefficient_factors,
    _expm,
    _relative_defect,
    _squarings,
)
from fps.cli import PRESETS, load_scenario
from fps.fiber import FrequencyGrid, coupling_table
from fps.hb import first_order_amplitude

TWO_PI = 2.0 * math.pi


def _rates(fiber, pump, regime, omegas):
    """Phase rates R of A(z) = C exp(i R z), from `Coupling.rate` alone.

    R_jk is the rate of the table entry (j, k) and R_kj = -R_jk; entries
    outside the table, where C vanishes, get 0.  The mode offsets phi of
    the production path are never used.
    """
    w = np.asarray(omegas, dtype=float)
    rate = np.zeros(w.shape + (4, 4))
    for (j, k), entry in coupling_table(fiber, pump, regime).items():
        rate[..., j, k] = entry.rate(w)
        rate[..., k, j] = -rate[..., j, k]
    return rate


def _generator(fiber, pump, regime, omega, z):
    """Coefficient matrix A(z) = C exp(i R z) of d/dz v = A(z) v at one detuning."""
    coeff, _ = _coefficient_factors(fiber, pump, regime, float(omega))
    return coeff * np.exp(1j * _rates(fiber, pump, regime, float(omega)) * z)


def _transfer(fiber, pump, regime, omega):
    """Transfer matrix M(L) at one detuning."""
    matrices, _ = integrate_transfer_grid(fiber, pump, regime, np.array([float(omega)]))
    return matrices[0]


def test_coefficient_entry_example():
    fiber = FiberParams(gamma=3.0, beta2=-20.0, length=0.1)
    pump = PumpConfig(p0x=0.3)
    a = _generator(fiber, pump, "HB", 1.0, 0.0)
    assert a[0, 1] == pytest.approx(1j * 0.9)


def test_coefficient_scalar_pump_is_block_diagonal():
    fiber = FiberParams(gamma=3.0, beta2=-20.0, length=0.1, delta_beta1=50.0)
    pump = PumpConfig(p0x=0.3)
    a = _generator(fiber, pump, "HB", 2.0, 0.03)
    assert np.all(a[:2, 2:] == 0.0)
    assert np.all(a[2:, :2] == 0.0)
    assert np.all(a[2:, 2:] == 0.0)  # no y-pump, no y-block dynamics


@settings(max_examples=60)
@given(
    px=st.floats(min_value=0.0, max_value=30.0),
    py=st.floats(min_value=0.0, max_value=30.0),
    tx=st.floats(min_value=-3.0, max_value=3.0),
    ty=st.floats(min_value=-3.0, max_value=3.0),
    omega=st.floats(min_value=-15.0, max_value=15.0),
    z=st.floats(min_value=0.0, max_value=0.5),
    b2=st.sampled_from([-139.0, -20.0, 15.0]),
)
def test_generator_preserves_commutators(px, py, tx, ty, omega, z, b2):
    """A J + J A^dag = 0: the flow generator is in the Bogoliubov algebra."""
    fiber = FiberParams(gamma=3.0, beta2=b2, length=0.2, delta_beta1=200.0)
    pump = PumpConfig(p0x=px, p0y=py, theta0x=tx, theta0y=ty)
    a = _generator(fiber, pump, "HB", omega, z)
    residue = a @ J_METRIC + J_METRIC @ a.conj().T
    assert np.abs(residue).max() < 1e-12 * max(1.0, np.abs(a).max())


def test_generator_lb_preserves_commutators():
    fiber = FiberParams(gamma=3.0, beta2=5.0, length=0.15, delta_beta0=2000.0)
    pump = PumpConfig(p0x=1.0, theta0x=0.7)
    for z in (0.0, 0.04, 0.11):
        a = _generator(fiber, pump, "LB", 28.0, z)
        residue = a @ J_METRIC + J_METRIC @ a.conj().T
        assert np.abs(residue).max() < 1e-14


@pytest.mark.parametrize("steps", [None, 4], ids=["expm", "rk4"])
def test_zero_length_gives_identity(steps):
    fiber = FiberParams(gamma=3.0, beta2=-20.0, length=0.0)
    mats, used = integrate_transfer_grid(fiber, PumpConfig(p0x=0.3), "HB", [1.0], steps=steps)
    assert used == (steps or 0)
    np.testing.assert_array_equal(mats[0], np.eye(4))
    assert flux_from_matrices(mats[0]) == (0.0, 0.0)


@pytest.mark.parametrize("steps", [None, 4], ids=["expm", "rk4"])
def test_empty_grid_gives_no_matrices(fig2_fiber, fig2_pump, steps):
    # as the flux functions return empty arrays for an empty omega
    mats, used = integrate_transfer_grid(fig2_fiber, fig2_pump, "HB", np.array([]), steps=steps)
    assert used == (steps or 0)
    assert mats.shape == (0, 4, 4) and mats.dtype == complex
    for flux in (flux_from_matrices(mats), flux_hb(fig2_fiber, fig2_pump, np.array([]))):
        assert [f.shape for f in flux] == [(0,), (0,)]


def test_zero_gamma_gives_identity():
    # in the rotating frame the free phases are absorbed, nothing evolves
    fiber = FiberParams(gamma=0.0, beta2=-20.0, length=0.3, delta_beta1=100.0)
    mats, _ = integrate_transfer_grid(fiber, PumpConfig(p0x=0.3), "HB", np.array([2.0]))
    np.testing.assert_allclose(mats[0], np.eye(4), atol=1e-15)
    assert np.all(np.abs(np.diag(mats[0])) == pytest.approx(1.0))


def test_transfer_matches_scalar_closed_form():
    pump = PumpConfig(p0x=0.3)
    omegas = np.linspace(-2.0, 2.0, 41)
    for b2 in (-20.0, 20.0):
        fiber = FiberParams(gamma=3.0, beta2=b2, length=0.3)
        mats, _ = integrate_transfer_grid(fiber, pump, "HB", omegas)
        f_x, f_y = flux_from_matrices(mats)
        reference = exact_scalar_flux(fiber, 0.3, omegas)
        assert np.max(np.abs(f_x - reference)) / reference.max() < 1e-9
        assert np.all(f_y == 0.0)


def test_transfer_flux_even_for_scalar_pump():
    fiber = FiberParams(gamma=3.0, beta2=-20.0, length=0.2)
    pump = PumpConfig(p0x=0.3)
    m_pos = _transfer(fiber, pump, "HB", 1.3)
    m_neg = _transfer(fiber, pump, "HB", -1.3)
    assert flux_from_matrices(m_pos)[0] == pytest.approx(
        flux_from_matrices(m_neg)[0], rel=1e-10
    )


def test_lb_transfer_matches_both_closed_forms():
    fiber = FiberParams(gamma=3.0, beta2=5.0, length=0.15, delta_beta0=2000.0)
    pump = PumpConfig(p0x=1.0)
    omegas = np.linspace(27.5, 29.0, 31)
    mats, _ = integrate_transfer_grid(fiber, pump, "LB", omegas)
    f_x, f_y = flux_from_matrices(mats)
    ref_y = exact_lb_orthogonal_flux(fiber, 1.0, omegas)
    assert np.max(np.abs(f_y - ref_y)) / ref_y.max() < 1e-9
    ref_x = exact_scalar_flux(fiber, 1.0, omegas)
    assert np.max(np.abs(f_x - ref_x)) <= 1e-9 * exact_scalar_flux(fiber, 1.0, 0.0)


def test_lb_regime_requires_single_axis_pump():
    fiber = FiberParams(gamma=3.0, beta2=5.0, length=0.15, delta_beta0=2000.0)
    with pytest.raises(PumpNotOnAxis):
        integrate_transfer_grid(fiber, PumpConfig(p0x=1.0, p0y=1.0), "LB", np.array([1.0]))
    # the closed-form oracle has no two-axis solution in either regime
    for regime in ("HB", "LB"):
        with pytest.raises(
            PumpNotOnAxis,
            match=f"^closed-form method requires a single-axis pump in the {regime} regime$",
        ):
            _closed_form_flux(fiber, PumpConfig(p0x=1.0, p0y=1.0), regime, np.array([1.0]))
    # nor does it run any other regime as HB, whatever the pump
    for pump in (PumpConfig(p0x=1.0), PumpConfig(p0x=1.0, p0y=1.0)):
        with pytest.raises(ValueError, match="^regime must be 'HB' or 'LB', got 'lb'$"):
            _closed_form_flux(fiber, pump, "lb", np.array([1.0]))


@pytest.mark.parametrize("regime", ["HB", "LB"])
def test_closed_form_oracle_relabels_a_y_pump_without_the_coupling_table(
    monkeypatch, regime
):
    """The y-pump closed form is the x-pump one on the relabeled fiber, axes swapped."""
    monkeypatch.setattr(fps.dynamics, "coupling_table", None)  # any read fails
    x_fiber = FiberParams(gamma=3.0, beta2=5.0, length=0.15, delta_beta0=2000.0)
    y_fiber = replace(x_fiber, delta_beta0=-2000.0)
    omegas = np.linspace(-32.0, 32.0, 64)
    f_x, f_y = _closed_form_flux(x_fiber, PumpConfig(p0x=1.0), regime, omegas)
    y_pump = PumpConfig(p0x=0.0, p0y=1.0, theta0y=0.7)
    g_x, g_y = _closed_form_flux(y_fiber, y_pump, regime, omegas)
    assert (g_x == f_y).all() and (g_y == f_x).all()
    assert (f_x == exact_scalar_flux(x_fiber, 1.0, omegas)).all()
    assert (f_y != 0).any() == (regime == "LB")


@pytest.mark.parametrize("steps", [None, 3000])
def test_lb_y_pump_transfer_is_the_x_pump_transfer_relabeled(steps):
    """Relabeling x <-> y flips delta_beta0 and permutes the basis (0,1) <-> (2,3), exactly."""
    x_fiber = FiberParams(gamma=3.0, beta2=5.0, length=0.15, delta_beta0=2000.0)
    y_fiber = replace(x_fiber, delta_beta0=-2000.0)
    omegas = np.linspace(-32.0, 32.0, 64)
    x_mats, _ = integrate_transfer_grid(
        x_fiber, PumpConfig(p0x=1.0, theta0x=0.7), "LB", omegas, steps=steps
    )
    y_mats, _ = integrate_transfer_grid(
        y_fiber, PumpConfig(p0x=0.0, p0y=1.0, theta0y=0.7), "LB", omegas, steps=steps
    )
    swap = [2, 3, 0, 1]
    assert np.abs(y_mats - x_mats[:, swap][:, :, swap]).max() == 0.0


def test_unknown_regime_rejected():
    fiber = FiberParams(gamma=3.0, beta2=5.0, length=0.15)
    with pytest.raises(ValueError):
        integrate_transfer_grid(fiber, PumpConfig(p0x=1.0), "XY", np.array([1.0]))


def test_first_order_agreement_degrades_with_length():
    """Perturbative flux tracks the exact one for L << L_nl, then drifts."""
    pump = PumpConfig(p0x=0.3)
    omegas = np.linspace(-2.0, 2.0, 101)
    l_nl = 1.0 / 0.9
    deviations = []
    for ratio in (0.03, 0.09, 0.27):
        fiber = FiberParams(gamma=3.0, beta2=-20.0, length=ratio * l_nl)
        mats, _ = integrate_transfer_grid(fiber, pump, "HB", omegas)
        f_exact, _ = flux_from_matrices(mats)
        f_first, _ = flux_hb(fiber, pump, omegas)
        deviations.append(np.max(np.abs(f_exact - f_first)) / f_exact.max())
    assert deviations[0] < 0.02 and deviations[1] < 0.02
    assert deviations[0] < deviations[1] < deviations[2]


def test_symplectic_defect_at_default_steps():
    fiber = FiberParams(gamma=3.0, beta2=15.0, length=0.2, delta_beta1=200.0)
    pump = PumpConfig(p0x=0.15, p0y=0.15)
    mats, _ = integrate_transfer_grid(fiber, pump, "HB", np.array([0.5, 7.0, 15.0]))
    assert symplectic_defect(mats) < 1e-9


def test_defect_improves_at_fourth_order(monkeypatch):
    monkeypatch.setattr(fps.dynamics, "DEFECT_LIMIT", math.inf)
    fiber = FiberParams(gamma=3.0, beta2=-20.0, length=0.3)
    pump = PumpConfig(p0x=0.3)
    omega = np.array([1.5])
    coarse, _ = integrate_transfer_grid(fiber, pump, "HB", omega, steps=16)
    fine, _ = integrate_transfer_grid(fiber, pump, "HB", omega, steps=32)
    d_coarse = symplectic_defect(coarse)
    d_fine = symplectic_defect(fine)
    assert d_coarse > 1e-10  # truncation-dominated, not roundoff
    assert d_coarse / d_fine >= 8.0


def test_step_count_too_small_raises(monkeypatch):
    fiber = FiberParams(gamma=3.0, beta2=15.0, length=0.2, delta_beta1=200.0)
    pump = PumpConfig(p0x=0.15, p0y=0.15)
    with pytest.raises(StepCountTooSmall):
        integrate_transfer_grid(fiber, pump, "HB", np.array([15.0]), steps=25)
    # without a limit the post-hoc check passes the (bad) matrices through
    monkeypatch.setattr(fps.dynamics, "DEFECT_LIMIT", math.inf)
    mats, _ = integrate_transfer_grid(fiber, pump, "HB", np.array([15.0]), steps=25)
    assert symplectic_defect(mats) > 1e-6


@pytest.mark.parametrize(
    "length, steps, message",
    [
        # 1/10**400 rounds to 0.0: the steps would be empty and the flux 0
        # where the matrix exponential gives 0.0692 at Omega = 0.5.
        pytest.param(1, 10**400, "steps must be finite, got inf", id="int-length-beyond-range"),
        pytest.param(1.0, 10**400, "steps must be finite, got inf", id="beyond-range"),
        pytest.param(1.0, 0, "steps must be >= 1, got 0", id="zero"),
        pytest.param(1.0, 2.0, "steps must be an integer, got 2.0", id="float"),
        pytest.param(1.0, True, "steps must be a real number, got True", id="bool"),
        pytest.param(
            1e-300, 10**30, "length/steps must be a positive float, got 0.0", id="step-underflow"
        ),
    ],
)
def test_rk4_steps_follow_the_count_rule(length, steps, message):
    fiber = FiberParams(gamma=3, beta2=-20, length=length)
    with pytest.raises(ValueError, match=f"^{message}$"):
        integrate_transfer_grid(fiber, PumpConfig(0.3), "HB", np.array([0.5, 1.0]), steps=steps)


def test_rk4_at_the_largest_step_counts_is_the_matrix_exponential():
    # 10**307 steps of h = 1e-307 km: binary powering keeps every digit the
    # CSV prints.
    fiber = FiberParams(gamma=3, beta2=-20, length=1)
    omegas = np.array([0.5, 1.0])
    exact = flux_from_matrices(integrate_transfer_grid(fiber, PumpConfig(0.3), "HB", omegas)[0])
    np.testing.assert_allclose(exact[0], [0.0692301573, 0.000204938833], rtol=1e-8)
    matrices, steps = integrate_transfer_grid(fiber, PumpConfig(0.3), "HB", omegas, steps=10**307)
    assert steps == 10**307
    np.testing.assert_allclose(flux_from_matrices(matrices), exact, rtol=1e-12)


#: RK4 step count for the oracle comparisons below.
ORACLE_STEPS = 40_000

ORACLE_CASES = {
    "fig2-phases": (
        FiberParams(gamma=3.0, beta2=15.0, length=0.1, delta_beta1=200.0),
        PumpConfig(p0x=0.15, p0y=0.15, theta0x=0.4, theta0y=-1.1),
        "HB",
        np.array([-13.3, -1.0, 1.0, 7.0, 13.3]),
    ),
    "fig3": (
        FiberParams(gamma=36.0, beta2=-139.0, length=0.00045, delta_beta1=400.0),
        PumpConfig(p0x=20.0, p0y=20.0),
        "HB",
        np.linspace(-10.0, 10.0, 9),
    ),
    "fig4a-lb": (
        FiberParams(gamma=3.0, beta2=5.0, length=0.05, delta_beta0=2000.0),
        PumpConfig(p0x=1.0),
        "LB",
        np.array([-32.0, -28.3, -10.0, 0.5, 10.0, 28.0, 28.3, 32.0]),
    ),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_expm_matches_rk4_oracle(case):
    fiber, pump, regime, omegas = ORACLE_CASES[case]
    exact, steps = integrate_transfer_grid(fiber, pump, regime, omegas)
    assert steps == 0
    oracle, used = integrate_transfer_grid(fiber, pump, regime, omegas, steps=ORACLE_STEPS)
    assert used == ORACLE_STEPS
    assert np.abs(exact - oracle).max() <= 1e-10
    assert symplectic_defect(exact) <= 1e-12


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_mode_offsets_give_every_coupled_rate(case):
    """C is one constant matrix, and phi_k - phi_j is R_jk wherever C_jk != 0."""
    fiber, pump, regime, omegas = ORACLE_CASES[case]
    coeff, phi = _coefficient_factors(fiber, pump, regime, omegas)
    assert coeff.shape == (4, 4) and phi.shape == omegas.shape + (4,)
    rate = _rates(fiber, pump, regime, omegas)
    offsets = phi[:, None, :] - phi[:, :, None]
    coupled = coeff != 0
    assert coupled.sum() == 2 * len(coupling_table(fiber, pump, regime))
    gap = np.abs(offsets - rate)[:, coupled]
    assert gap.max() <= 1e-13 * np.abs(rate).max()


def _stepwise_rk4(fiber, pump, regime, omegas, steps):
    """Fixed-step RK4, one step at a time, from the phase rates R alone.

    The sampled coefficients C exp(i R z) are advanced by half-step
    factors.  R comes from `_rates`, so the mode offsets phi, which the
    powered oracle shares with the matrix exponential, are never used.
    """
    coeff, _ = _coefficient_factors(fiber, pump, regime, omegas)
    rate = _rates(fiber, pump, regime, omegas)
    matrices = np.zeros(omegas.shape + (4, 4), dtype=complex)
    matrices[...] = np.eye(4)
    h = fiber.length / steps
    phase = np.ones(rate.shape, dtype=complex)
    half_step_factor = np.exp(1j * rate * (0.5 * h))
    for _ in range(steps):
        a_start = coeff * phase
        phase_mid = phase * half_step_factor
        a_mid = coeff * phase_mid
        phase = phase_mid * half_step_factor
        a_end = coeff * phase
        k1 = a_start @ matrices
        k2 = a_mid @ (matrices + (0.5 * h) * k1)
        k3 = a_mid @ (matrices + (0.5 * h) * k2)
        k4 = a_end @ (matrices + h * k3)
        matrices = matrices + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return matrices


def _relative_gap(matrices, reference):
    """Largest |matrices - reference| per matrix over max(1, max |reference|)."""
    scale = np.maximum(1.0, np.abs(reference).max(axis=(-2, -1), keepdims=True))
    return (np.abs(matrices - reference) / scale).max()


@pytest.mark.parametrize("steps", [1, 2, 3, 25, 1000, 1001, 2047])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_powered_rk4_matches_stepwise_loop(monkeypatch, case, steps):
    """The telescoped power is the same discrete map as N separate RK4 steps."""
    monkeypatch.setattr(fps.dynamics, "DEFECT_LIMIT", math.inf)
    fiber, pump, regime, omegas = ORACLE_CASES[case]
    powered, used = integrate_transfer_grid(fiber, pump, regime, omegas, steps=steps)
    stepwise = _stepwise_rk4(fiber, pump, regime, omegas, steps)
    assert used == steps
    assert _relative_gap(powered, stepwise) <= 1e-12


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_rk4_oracle_matches_expm_on_every_preset_grid(name):
    """RK4 at ORACLE_STEPS on each preset's full grid and lengths.

    Powering the one-step matrix as an offset from the identity keeps the
    relative defect below 1e-12 here (worst, fig2 at L = 0.3 km: 5.7e-13,
    with a relative gap to expm of 8.2e-13); with the identity added to the
    step first it reaches 1.9e-11.
    """
    scenario, _ = load_scenario(dict(PRESETS[name]))
    omegas = scenario.grid.omegas
    for length in scenario.lengths:
        fiber = replace(scenario.fiber, length=length)
        exact, _ = integrate_transfer_grid(fiber, scenario.pump, scenario.regime, omegas)
        oracle, _ = integrate_transfer_grid(
            fiber, scenario.pump, scenario.regime, omegas, steps=ORACLE_STEPS
        )
        assert _relative_gap(oracle, exact) <= 1e-10
        assert _relative_defect(oracle) <= 5e-12


FIRST_ORDER_CASES = {
    "hb-phases": (
        FiberParams(gamma=3.0, beta2=15.0, length=0.1, delta_beta1=200.0),
        PumpConfig(p0x=0.02, p0y=0.01, theta0x=0.4, theta0y=-1.1),
        "HB",
        np.array([-13.3, -1.0, 1.0, 7.0, 13.3]),
    ),
    "lb": (
        FiberParams(gamma=3.0, beta2=5.0, length=0.05, delta_beta0=2000.0),
        PumpConfig(p0x=0.1, theta0x=0.7),
        "LB",
        np.array([-28.3, -10.0, 0.5, 28.3]),
    ),
}


@pytest.mark.parametrize("case", sorted(FIRST_ORDER_CASES))
def test_first_order_amplitudes_are_transfer_entries(case):
    """Each pair amplitude is its entry of M(L) - 1 up to O((gamma P0 L)^2)."""
    fiber, pump, regime, omegas = FIRST_ORDER_CASES[case]
    mats, _ = integrate_transfer_grid(fiber, pump, regime, omegas)
    if regime == "HB":
        amplitudes = {ch: xi_hb(fiber, pump, ch, omegas) for ch in Channel}
    else:
        amplitudes = {
            Channel.XX: xi_hb(fiber, pump, Channel.XX, omegas),
            Channel.YY: first_order_amplitude(
                coupling_table(fiber, pump, "LB")[Channel.YY.value], fiber, omegas
            ),
        }
    tol = (fiber.gamma * pump.total * fiber.length) ** 2
    for channel, xi in amplitudes.items():
        j, k = channel.value
        # the bound is far below the amplitude, so a wrong phase would fail
        assert np.abs(xi).max() > 20.0 * tol
        np.testing.assert_allclose(mats[:, j, k], xi, rtol=0.0, atol=tol)


def test_expm_at_band_edge_and_high_gain():
    # gamma*P = 1, |beta2| = 1: lambda = 0 exactly at Omega = 0 and at the
    # band edge Omega = 2, where eigenvectors coalesce; g*L = 5 at sqrt(2).
    fiber = FiberParams(gamma=1.0, beta2=-1.0, length=5.0)
    omegas = np.array([0.0, mi_support_edge(fiber, 1.0), math.sqrt(2.0)])
    assert omegas[1] == 2.0
    assert mi_gain(fiber, 1.0, omegas[2]) * fiber.length == pytest.approx(5.0)
    mats, _ = integrate_transfer_grid(fiber, PumpConfig(p0x=1.0), "HB", omegas)
    f_x, _ = flux_from_matrices(mats)
    np.testing.assert_allclose(f_x, exact_scalar_flux(fiber, 1.0, omegas), rtol=1e-10)


#: The oracle grids plus lambda = 0 at Omega = 0 and at the band edge
#: Omega = 2, where eigenvectors coalesce, and g*L = 5 at Omega = sqrt(2).
EXPM_CASES = {
    **ORACLE_CASES,
    "band-edge-gl5": (
        FiberParams(gamma=1.0, beta2=-1.0, length=5.0),
        PumpConfig(p0x=1.0),
        "HB",
        np.array([0.0, 2.0, math.sqrt(2.0)]),
    ),
}


@pytest.mark.parametrize("case", sorted(EXPM_CASES))
def test_numpy_expm_matches_scipy(case):
    fiber, pump, regime, omegas = EXPM_CASES[case]
    coeff, phi = _coefficient_factors(fiber, pump, regime, omegas)
    generator = (coeff + 1j * phi[..., None] * np.eye(4)) * fiber.length
    reference = scipy_expm(generator)
    scale = np.maximum(1.0, np.abs(reference))
    assert (np.abs(_expm(generator, _squarings(generator)) - reference) / scale).max() <= 1e-12


def test_expm_terminates_on_non_finite_and_huge_input():
    # a non-finite norm must not reach the squaring count, and a 1e300 norm,
    # which asks for about 1000 squarings, raises before any of them
    batch = np.zeros((2, 4, 4), dtype=complex)
    batch[0, 0, 1] = np.inf
    batch[1, 2, 3] = np.nan
    start = time.perf_counter()
    with np.errstate(all="ignore"):
        result = _expm(batch, _squarings(batch))
    assert time.perf_counter() - start < 1.0
    assert result.shape == (2, 4, 4)
    assert not np.isfinite(result[0]).all() and not np.isfinite(result[1]).all()
    huge = np.zeros((3, 4, 4), dtype=complex)
    huge[2, 1, 0] = 1e300
    with pytest.raises(NumericalFailure, match="needs 995 squarings; beyond 53 no digit"):
        _squarings(huge)


def test_expm_squarings_are_bounded():
    # |A|_1 = theta_13 * 2^s asks for exactly s squarings: log2(1/u) = 53
    # run, 54 raise
    assert fps.dynamics._MAX_SQUARINGS == -math.log2(np.finfo(float).eps / 2)
    generator = np.zeros((2, 4, 4), dtype=complex)
    generator[1, 0, 0] = 1j * fps.dynamics._THETA13 * 2.0**53
    assert np.isfinite(_expm(generator, _squarings(generator))).all()
    generator[1, 0, 0] *= 2.0
    with pytest.raises(NumericalFailure, match="needs 54 squarings"):
        _squarings(generator)


def _matrices_or_failure(fiber, pump, regime, omegas, steps):
    """integrate_transfer_grid's matrices, or the type and message of its NumericalFailure."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return integrate_transfer_grid(fiber, pump, regime, omegas, steps=steps)[0]
    except NumericalFailure as exc:
        return type(exc), str(exc)


def _placed(base: float, points: dict) -> np.ndarray:
    """40 detunings at `base`, except the given index -> omega entries."""
    omegas = np.full(40, base)
    omegas[list(points)] = list(points.values())
    return omegas


_FIG2_PHYSICS = (
    FiberParams(gamma=3.0, beta2=15.0, delta_beta1=200.0, length=0.2),
    PumpConfig(p0x=0.15, p0y=0.15),
    "HB",
)
_FIG4A_PHYSICS = (
    FiberParams(gamma=3.0, beta2=5.0, delta_beta0=2000.0, length=0.15), PumpConfig(p0x=1.0), "LB"
)
# Normal dispersion at L = 1e8 km: the defect fails from about Omega = 5
# (largest near 13.8 rad/ps), Omega = 1e4 and 1e5 ask for 56 and 62
# squarings, and Omega = 1e150 overflows the generator.
_LONG_NORMAL = (FiberParams(gamma=3.0, beta2=20.0, length=1e8), PumpConfig(p0x=0.3), "HB")
# Anomalous dispersion at L = 500 km: Omega = 0.3 overflows (defect NaN),
# Omega = 5000 fails with a finite defect and Omega = 1000 passes.
_LONG_ANOMALOUS = (FiberParams(gamma=3.0, beta2=-20.0, length=500.0), PumpConfig(p0x=0.3), "HB")
_DEFECT = "relative symplectic defect {} exceeds 1.0e-06 with {}"

#: name -> (physics, omegas, steps, None or the failure expected of the
#: whole grid), with each fault at a point past the first batch of 7.
BATCH_CASES = {
    "expm-hb": (_FIG2_PHYSICS, np.linspace(-15.0, 15.0, 40).reshape(5, 8), None, None),
    "expm-lb": (_FIG4A_PHYSICS, np.linspace(-32.0, 32.0, 40), None, None),
    "rk4-hb": (_FIG2_PHYSICS, np.linspace(-15.0, 15.0, 40), 1000, None),
    "rk4-lb": (_FIG4A_PHYSICS, np.linspace(-32.0, 32.0, 40).reshape(5, 8), 1000, None),
    "non-finite": (
        _LONG_NORMAL,
        _placed(1.0, {3: 13.8, 10: 1e4, 30: 1e150}),
        None,
        (NumericalFailure, "coupled-mode generator is not finite, got -infj"),
    ),
    "squarings": (
        _LONG_NORMAL,
        _placed(1.0, {3: 13.8, 10: 1e4, 30: 1e5}),
        None,
        (
            NumericalFailure,
            "the matrix exponential needs 62 squarings; beyond 53 no digit of the result survives",
        ),
    ),
    "expm-defect": (
        _LONG_NORMAL,
        _placed(1.0, {3: 10.0, 30: 13.8}),
        None,
        (NumericalFailure, _DEFECT.format("8.599e-05", "the matrix exponential")),
    ),
    "nan-defect": (
        _LONG_ANOMALOUS,
        _placed(1000.0, {3: 5000.0, 30: 0.3}),
        None,
        (NumericalFailure, _DEFECT.format("nan", "the matrix exponential")),
    ),
    "rk4-defect": (
        _FIG2_PHYSICS,
        _placed(0.5, {3: 5.0, 30: 7.4}),
        25,
        (StepCountTooSmall, _DEFECT.format("2.037e-04", "25 steps")),
    ),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batches_reproduce_one_batch(case, monkeypatch):
    # Batches of 7 return the bytes of one batch, and fail with its
    # exception and message: the non-finite entry, the largest squaring
    # count and the largest defect of the whole grid, each of which sits
    # in a later batch than a lesser fault.
    physics, omegas, steps, failure = BATCH_CASES[case]
    assert len(omegas.ravel()) <= fps.dynamics._BATCH
    whole = _matrices_or_failure(*physics, omegas, steps)
    monkeypatch.setattr(fps.dynamics, "_BATCH", 7)
    batched = _matrices_or_failure(*physics, omegas, steps)
    if failure is None:
        assert whole.shape == batched.shape == omegas.shape + (4, 4)
        assert whole.tobytes() == batched.tobytes()
    else:
        assert whole == batched == failure


def test_non_finite_generator_is_a_numerical_failure():
    # beta2 * Omega^2 = inf: the default path raises before the kernel runs
    fiber = FiberParams(gamma=3.0, beta2=1e300, length=0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure, match="generator is not finite"):
            integrate_transfer_grid(fiber, PumpConfig(p0x=0.3), "HB", np.array([1.0, 1e5]))


def test_overflowed_transfer_fails_defect_check():
    # g*L = 450: the matrices overflow, so the defect is NaN, not small
    fiber = FiberParams(gamma=3.0, beta2=-20.0, length=500.0)
    pump = PumpConfig(p0x=0.3)
    omegas = np.array([-0.3, 0.3])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure) as info:
            integrate_transfer_grid(fiber, pump, "HB", omegas)
        assert not isinstance(info.value, StepCountTooSmall)
        with pytest.raises(StepCountTooSmall):
            integrate_transfer_grid(fiber, pump, "HB", omegas, steps=200)


def test_flux_from_identity_is_vacuum():
    assert flux_from_matrices(np.eye(4, dtype=complex)) == (0.0, 0.0)


def test_lambda_param_branches():
    fiber = FiberParams(gamma=3.0, beta2=-20.0, length=1.0)
    assert lambda_param(fiber, 0.3, 0.0) == 0.0
    omega_max = math.sqrt(2.0 * 0.9 / 20.0)
    lam = lambda_param(fiber, 0.3, omega_max)
    assert lam == pytest.approx(0.9)
    assert lam.imag == 0.0
    normal = FiberParams(gamma=3.0, beta2=20.0, length=1.0)
    lam_n = lambda_param(normal, 0.3, 1.0)
    assert lam_n.real == 0.0 and lam_n.imag > 0.0


def test_closed_forms_overflow_to_nan_not_overflow_error():
    # (gamma*P)^2 is beyond double range.  Squared as x*x it overflows to inf,
    # where a Python-float x**2 raises a bare OverflowError, and the NaN
    # flux or eigenvalue raises NumericalFailure, as the first-order fluxes
    # do.  A Python int omega beyond double range in either closed form is
    # an input error, read by `errors.real` as inf, not an OverflowError.
    fiber = FiberParams(gamma=1e200, beta2=-1.0, length=1.0)
    plain = FiberParams(gamma=1.0, beta2=1.0, length=1.0)
    calls = {
        (NumericalFailure, "closed-form flux is not finite, got nan"): [
            lambda: exact_scalar_flux(fiber, 1.0, 1.0),
        ],
        (NumericalFailure, r"lambda is not finite, got \(nan\+nanj\)"): [
            lambda: lambda_param(fiber, 1.0, 1.0),
            lambda: mi_gain_curve(fiber, 1.0, FrequencyGrid(-1.0, 1.0, 4)),
        ],
        (ValueError, "omega must be finite, got inf"): [
            lambda: exact_scalar_flux(plain, 1.0, 10**400),
        ],
        (ValueError, "omega must be finite, got -inf"): [
            lambda: exact_lb_orthogonal_flux(plain, 1.0, -(10**400)),
        ],
    }
    with np.errstate(all="ignore"):
        for (error, message), group in calls.items():
            for call in group:
                with pytest.raises(error, match=f"^{message}$"):
                    call()


def test_exact_scalar_flux_zero_detuning_limit():
    fiber = FiberParams(gamma=3.0, beta2=-20.0, length=0.1)
    assert exact_scalar_flux(fiber, 0.3, 0.0) == pytest.approx(
        0.09**2 / TWO_PI, rel=1e-10
    )


def test_exact_scalar_flux_continuous_at_band_edge():
    fiber = FiberParams(gamma=3.0, beta2=-20.0, length=0.5)
    edge = 2.0 * math.sqrt(0.9 / 20.0)
    at_edge = exact_scalar_flux(fiber, 0.3, edge)
    near = exact_scalar_flux(fiber, 0.3, np.array([edge - 1e-7, edge + 1e-7]))
    np.testing.assert_allclose(near, at_edge, rtol=1e-6)


def test_exact_scalar_flux_reduces_to_first_order():
    # gamma*P*L = 0.01
    fiber = FiberParams(gamma=1.0, beta2=-20.0, length=0.01)
    omegas = np.linspace(0.0, 1.0, 11)
    exact = exact_scalar_flux(fiber, 1.0, omegas)
    first, _ = flux_hb(fiber, PumpConfig(p0x=1.0), omegas)
    np.testing.assert_allclose(exact, first, rtol=1e-2)


def test_mi_gain_curve_values():
    fiber = FiberParams(gamma=3.0, beta2=-20.0, length=1.0)
    grid = FrequencyGrid(-0.6, 0.6, 241)
    curve = mi_gain_curve(fiber, 0.3, grid)
    omega_max, g_max = mi_peak(fiber, 0.3)
    assert omega_max == pytest.approx(0.3)
    assert g_max == pytest.approx(0.9)
    assert mi_support_edge(fiber, 0.3) == pytest.approx(0.42426407, abs=1e-8)
    assert curve.gain_vals.max() == pytest.approx(0.9, rel=1e-6)
    omegas = grid.omegas
    inside = np.abs(omegas) < 0.42
    outside = np.abs(omegas) > 0.425
    assert np.all(curve.gain_vals[outside] == 0.0)
    assert np.all(curve.gain_vals[inside & (np.abs(omegas) > 1e-9)] > 0.0)
    assert mi_gain(fiber, 0.3, 0.0) == 0.0


def test_mi_gain_zero_for_normal_dispersion():
    fiber = FiberParams(gamma=3.0, beta2=20.0, length=1.0)
    curve = mi_gain_curve(fiber, 0.3, FrequencyGrid(-1.0, 1.0, 51))
    assert np.all(curve.gain_vals == 0.0)


def test_mi_peak_errors():
    with pytest.raises(ZeroDispersion):
        mi_peak(FiberParams(gamma=3.0, beta2=0.0, length=1.0), 0.3)
    with pytest.raises(ZeroGain):
        mi_peak(FiberParams(gamma=3.0, beta2=20.0, length=1.0), 0.3)
    with pytest.raises(ZeroGain):
        mi_support_edge(FiberParams(gamma=3.0, beta2=-20.0, length=1.0), 0.0)


def test_mi_asymptote_at_max_gain():
    # gamma*P0*L = 5 at the gain maximum: flux e^{10}/(8 pi)
    fiber = FiberParams(gamma=1.0, beta2=-1.0, length=5.0)
    result = mi_asymptotic_flux(fiber, 1.0, math.sqrt(2.0))
    assert result.value == pytest.approx(math.exp(10.0) / (8.0 * math.pi), rel=1e-12)
    assert result.valid


def test_mi_asymptote_validity_flag():
    fiber = FiberParams(gamma=1.0, beta2=-1.0, length=1.0)  # g L = 1
    result = mi_asymptotic_flux(fiber, 1.0, math.sqrt(2.0))
    assert not result.valid
    with pytest.raises(ZeroGain):
        mi_asymptotic_flux(fiber, 1.0, 10.0)


def test_mi_asymptote_converges_to_exact():
    ratios = []
    for gpl in (3.0, 5.0, 8.0):
        fiber = FiberParams(gamma=1.0, beta2=-1.0, length=gpl)
        exact = exact_scalar_flux(fiber, 1.0, math.sqrt(2.0))
        asym = mi_asymptotic_flux(fiber, 1.0, math.sqrt(2.0)).value
        ratios.append(abs(asym / exact - 1.0))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[1] < 0.02


def test_bandwidth_ratio_values():
    fiber = FiberParams(gamma=1.0, beta2=-5.0, length=1.0)
    assert bandwidth_ratio(fiber, 1.0, 1.0) == pytest.approx(0.7979, abs=1e-4)
    assert bandwidth_ratio(fiber, 0.01, 1.0) == pytest.approx(0.0798, abs=1e-4)
    # beta2 cancels in the ratio
    other = FiberParams(gamma=1.0, beta2=-250.0, length=1.0)
    assert bandwidth_ratio(other, 1.0, 1.0) == bandwidth_ratio(fiber, 1.0, 1.0)
    with pytest.raises(ZeroDispersion):
        bandwidth_ratio(FiberParams(gamma=1.0, beta2=0.0, length=1.0), 1.0, 1.0)
