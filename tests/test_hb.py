import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from fps import (
    Channel,
    DegenerateBirefringence,
    FiberParams,
    PumpConfig,
    PumpNotOnAxis,
    ZeroDispersion,
    bandwidths,
    flux_hb,
    overlapping_regime,
    total_scatter_probability,
    vector_peak_detuning,
    xi_hb,
)
from fps.fiber import FrequencyGrid, coupling_table, swap_axes
from fps.hb import sinc

TWO_PI = 2.0 * math.pi

power_st = st.floats(min_value=0.01, max_value=30.0, allow_nan=False)
omega_st = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
theta_st = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


def _fiber(beta2=15.0, delta_beta1=200.0, length=0.2):
    return FiberParams(gamma=3.0, beta2=beta2, length=length, delta_beta1=delta_beta1)


def test_sinc_series_and_zero():
    assert sinc(0.0) == 1.0
    assert sinc(math.pi) == pytest.approx(0.0, abs=1e-16)
    assert sinc(1e-10) == pytest.approx(1.0, rel=1e-15)
    # series branch agrees with the direct form just above the cutoff
    assert sinc(2e-8) == pytest.approx(math.sin(2e-8) / 2e-8, rel=1e-12)


def test_xi_xx_magnitude_at_zero_detuning(fig1_fiber, pump_x03):
    # gamma*P0x*L = 0.09, |xi| = 0.09*sinc(0.09) = sin(0.09)
    value = xi_hb(fig1_fiber, pump_x03, Channel.XX, 0.0)
    assert abs(value) == pytest.approx(0.08987854919801104, rel=1e-12)
    # 1j * e^{-i u}: argument is pi/2 - u with u = 0.09
    assert np.angle(value) == pytest.approx(math.pi / 2 - 0.09, abs=1e-12)


def test_xi_xx_first_sinc_zero(fig1b_fiber, pump_x03):
    omega = math.sqrt(2.0 * (math.pi - 0.09) / (20.0 * 0.1))
    assert omega == pytest.approx(1.7469, abs=1e-4)
    assert abs(xi_hb(fig1b_fiber, pump_x03, Channel.XX, omega)) < 1e-15


def test_xi_xy_vanishes_without_y_power(fig1_fiber, pump_x03):
    omegas = np.linspace(-5.0, 5.0, 11)
    assert np.all(xi_hb(fig1_fiber, pump_x03, Channel.XY, omegas) == 0.0)
    assert np.all(xi_hb(fig1_fiber, pump_x03, Channel.YX, omegas) == 0.0)


def test_yx_phase_matching_roots(fig2_fiber, fig2_pump):
    """The YX sinc argument vanishes at the roots of 15 W^2 - 200 W + 0.9."""
    disc = math.sqrt(200.0**2 - 4.0 * 15.0 * 0.9)
    for root in ((200.0 + disc) / 30.0, (200.0 - disc) / 30.0):
        value = xi_hb(fig2_fiber, fig2_pump, Channel.YX, root)
        # phase matched: sinc = 1 and the amplitude sits at its peak i*0.06
        assert abs(value) == pytest.approx(0.06, rel=1e-12)
        assert value.imag == pytest.approx(0.06, rel=1e-12)
        assert abs(value.real) < 1e-12
    assert (200.0 + disc) / 30.0 == pytest.approx(13.3288, abs=1e-4)
    assert (200.0 - disc) / 30.0 == pytest.approx(0.004501, abs=1e-6)


@settings(max_examples=50)
@given(px=power_st, py=power_st, omega=omega_st, b2=st.sampled_from([-15.0, 15.0]))
def test_amplitude_bounded_by_prefactor(px, py, omega, b2):
    fiber = _fiber(beta2=b2)
    pump = PumpConfig(p0x=px, p0y=py)
    gl = fiber.gamma * fiber.length
    vector = (2.0 / 3.0) * gl * math.sqrt(px * py)
    bounds = {
        Channel.XX: gl * px,
        Channel.YY: gl * py,
        Channel.XY: vector,
        Channel.YX: vector,
    }
    for channel, bound in bounds.items():
        assert abs(xi_hb(fiber, pump, channel, omega)) <= bound * (1.0 + 1e-12)


@settings(max_examples=50)
@given(px=power_st, py=power_st, omega=st.floats(min_value=0.01, max_value=20.0))
def test_vector_amplitudes_mirror_exactly(px, py, omega):
    # |xi_xy(-W)| = |xi_yx(+W)|: the two sinc arguments are exact negatives
    fiber = _fiber()
    pump = PumpConfig(p0x=px, p0y=py)
    left = abs(xi_hb(fiber, pump, Channel.XY, -omega))
    right = abs(xi_hb(fiber, pump, Channel.YX, omega))
    assert left == pytest.approx(right, rel=1e-12, abs=1e-300)


def test_flux_scalar_pump_only_x(fig1_fiber, pump_x03):
    omegas = np.linspace(-2.0, 2.0, 41)
    f_x, f_y = flux_hb(fig1_fiber, pump_x03, omegas)
    assert np.all(f_y == 0.0)
    xx = np.abs(xi_hb(fig1_fiber, pump_x03, Channel.XX, omegas)) ** 2 / TWO_PI
    np.testing.assert_allclose(f_x, xx, rtol=1e-14)
    fx0, _ = flux_hb(fig1_fiber, pump_x03, 0.0)
    assert fx0 == pytest.approx(1.2857e-3, rel=1e-4)


def test_flux_even_for_scalar_pumping(fig1_fiber, pump_x03):
    omegas = np.linspace(0.1, 2.0, 17)
    f_pos, _ = flux_hb(fig1_fiber, pump_x03, omegas)
    f_neg, _ = flux_hb(fig1_fiber, pump_x03, -omegas)
    np.testing.assert_allclose(f_pos, f_neg, rtol=1e-14)


def test_heaviside_gate_decomposition(fig2_fiber, fig2_pump):
    """Vector channels populate opposite detuning signs on opposite axes."""
    for omega in (0.5, 5.0, 13.3):
        f_x_neg, _ = flux_hb(fig2_fiber, fig2_pump, -omega)
        _, f_y_pos = flux_hb(fig2_fiber, fig2_pump, omega)
        xx = abs(xi_hb(fig2_fiber, fig2_pump, Channel.XX, -omega)) ** 2
        yy = abs(xi_hb(fig2_fiber, fig2_pump, Channel.YY, omega)) ** 2
        yx = abs(xi_hb(fig2_fiber, fig2_pump, Channel.YX, omega)) ** 2
        assert f_x_neg == pytest.approx((xx + yx) / TWO_PI, rel=1e-12)
        assert f_y_pos == pytest.approx((yy + yx) / TWO_PI, rel=1e-12)


def test_flux_tiebreak_at_zero_detuning(fig2_fiber, fig2_pump):
    f_x, f_y = flux_hb(fig2_fiber, fig2_pump, 0.0)
    xx = abs(xi_hb(fig2_fiber, fig2_pump, Channel.XX, 0.0)) ** 2
    xy = abs(xi_hb(fig2_fiber, fig2_pump, Channel.XY, 0.0)) ** 2
    yx = abs(xi_hb(fig2_fiber, fig2_pump, Channel.YX, 0.0)) ** 2
    assert f_x == pytest.approx((xx + 0.5 * xy + 0.5 * yx) / TWO_PI, rel=1e-12)
    # equal pump split: both axes identical at Omega=0
    assert f_y == pytest.approx(f_x, rel=1e-12)


@settings(max_examples=30)
@given(px=power_st, py=power_st, omega=st.floats(min_value=0.0, max_value=20.0))
def test_pairwise_sum_rule(px, py, omega):
    # photons are created in +/- Omega pairs: the axis-summed flux is even
    fiber = _fiber()
    pump = PumpConfig(p0x=px, p0y=py)
    f_x_p, f_y_p = flux_hb(fiber, pump, omega)
    f_x_m, f_y_m = flux_hb(fiber, pump, -omega)
    assert f_x_p + f_y_p == pytest.approx(f_x_m + f_y_m, rel=1e-12)


def test_pump_exchange_symmetry():
    fiber = _fiber()
    relabeled = FiberParams(
        gamma=fiber.gamma,
        beta2=fiber.beta2,
        length=fiber.length,
        delta_beta0=-fiber.delta_beta0,
        delta_beta1=-fiber.delta_beta1,
        beta1_ref=fiber.beta1_ref + fiber.delta_beta1,
    )
    pump = PumpConfig(p0x=0.25, p0y=0.05, theta0x=0.2, theta0y=-0.7)
    swapped = PumpConfig(p0x=0.05, p0y=0.25, theta0x=-0.7, theta0y=0.2)
    omegas = np.linspace(-15.0, 15.0, 101)
    f_x, f_y = flux_hb(fiber, pump, omegas)
    g_x, g_y = flux_hb(relabeled, swapped, omegas)
    np.testing.assert_allclose(f_x, g_y, rtol=1e-12)
    np.testing.assert_allclose(f_y, g_x, rtol=1e-12)


def test_pump_phases_enter_as_channel_phases(fig2_fiber):
    # scalar channels take two photons from one axis, vector channels one from each
    tx, ty = 0.4, -1.1
    base = PumpConfig(p0x=0.15, p0y=0.15)
    rotated = PumpConfig(p0x=0.15, p0y=0.15, theta0x=tx, theta0y=ty)
    phases = {
        Channel.XX: 2 * tx,
        Channel.YY: 2 * ty,
        Channel.XY: tx + ty,
        Channel.YX: tx + ty,
    }
    omegas = np.array([-13.3, -1.0, 0.3, 5.0, 13.3])
    for channel, phase in phases.items():
        np.testing.assert_allclose(
            xi_hb(fig2_fiber, rotated, channel, omegas),
            np.exp(1j * phase) * xi_hb(fig2_fiber, base, channel, omegas),
            rtol=1e-12,
        )


@settings(max_examples=30)
@given(tx=theta_st, ty=theta_st)
def test_flux_ignores_pump_phases(tx, ty):
    fiber = _fiber()
    base = PumpConfig(p0x=0.15, p0y=0.15)
    rotated = PumpConfig(p0x=0.15, p0y=0.15, theta0x=tx, theta0y=ty)
    omegas = np.array([-13.3, -1.0, 0.3, 5.0, 13.3])
    f_base = flux_hb(fiber, base, omegas)
    f_rot = flux_hb(fiber, rotated, omegas)
    np.testing.assert_allclose(f_rot[0], f_base[0], rtol=1e-12)
    np.testing.assert_allclose(f_rot[1], f_base[1], rtol=1e-12)


def test_spectrum_record_fields(fig2_fiber, fig2_pump):
    grid = FrequencyGrid(-15.0, 15.0, 100)
    f_x, f_y = flux_hb(fig2_fiber, fig2_pump, grid.omegas)
    assert np.all(f_x >= 0.0) and np.all(f_y >= 0.0)
    assert f_x.shape == f_y.shape == (100,)


def test_pair_probability_density_equals_scalar_flux(fig1_fiber):
    # P_T integrates the XX density alone: a y pump adds the vector term
    # |xi_xy|^2 to f_x but leaves |xi_xx|^2, and so P_T, unchanged.
    x_only = total_scatter_probability(fig1_fiber, PumpConfig(p0x=0.3), 100.0, "numeric")
    both = total_scatter_probability(
        fig1_fiber, PumpConfig(p0x=0.3, p0y=0.3), 100.0, "numeric"
    )
    assert both == x_only


def test_total_scatter_probability_analytic(fig1_fiber, pump_x03):
    value = total_scatter_probability(fig1_fiber, pump_x03, 100.0, mode="analytic")
    assert value == pytest.approx(0.1524, abs=1e-4)
    assert total_scatter_probability(fig1_fiber, pump_x03, 0.0, mode="analytic") == 0.0


def test_total_scatter_probability_numeric_close(fig1_fiber, pump_x03):
    analytic = total_scatter_probability(fig1_fiber, pump_x03, 100.0, mode="analytic")
    numeric = total_scatter_probability(fig1_fiber, pump_x03, 100.0, mode="numeric")
    assert numeric == pytest.approx(analytic, rel=0.25)


@pytest.mark.parametrize("beta2, power", [(-20.0, 0.3), (15.0, 0.15), (-139.0, 20.0)])
def test_numeric_total_probability_matches_scipy_simpson(beta2, power):
    fiber = FiberParams(gamma=3.0, beta2=beta2, length=0.1)
    pump = PumpConfig(p0x=power)
    omegas = np.linspace(0.0, 5.0 * bandwidths(fiber, pump, require_vector=False)[0], 20001)
    density = np.abs(xi_hb(fiber, pump, Channel.XX, omegas)) ** 2 / TWO_PI
    reference = 100.0 * simpson(density, x=omegas)
    numeric = total_scatter_probability(fiber, pump, 100.0, mode="numeric")
    assert numeric == pytest.approx(reference, rel=1e-13, abs=0.0)


def test_total_scatter_probability_errors(pump_x03):
    flat = FiberParams(gamma=3.0, beta2=0.0, length=0.1)
    with pytest.raises(ZeroDispersion):
        total_scatter_probability(flat, pump_x03, 100.0, mode="analytic")
    with pytest.raises(ValueError):
        total_scatter_probability(
            FiberParams(gamma=3.0, beta2=-20.0, length=0.1), pump_x03, 100.0, mode="bogus"
        )


@pytest.mark.parametrize("mode", ["analytic", "numeric"])
def test_total_scatter_probability_rejects_y_axis_pump(fig1_fiber, mode):
    # only the x-pumped channel is counted; a y pump used to give 0.0
    with pytest.raises(PumpNotOnAxis):
        total_scatter_probability(fig1_fiber, PumpConfig(p0x=0.0, p0y=0.3), 100.0, mode=mode)
    # relabeled onto x it is the x-pump value
    fiber_x, pump_x = swap_axes(fig1_fiber, PumpConfig(p0x=0.0, p0y=0.3))
    expected = total_scatter_probability(fig1_fiber, PumpConfig(p0x=0.3), 100.0, mode=mode)
    assert total_scatter_probability(fiber_x, pump_x, 100.0, mode=mode) == expected
    assert expected > 0.15


def test_vector_peak_estimate_matches_quadratic_root(fig2_fiber, fig2_pump):
    estimate = vector_peak_detuning(fig2_fiber, fig2_pump)
    disc = math.sqrt(200.0**2 - 4.0 * 15.0 * 0.9)
    exact_root = (200.0 + disc) / 30.0
    assert estimate == pytest.approx(13.3288, abs=1e-4)
    # estimate and exact root differ only at O(alpha^2)
    assert estimate == pytest.approx(exact_root, rel=1e-6)


def test_vector_peak_overlap_regime():
    fib3 = FiberParams(gamma=36.0, beta2=-139.0, length=1e-4, delta_beta1=400.0)
    pmp3 = PumpConfig(p0x=20.0, p0y=20.0)
    assert vector_peak_detuning(fib3, pmp3) == pytest.approx(6.47, abs=0.01)
    assert overlapping_regime(fib3, pmp3)
    fib2 = _fiber()
    assert not overlapping_regime(fib2, PumpConfig(p0x=0.15, p0y=0.15))


def test_vector_peak_requires_birefringence(pump_x03):
    with pytest.raises(DegenerateBirefringence):
        vector_peak_detuning(FiberParams(gamma=3.0, beta2=15.0, length=0.1), pump_x03)


def test_bandwidth_estimators(pump_x03):
    fiber = FiberParams(gamma=3.0, beta2=20.0, length=0.1, delta_beta1=200.0)
    scalar, _ = bandwidths(fiber, pump_x03)
    assert scalar == pytest.approx(3.5449, abs=1e-4)
    long_fiber = FiberParams(gamma=3.0, beta2=20.0, length=0.3, delta_beta1=200.0)
    _, vector = bandwidths(long_fiber, pump_x03)
    assert vector == pytest.approx(0.2094, abs=1e-4)


def test_bandwidth_scaling(pump_x03):
    fiber = FiberParams(gamma=3.0, beta2=20.0, length=0.1, delta_beta1=200.0)
    stretched = FiberParams(gamma=3.0, beta2=20.0, length=0.4, delta_beta1=200.0)
    s1, v1 = bandwidths(fiber, pump_x03)
    s4, v4 = bandwidths(stretched, pump_x03)
    assert s4 == pytest.approx(s1 / 2.0, rel=1e-12)
    assert v4 == pytest.approx(v1 / 4.0, rel=1e-12)


def test_bandwidth_errors(pump_x03):
    with pytest.raises(ZeroDispersion):
        bandwidths(FiberParams(gamma=3.0, beta2=0.0, length=0.1, delta_beta1=1.0), pump_x03)
    no_biref = FiberParams(gamma=3.0, beta2=20.0, length=0.1)
    with pytest.raises(DegenerateBirefringence):
        bandwidths(no_biref, pump_x03)
    scalar, vector = bandwidths(no_biref, pump_x03, require_vector=False)
    assert math.isfinite(scalar) and math.isnan(vector)
