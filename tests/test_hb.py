import cmath
import decimal
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from fps import (
    Channel,
    DegenerateBirefringence,
    FiberParams,
    FpsError,
    GainCurve,
    NoFarDetunedPeak,
    NumericalFailure,
    PumpConfig,
    PumpNotOnAxis,
    ZeroDispersion,
    ZeroPower,
    alpha_param,
    bandwidth_ratio,
    bandwidths,
    cpm_phase,
    exact_lb_orthogonal_flux,
    exact_scalar_flux,
    filtered_state,
    flux_from_matrices,
    flux_hb,
    flux_lb,
    integrate_transfer_grid,
    lambda_param,
    lb_peak_and_width,
    mi_asymptotic_flux,
    mi_gain,
    mi_gain_curve,
    mi_peak,
    mi_support_edge,
    nonlinear_length,
    overlapping_regime,
    second_order_quantities,
    total_scatter_probability,
    vector_peak_detuning,
    xi_hb,
)
from fps.fiber import Coupling, FrequencyGrid, coupling_table, swap_axes
from fps.hb import _scalar_width, first_order_amplitude

TWO_PI = 2.0 * math.pi

power_st = st.floats(min_value=0.01, max_value=30.0, allow_nan=False)
omega_st = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
theta_st = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


def _fiber(beta2=15.0, delta_beta1=200.0, length=0.2):
    return FiberParams(gamma=3.0, beta2=beta2, length=length, delta_beta1=delta_beta1)


def test_sinc_is_exactly_one_below_1e8_and_at_zero():
    """The sinc envelope of `first_order_amplitude`, on the float and array paths.

    With L = 2 and the constant rate R = u of k = -u, xi = 2i exp(iu) sinc(u).
    Below |u| = 1e-8, sin(u) rounds to u, so sin(u)/u is exactly 1.0, the
    value a series 1 - u^2/6 would round to: the amplitude is 2i exp(iu) bit
    for bit, with seeded, subnormal and just-below-1e-8 u alike, and exactly
    2i at u = 0.  Above 1e-8 it is the direct sin(u)/u, with the first zero
    at u = pi.  A numpy build whose sin does not return u for tiny u fails
    here first.
    """
    fiber = FiberParams(gamma=1.0, beta2=1.0, length=2.0)

    def amplitudes(u):
        entry = Coupling(1.0, 0.0, a=0.0, b=0.0, k=-u)
        return [
            first_order_amplitude(entry, fiber, 0.0),
            first_order_amplitude(entry, fiber, np.array([0.0]))[0],
        ]

    assert amplitudes(0.0) == [2j, 2j]
    rng = np.random.default_rng(20261020)
    magnitudes = 10.0 ** rng.uniform(-300.0, -8.0, 400)
    signs = rng.choice([-1.0, 1.0], magnitudes.size)
    below = 1e-8 * (1.0 - 2.0**-52)
    subnormals = [5e-324, 2.0**-1070, 2.0**-1023 * 0.75]
    tiny = [*(signs * magnitudes).tolist(), *subnormals, below]
    for u in tiny + [-u for u in tiny]:
        assert 0.0 < abs(u) < 1e-8
        assert amplitudes(u) == [2j * cmath.exp(1j * u)] * 2, u
    for u, envelope in (
        (2e-8, math.sin(2e-8) / 2e-8),
        (math.pi, math.sin(math.pi) / math.pi),
    ):
        assert amplitudes(u) == [2j * cmath.exp(1j * u) * envelope] * 2, u
    assert [abs(xi) for xi in amplitudes(math.pi)] == [pytest.approx(0.0, abs=2e-16)] * 2
    assert [abs(xi) for xi in amplitudes(2e-8)] == [pytest.approx(2.0, rel=1e-15)] * 2


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
    # x <-> y by hand; beta1y = 0 in either labelling, a common phase
    relabeled = FiberParams(
        gamma=fiber.gamma,
        beta2=fiber.beta2,
        length=fiber.length,
        delta_beta0=-fiber.delta_beta0,
        delta_beta1=-fiber.delta_beta1,
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
    zero_length = FiberParams(gamma=3.0, beta2=-20.0, length=0.0)
    assert total_scatter_probability(zero_length, pump_x03, 100.0, mode="analytic") == 0.0


@pytest.mark.parametrize("mode", ["analytic", "numeric"])
@pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0])
def test_total_scatter_probability_rejects_bad_duration(fig1_fiber, pump_x03, mode, duration):
    rule = ">= 0" if duration < 0 else "finite"
    with pytest.raises(ValueError, match=f"^duration must be {rule}, got {duration}$"):
        total_scatter_probability(fig1_fiber, pump_x03, duration, mode=mode)


@pytest.mark.parametrize(
    "fiber, duration",
    [
        *(
            pytest.param(FiberParams(gamma=3.0, beta2=-20.0, length=0.1), T, id=f"duration-{T}")
            for T in (1e-170, 1e200)
        ),
        # 2*pi*|beta2|*L = 6.3e308 is beyond double range, P_T is not
        pytest.param(
            FiberParams(gamma=1e-3, beta2=1e308, length=1.0), 100.0, id="dispersion-1e308"
        ),
    ],
)
def test_analytic_pt_is_the_closed_form_wherever_that_is_in_range(fiber, duration):
    """Analytic P_T is (2/3)*(gamma*P*L)^2 * T/sqrt(2*pi*|beta2|*L), here taken in
    Decimal, where T^2 or 2*pi*|beta2|*L alone would leave double range.  At
    these small gamma*P*L numeric mode agrees within 10 %."""
    pump = PumpConfig(p0x=0.3)
    analytic = total_scatter_probability(fiber, pump, duration)
    with decimal.localcontext() as context:  # localcontext(prec=...) needs Python 3.11
        context.prec = 40
        gpl = Decimal(fiber.gamma) * Decimal(pump.p0x) * Decimal(fiber.length)
        root = (2 * Decimal(math.pi) * Decimal(abs(fiber.beta2)) * Decimal(fiber.length)).sqrt()
        closed_form = float(Decimal(2) / 3 * gpl * gpl * Decimal(duration) / root)
    assert analytic == pytest.approx(closed_form, rel=1e-15, abs=0.0)
    numeric = total_scatter_probability(fiber, pump, duration, mode="numeric")
    assert numeric == pytest.approx(analytic, rel=0.1)


def test_analytic_pt_leaves_double_range_only_where_the_closed_form_does():
    """(gamma*P0*L)^2 = 1e320 alone would overflow, P_T = 2.7e69 does not; over
    seeded magnitudes from 1e-150 to 1e150 every normal P_T is within 1e-15
    of the closed form taken in Decimal, and one beyond double range raises."""
    huge = FiberParams(gamma=1e150, beta2=1e290, length=1e10)
    value = total_scatter_probability(huge, PumpConfig(p0x=1.0), 1e-100)
    assert value == pytest.approx(2.0 / 3.0 * 1e220 / math.sqrt(2.0 * math.pi * 1e300))
    rng = np.random.default_rng(20261022)
    normal = 0
    with decimal.localcontext() as context:
        context.prec = 40
        for _ in range(2000):
            gamma, beta2, length, power, duration = 10 ** rng.uniform(-150, 150, 5)
            inputs = FiberParams(gamma=gamma, beta2=beta2, length=length), PumpConfig(p0x=power)
            gpl = Decimal(gamma) * Decimal(power) * Decimal(length)
            root = (2 * Decimal(math.pi) * Decimal(beta2) * Decimal(length)).sqrt()
            closed_form = Decimal(2) / 3 * gpl * gpl * Decimal(duration) / root
            if closed_form > Decimal(sys.float_info.max):
                with pytest.raises(NumericalFailure):
                    total_scatter_probability(*inputs, duration)
            elif closed_form >= Decimal(sys.float_info.min):
                value = total_scatter_probability(*inputs, duration)
                assert value == pytest.approx(float(closed_form), rel=1e-15, abs=0.0)
                normal += 1
    assert normal > 1000


def test_total_scatter_probability_numeric_close(fig1_fiber, pump_x03):
    analytic = total_scatter_probability(fig1_fiber, pump_x03, 100.0, mode="analytic")
    numeric = total_scatter_probability(fig1_fiber, pump_x03, 100.0, mode="numeric")
    assert numeric == pytest.approx(analytic, rel=0.25)
    assert type(analytic) is float and type(numeric) is float


@pytest.mark.parametrize("beta2, power", [(-20.0, 0.3), (15.0, 0.15), (-139.0, 20.0)])
def test_numeric_total_probability_matches_scipy_simpson(beta2, power):
    fiber = FiberParams(gamma=3.0, beta2=beta2, length=0.1)
    pump = PumpConfig(p0x=power)
    omegas = np.linspace(0.0, 5.0 * _scalar_width(fiber), 20001)
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


def test_vector_peak_requires_dispersion(pump_x03):
    # alpha is 0 at beta2 = 0, so only the estimator's own check can raise
    fiber = FiberParams(gamma=3.0, beta2=0.0, length=0.1, delta_beta1=1.0)
    with pytest.raises(ZeroDispersion):
        vector_peak_detuning(fiber, pump_x03)


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
    assert math.isfinite(_scalar_width(no_biref))


def _phase_matched_omega(fiber, p0):
    # root of beta2 W^2 - (2/3) gamma P0 - 2 delta_beta0 = 0
    return math.sqrt(
        ((2.0 / 3.0) * fiber.gamma * p0 + 2.0 * fiber.delta_beta0) / fiber.beta2
    )


def _xi_yy(fiber, pump, omega):
    """LB amplitude of the (2, 3) entry: the orthogonal channel for an x pump."""
    entry = coupling_table(fiber, pump, "LB")[Channel.YY.value]
    return first_order_amplitude(entry, fiber, omega)


def test_xi_lb_magnitude_at_phase_matching(fig4a_fiber, pump_x1):
    short = FiberParams(gamma=3.0, beta2=5.0, length=0.05, delta_beta0=2000.0)
    omega = _phase_matched_omega(short, 1.0)
    assert omega == pytest.approx(28.2913, abs=1e-4)
    # sinc = 1 there, so |xi| is the full prefactor gamma*P0*L/3 = 0.05
    assert abs(_xi_yy(short, pump_x1, omega)) == pytest.approx(0.05, rel=1e-12)


def test_xi_lb_rejects_two_axis_pump(fig4a_fiber):
    with pytest.raises(PumpNotOnAxis):
        coupling_table(fig4a_fiber, PumpConfig(p0x=1.0, p0y=0.5), "LB")


def test_flux_peak_value(fig4a_fiber, pump_x1):
    short = FiberParams(gamma=3.0, beta2=5.0, length=0.05, delta_beta0=2000.0)
    omega = _phase_matched_omega(short, 1.0)
    _, f_y = flux_lb(short, pump_x1, omega)
    assert f_y == pytest.approx(0.05**2 / TWO_PI, rel=1e-12)
    assert f_y == pytest.approx(3.98e-4, rel=1e-2)


def test_flux_zero_power(fig4a_fiber):
    f_x, f_y = flux_lb(fig4a_fiber, PumpConfig(p0x=0.0), np.linspace(-30, 30, 7))
    assert np.all(f_x == 0.0) and np.all(f_y == 0.0)


def test_peak_and_width_values(fig4a_fiber, pump_x1):
    detuning, width = lb_peak_and_width(fig4a_fiber, pump_x1)
    assert detuning == pytest.approx(math.sqrt(800.0), rel=1e-12)
    assert width == pytest.approx(0.2962, abs=1e-4)
    # estimator agrees with the actual first-zero separation of the sinc
    u = lambda w: (5.0 * w**2 - 2.0 - 4000.0) * 0.5 * 0.15
    from scipy.optimize import brentq

    peak = _phase_matched_omega(fig4a_fiber, 1.0)
    left = brentq(lambda w: u(w) + math.pi, 27.0, peak)
    right = brentq(lambda w: u(w) - math.pi, peak, 30.0)
    assert width == pytest.approx(right - left, rel=3e-3)


def test_peak_scaling_with_mismatch(pump_x1):
    base = FiberParams(gamma=3.0, beta2=5.0, length=0.15, delta_beta0=500.0)
    quadrupled = FiberParams(gamma=3.0, beta2=5.0, length=0.15, delta_beta0=2000.0)
    d1, w1 = lb_peak_and_width(base, pump_x1)
    d4, w4 = lb_peak_and_width(quadrupled, pump_x1)
    assert d4 == pytest.approx(2.0 * d1, rel=1e-12)
    assert w4 == pytest.approx(w1 / 2.0, rel=1e-12)


def test_fast_axis_anomalous_combination(pump_x1):
    normal = FiberParams(gamma=3.0, beta2=5.0, length=0.15, delta_beta0=2000.0)
    anomalous = FiberParams(gamma=3.0, beta2=-5.0, length=0.15, delta_beta0=-2000.0)
    assert lb_peak_and_width(anomalous, pump_x1) == lb_peak_and_width(normal, pump_x1)


def test_sign_mismatch_has_no_peak(pump_x1):
    for b2, db0 in ((-5.0, 2000.0), (5.0, -2000.0)):
        fiber = FiberParams(gamma=3.0, beta2=b2, length=0.15, delta_beta0=db0)
        with pytest.raises(NoFarDetunedPeak):
            lb_peak_and_width(fiber, pump_x1)


def test_scalar_channel_is_the_hb_scalar(fig4a_fiber, pump_x1):
    # same code path as the HB xx channel, so equality is exact
    omegas = np.linspace(-30.0, 30.0, 301)
    f_x, _ = flux_lb(fig4a_fiber, pump_x1, omegas)
    np.testing.assert_array_equal(f_x, flux_hb(fig4a_fiber, PumpConfig(p0x=1.0), omegas)[0])


def test_pump_phase_changes_neither_spectrum(fig4a_fiber):
    omegas = np.linspace(-30.0, 30.0, 61)
    plain = flux_lb(fig4a_fiber, PumpConfig(p0x=1.0), omegas)
    rotated = flux_lb(fig4a_fiber, PumpConfig(p0x=1.0, theta0x=1.1), omegas)
    np.testing.assert_allclose(plain[0], rotated[0], rtol=1e-12)
    np.testing.assert_allclose(plain[1], rotated[1], rtol=1e-12)


def test_orthogonal_flux_even_and_bounded(fig4a_fiber, pump_x1):
    omegas = np.linspace(0.0, 32.0, 400)
    _, f_pos = flux_lb(fig4a_fiber, pump_x1, omegas)
    _, f_neg = flux_lb(fig4a_fiber, pump_x1, -omegas)
    np.testing.assert_allclose(f_pos, f_neg, rtol=1e-14)
    bound = (fig4a_fiber.gamma * 1.0 * fig4a_fiber.length / 3.0) ** 2 / TWO_PI
    assert np.all(f_pos <= bound * (1.0 + 1e-12))


def test_y_pump_relabeling_mirrors_x_pump():
    x_fiber = FiberParams(gamma=3.0, beta2=5.0, length=0.15, delta_beta0=2000.0)
    y_fiber = FiberParams(gamma=3.0, beta2=5.0, length=0.15, delta_beta0=-2000.0)
    omegas = np.linspace(-30.0, 30.0, 121)
    fx_x, fy_x = flux_lb(x_fiber, PumpConfig(p0x=1.0), omegas)
    fx_y, fy_y = flux_lb(y_fiber, PumpConfig(p0x=0.0, p0y=1.0, theta0y=0.4), omegas)
    np.testing.assert_allclose(fx_y, fy_x, rtol=1e-12)
    np.testing.assert_allclose(fy_y, fx_x, rtol=1e-12)
    assert lb_peak_and_width(y_fiber, PumpConfig(p0x=0.0, p0y=1.0)) == lb_peak_and_width(
        x_fiber, PumpConfig(p0x=1.0)
    )


def test_two_axis_pump_rejected(fig4a_fiber):
    with pytest.raises(PumpNotOnAxis):
        flux_lb(fig4a_fiber, PumpConfig(p0x=1.0, p0y=1.0), 1.0)
    with pytest.raises(PumpNotOnAxis):
        lb_peak_and_width(fig4a_fiber, PumpConfig(p0x=1.0, p0y=1.0))


#: |beta2|*L = 1e-400 underflows to 0 although neither factor is 0.
UNDERFLOWED = FiberParams(gamma=1.0, beta2=1e-200, length=1e-200)
#: delta_beta1^2 = 1e-400 underflows to 0.
UNDERFLOWED_WALK_OFF = FiberParams(gamma=1.0, beta2=1e-200, length=1.0, delta_beta1=1e-200)
#: gamma*P = 1e400 is beyond double range.
STRONG_FIBER = FiberParams(gamma=1e200, beta2=-20.0, length=1.0)
STRONG_PUMP = PumpConfig(p0x=1e200)
#: gamma*P/|beta2| = 1e320 is beyond double range.
SUBNORMAL_DISPERSION = FiberParams(gamma=1.0, beta2=-1e-320, length=1.0)
#: g*L = 1000 at Omega = 1: the closed-form flux e^{2gL} overflows to inf.
HIGH_GAIN = FiberParams(gamma=1.0, beta2=-1.0, length=1e3)
#: An ordinary fiber, for a Python int omega beyond double range.
PLAIN = FiberParams(gamma=1.0, beta2=1.0, length=1.0)
#: A Python int beyond double range, which `errors.real` reports as inf.
BEYOND = 10**400


class SizeOneArray(np.ndarray):
    """An array that converts to a float when it holds one entry, as numpy
    before 2.4 let any array do, whatever its number of dimensions."""

    def __float__(self):
        return float(self.item())

#: Raw inputs that must raise a ValueError naming them: id -> (call, message).
NAMED_INPUT_ERRORS = {
    "fiber-field-beyond-range": (
        lambda: FiberParams(gamma=BEYOND, beta2=1, length=1), "gamma must be finite, got inf"
    ),
    "grid-bound-beyond-range": (
        lambda: FrequencyGrid(-1, BEYOND, 4), "omega_max must be finite, got inf"
    ),
    # the span overflows, where linspace's 0*inf would make a point NaN
    "grid-span-beyond-range": (
        lambda: FrequencyGrid(-1e308, 1e308, 2),
        "omega_max - omega_min must be finite, got [-1e+308, 1e+308]",
    ),
    "pump-duration-beyond-range": (
        lambda: PumpConfig(p0x=1.0, duration=BEYOND), "duration must be finite, got inf"
    ),
    **{
        f"{func.__name__}-power-beyond-range": (
            lambda func=func: func(PLAIN, BEYOND, 1.0), "power must be finite, got inf"
        )
        for func in (lambda_param, mi_gain, exact_scalar_flux, exact_lb_orthogonal_flux)
    },
    "mi_gain_curve-power-beyond-range": (
        lambda: mi_gain_curve(PLAIN, BEYOND, FrequencyGrid(-1.0, 1.0, 4)),
        "power must be finite, got inf",
    ),
    "mi_peak-power-beyond-range": (
        lambda: mi_peak(PLAIN, BEYOND), "power must be finite, got inf"
    ),
    "mi_support_edge-power-beyond-range": (
        lambda: mi_support_edge(PLAIN, BEYOND), "power must be finite, got inf"
    ),
    "nonlinear-length-gamma-beyond-range": (
        lambda: nonlinear_length(BEYOND, 1.0), "gamma must be finite, got inf"
    ),
    "xpm-phase-z-beyond-range": (
        lambda: cpm_phase(1.0, 1.0, 1.0, BEYOND), "z must be finite, got inf"
    ),
    "bandwidth-ratio-length-beyond-range": (
        lambda: bandwidth_ratio(PLAIN, 1.0, BEYOND), "length must be finite, got inf"
    ),
    "pt-duration-beyond-range": (
        lambda: total_scatter_probability(PLAIN, PumpConfig(p0x=1.0), BEYOND),
        "duration must be finite, got inf",
    ),
    "state-duration-beyond-range": (
        lambda: filtered_state(PLAIN, PumpConfig(p0x=1.0), "HB", 1.0, BEYOND),
        "duration must be finite, got inf",
    ),
    "second-order-duration-beyond-range": (
        lambda: second_order_quantities(PLAIN, PumpConfig(p0x=1.0), 1.0, BEYOND),
        "duration must be finite, got inf",
    ),
    # an infinite gamma is an input error, not a nonlinear length of 0.0
    "nonlinear-length-infinite-gamma": (
        lambda: nonlinear_length(math.inf, 1.0), "gamma must be finite, got inf"
    ),
    "xpm-phase-string-power": (
        lambda: cpm_phase(1.0, "a", 1.0, 1.0), "p_same must be a real number, got 'a'"
    ),
    # every omega entry point rejects what is not a real number, whether
    # `fiber._as_omega` or `errors.real` reads it
    **{
        f"{name}-omega-{omega!r}": (
            lambda call=call, omega=omega: call(omega),
            f"omega must be a real number, got {omega!r}",
        )
        for name, call in {
            "flux_hb": lambda omega: flux_hb(PLAIN, PumpConfig(p0x=1.0), omega),
            "lambda_param": lambda omega: lambda_param(PLAIN, 1.0, omega),
            "xi_hb": lambda omega: xi_hb(PLAIN, PumpConfig(p0x=1.0), Channel.XX, omega),
            "mi_asymptotic_flux": lambda omega: mi_asymptotic_flux(PLAIN, 1.0, omega),
            "exact_scalar_flux": lambda omega: exact_scalar_flux(PLAIN, 1.0, omega),
            "integrate_transfer_grid": lambda omega: integrate_transfer_grid(
                PLAIN, PumpConfig(p0x=1.0), "HB", omega
            ),
            "second_order_quantities": lambda omega: second_order_quantities(
                PLAIN, PumpConfig(p0x=1.0), omega, 100.0
            ),
            "filtered_state": lambda omega: filtered_state(
                PLAIN, PumpConfig(p0x=1.0), "HB", omega, 100.0
            ),
        }.items()
        # numpy alone would read "1.5" as 1.5, True as 1 and None as NaN,
        # and drop an imaginary part with a ComplexWarning
        for omega in (
            "a", None, 1j, True, ["1.5"], np.array(["1.5"]), [True], np.True_,
            np.array([1.0 + 1j]), [None], np.complex128(1 + 1j), np.array("1.5"),
        )
    },
    # the estimators of one detuning read omega by `errors.real`, so an inf,
    # a NaN or an int beyond double range is an input error, as in
    # `filtered_state`
    **{
        f"{name}-omega-{omega!r}": (
            lambda call=call, omega=omega: call(omega), f"omega must be finite, got {value}"
        )
        for name, call in {
            "mi_asymptotic_flux": lambda omega: mi_asymptotic_flux(PLAIN, 1.0, omega),
            "second_order_quantities": lambda omega: second_order_quantities(
                PLAIN, PumpConfig(p0x=1.0), omega, 100.0
            ),
        }.items()
        for omega, value in ((math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"))
    },
    "second-order-int-omega": (
        lambda: second_order_quantities(PLAIN, PumpConfig(p0x=1.0), BEYOND, 100.0),
        "omega must be finite, got inf",
    ),
    # the estimators of one detuning take no sequence or array of them,
    # whatever numpy's own conversion of a size-1 array would give
    **{
        f"{name}-omega-{omega!r}": (
            lambda call=call, omega=omega: call(omega),
            f"omega must be a real number, got {omega!r}",
        )
        for name, call in {
            "mi_asymptotic_flux": lambda omega: mi_asymptotic_flux(PLAIN, 1.0, omega),
            "second_order_quantities": lambda omega: second_order_quantities(
                PLAIN, PumpConfig(p0x=1.0), omega, 100.0
            ),
            "filtered_state": lambda omega: filtered_state(
                PLAIN, PumpConfig(p0x=1.0), "HB", omega, 100.0
            ),
        }.items()
        for omega in (
            [1.0], (1.0,), np.array([1.0]), np.array([1.0, 2.0]),
            np.array([1.0]).view(SizeOneArray),
        )
    },
    # a numpy bool is no real number either, as Python's is not
    **{
        f"{name}-{flag!r}": (
            lambda call=call, flag=flag: call(flag), f"{field} must be a real number, got {flag!r}"
        )
        for name, field, call in (
            ("fiber-gamma", "gamma", lambda flag: FiberParams(gamma=flag, beta2=1, length=1)),
            ("pump-duration", "duration", lambda flag: PumpConfig(p0x=1.0, duration=flag)),
            (
                "state-duration",
                "duration",
                lambda flag: filtered_state(PLAIN, PumpConfig(p0x=1.0), "HB", 1.0, flag),
            ),
            ("grid-n-points", "n_points", lambda flag: FrequencyGrid(-1.0, 1.0, flag)),
        )
        for flag in (np.True_, np.array(True))
    },
    # xi_hb reads its channel as Channel(channel)
    **{
        f"xi_hb-channel-{channel!r}": (
            lambda channel=channel: xi_hb(PLAIN, PumpConfig(p0x=1.0), channel, 1.0),
            f"{channel!r} is not a valid Channel",
        )
        for channel in ("XX", 0, None, [0, 1])
    },
}


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(
            lambda: lb_peak_and_width(
                FiberParams(gamma=3.0, beta2=5.0, length=0.0, delta_beta0=2000.0),
                PumpConfig(p0x=1.0),
            ),
            ValueError,
            id="lb-width-at-zero-length",
        ),
        pytest.param(
            lambda: bandwidths(UNDERFLOWED, PumpConfig(p0x=1.0)),
            ValueError,
            id="scalar-width-underflow",
        ),
        pytest.param(
            lambda: total_scatter_probability(UNDERFLOWED, PumpConfig(p0x=1.0), 100.0),
            ZeroDispersion,
            id="analytic-pt-underflow",
        ),
        pytest.param(
            lambda: total_scatter_probability(
                UNDERFLOWED, PumpConfig(p0x=1.0), 100.0, mode="numeric"
            ),
            ZeroDispersion,
            id="numeric-pt-underflow",
        ),
        pytest.param(
            lambda: bandwidths(
                FiberParams(gamma=1.0, beta2=1.0, length=1e-300, delta_beta1=1e-100),
                PumpConfig(p0x=1.0),
            ),
            DegenerateBirefringence,
            id="vector-width-underflow",
        ),
        # Subnormal divisors: 1e-320 passes a zero test, but 2*pi/1e-320 overflows.
        pytest.param(
            lambda: _scalar_width(FiberParams(gamma=1.0, beta2=1e-160, length=1e-160)),
            ValueError,
            id="scalar-width-subnormal",
        ),
        pytest.param(
            lambda: lb_peak_and_width(
                FiberParams(gamma=1.0, beta2=1.0, length=1e-320, delta_beta0=1.0),
                PumpConfig(p0x=1.0),
            ),
            ValueError,
            id="lb-width-subnormal-length",
        ),
        # delta*beta2 underflows to 0 although both share a sign, and
        # delta/beta2 overflows.
        pytest.param(
            lambda: lb_peak_and_width(
                FiberParams(gamma=1.0, beta2=1e-200, length=1.0, delta_beta0=1e-200),
                PumpConfig(p0x=1.0),
            ),
            ValueError,
            id="lb-width-product-underflow",
        ),
        # Overflowing products, where a width would round to 0: 2*beta2*delta
        # = 2e400, |beta2|*L = 1e310 and delta_beta1*L = 1e400.
        pytest.param(
            lambda: lb_peak_and_width(
                FiberParams(gamma=3.0, beta2=1e200, length=1e-300, delta_beta0=1e200),
                PumpConfig(p0x=1.0),
            ),
            ValueError,
            id="lb-width-product-overflow",
        ),
        pytest.param(
            lambda: bandwidths(
                FiberParams(gamma=3.0, beta2=1e300, length=1e10, delta_beta1=1.0),
                PumpConfig(p0x=1.0),
            ),
            ValueError,
            id="scalar-width-product-overflow",
        ),
        pytest.param(
            lambda: bandwidths(
                FiberParams(gamma=3.0, beta2=1.0, length=1e200, delta_beta1=1e200),
                PumpConfig(p0x=1.0),
            ),
            DegenerateBirefringence,
            id="vector-width-product-overflow",
        ),
        # Both P_T modes check |beta2|*L by `_scalar_width`: an overflowing
        # or subnormal one is the same input error in either mode.
        *(
            pytest.param(
                lambda fiber=fiber, mode=mode: total_scatter_probability(
                    fiber, PumpConfig(p0x=1.0), 100.0, mode=mode
                ),
                (ValueError, f"^scalar width at \\|beta2\\|\\*L = {dispersion} is not finite"),
                id=f"{mode}-pt-{kind}",
            )
            for kind, fiber, dispersion in (
                ("width-overflow", FiberParams(gamma=3.0, beta2=1e300, length=1e10), "inf"),
                ("subnormal-dispersion", SUBNORMAL_DISPERSION, "1e-320"),
            )
            for mode in ("analytic", "numeric")
        ),
        pytest.param(
            lambda: lb_peak_and_width(
                FiberParams(gamma=1.0, beta2=1e-200, length=1.0, delta_beta0=1e200),
                PumpConfig(p0x=1.0),
            ),
            ValueError,
            id="lb-detuning-overflow",
        ),
        pytest.param(
            lambda: bandwidths(
                FiberParams(gamma=1.0, beta2=1.0, length=1e-160, delta_beta1=1e-160),
                PumpConfig(p0x=1.0),
            ),
            DegenerateBirefringence,
            id="vector-width-subnormal",
        ),
        # (2/3)*(gamma*P*L)^2 * T/sqrt(2*pi*|beta2|*L) = 1.5e311
        pytest.param(
            lambda: total_scatter_probability(
                FiberParams(gamma=3.0, beta2=-20.0, length=0.1), PumpConfig(p0x=3e6), 1e300
            ),
            NumericalFailure,
            id="analytic-pt-overflow",
        ),
        pytest.param(
            lambda: mi_asymptotic_flux(FiberParams(gamma=1.0, beta2=-1.0, length=1e3), 10.0, 1.0),
            NumericalFailure,
            id="mi-asymptote-overflow",
        ),
        pytest.param(
            lambda: alpha_param(UNDERFLOWED_WALK_OFF, PumpConfig(p0x=1.0)),
            DegenerateBirefringence,
            id="alpha-walk-off-underflow",
        ),
        pytest.param(
            lambda: overlapping_regime(UNDERFLOWED_WALK_OFF, PumpConfig(p0x=1.0)),
            DegenerateBirefringence,
            id="overlap-walk-off-underflow",
        ),
        pytest.param(
            lambda: vector_peak_detuning(
                FiberParams(gamma=1.0, beta2=1e-200, length=1.0, delta_beta1=1e200),
                PumpConfig(p0x=1.0),
            ),
            NumericalFailure,
            id="vector-peak-overflow",
        ),
        pytest.param(
            lambda: mi_peak(SUBNORMAL_DISPERSION, 1.0),
            NumericalFailure,
            id="mi-peak-subnormal-beta2",
        ),
        pytest.param(
            lambda: mi_support_edge(SUBNORMAL_DISPERSION, 1.0),
            NumericalFailure,
            id="mi-edge-subnormal-beta2",
        ),
        pytest.param(
            lambda: nonlinear_length(1e-200, 1e-200),
            ZeroPower,
            id="nonlinear-length-underflow",
        ),
        pytest.param(
            lambda: total_scatter_probability(STRONG_FIBER, STRONG_PUMP, 100.0),
            NumericalFailure,
            id="analytic-pt-strong-pump",
        ),
        pytest.param(
            lambda: total_scatter_probability(STRONG_FIBER, STRONG_PUMP, 100.0, mode="numeric"),
            NumericalFailure,
            id="numeric-pt-strong-pump",
        ),
        pytest.param(
            lambda: second_order_quantities(STRONG_FIBER, STRONG_PUMP, 1.0, 100.0),
            NumericalFailure,
            id="second-order-strong-pump",
        ),
        pytest.param(
            lambda: mi_asymptotic_flux(STRONG_FIBER, 1e200, 1.0),
            NumericalFailure,
            id="mi-asymptote-strong-pump",
        ),
        pytest.param(
            lambda: bandwidth_ratio(
                FiberParams(gamma=1e300, beta2=-1.0, length=1.0), 1e300, 1e300
            ),
            NumericalFailure,
            id="bandwidth-ratio-overflow",
        ),
        pytest.param(
            lambda: cpm_phase(1e300, 1e300, 0.0, 1e300),
            NumericalFailure,
            id="xpm-phase-overflow",
        ),
        *(
            pytest.param(
                lambda flux=flux, omega=omega: flux(STRONG_FIBER, STRONG_PUMP, omega),
                NumericalFailure,
                id=f"{flux.__name__}-{kind}-strong-pump",
            )
            for flux in (flux_hb, flux_lb)
            for kind, omega in (("float", 1.0), ("array", np.array([1.0, 2.0])))
        ),
        pytest.param(
            lambda: exact_scalar_flux(STRONG_FIBER, 1e200, 1.0),
            NumericalFailure,
            id="closed-form-strong-pump",
        ),
        pytest.param(
            lambda: lambda_param(STRONG_FIBER, 1e200, 1.0),
            NumericalFailure,
            id="lambda-strong-pump",
        ),
        pytest.param(
            lambda: mi_gain(STRONG_FIBER, 1e200, 1.0),
            NumericalFailure,
            id="mi-gain-strong-pump",
        ),
        pytest.param(
            lambda: mi_gain_curve(STRONG_FIBER, 1e200, FrequencyGrid(-1.0, 1.0, 4)),
            NumericalFailure,
            id="mi-gain-curve-strong-pump",
        ),
        pytest.param(
            lambda: flux_from_matrices(np.full((2, 4, 4), complex(math.nan, 0.0))),
            NumericalFailure,
            id="flux-from-nan-matrices",
        ),
        pytest.param(
            lambda: exact_scalar_flux(HIGH_GAIN, 10.0, 1.0),
            NumericalFailure,
            id="closed-form-high-gain",
        ),
        # every omega number is read by `errors.real`, as `filtered_state`
        # reads its omega, an entry of a sequence included
        pytest.param(
            lambda: exact_scalar_flux(PLAIN, 1.0, 10**400),
            (ValueError, "^omega must be finite, got inf$"),
            id="closed-form-int-omega",
        ),
        pytest.param(
            lambda: exact_lb_orthogonal_flux(PLAIN, 1.0, 10**400),
            (ValueError, "^omega must be finite, got inf$"),
            id="orthogonal-closed-form-int-omega",
        ),
        pytest.param(
            lambda: mi_asymptotic_flux(PLAIN, 1.0, BEYOND),
            (ValueError, "^omega must be finite, got inf$"),
            id="mi-asymptote-int-omega",
        ),
        pytest.param(
            lambda: flux_hb(PLAIN, PumpConfig(p0x=1.0, p0y=0.5), [1.0, BEYOND]),
            (ValueError, "^omega must be finite, got inf$"),
            id="flux_hb-list-int-omega",
        ),
        *(
            pytest.param(call, (ValueError, f"^{re.escape(message)}$"), id=name)
            for name, (call, message) in NAMED_INPUT_ERRORS.items()
        ),
    ],
)
def test_degenerate_and_overflowing_inputs_raise_domain_errors(call, error):
    """A zero or underflowed divisor and a result beyond double range raise the
    documented error, not a bare ZeroDivisionError or OverflowError, nor
    return inf or NaN.  A raw input beyond double range, infinite or not a
    number raises a ValueError naming it, whose message is then given as
    (error, pattern).  numpy's overflow warnings on the way are beside the point."""
    error, match = error if isinstance(error, tuple) else (error, None)
    with np.errstate(all="ignore"), pytest.raises(error, match=match):
        call()


def test_one_detuning_inputs_read_a_numpy_scalar_and_a_channel_value(fig1_fiber, pump_x03):
    """A numpy scalar or 0-d array is one detuning, a Channel's value its member,
    and the MI estimators compute from the float their power converts to."""
    anomalous = FiberParams(gamma=3.0, beta2=-20.0, length=1.0)
    for omega in (np.float64(0.25), np.float32(0.25), np.int64(0), np.array(0.25)):
        expected = second_order_quantities(fig1_fiber, pump_x03, float(omega), 100.0)
        result = second_order_quantities(fig1_fiber, pump_x03, omega, 100.0)
        assert result == expected and type(result.n_mode) is float
        if omega:
            asymptote = mi_asymptotic_flux(anomalous, 0.3, omega)
            assert asymptote == mi_asymptotic_flux(anomalous, 0.3, float(omega))
    for power in (np.float32(0.3), Decimal("0.3"), Fraction(3, 10)):
        peak = mi_peak(fig1_fiber, power)
        assert peak == mi_peak(fig1_fiber, float(power))
        asymptote = mi_asymptotic_flux(fig1_fiber, power, 0.3)
        assert asymptote == mi_asymptotic_flux(fig1_fiber, float(power), 0.3)
        assert [type(value) for value in (*peak, asymptote.value)] == [float, float, float]
    for channel in Channel:
        assert xi_hb(fig1_fiber, pump_x03, channel.value, 0.25) == xi_hb(
            fig1_fiber, pump_x03, channel, 0.25
        )


#: Every entry point whose omega may be an array, as f(omega): HB with a
#: pump on both axes, LB with a pump on x.
ARRAY_OMEGA_CALLS = {
    "flux_hb": lambda omega: flux_hb(_fiber(), PumpConfig(p0x=0.2, p0y=0.1), omega),
    "flux_lb": lambda omega: flux_lb(
        FiberParams(gamma=3.0, beta2=5.0, length=0.15, delta_beta0=2000.0),
        PumpConfig(p0x=1.0),
        omega,
    ),
    "xi_hb": lambda omega: xi_hb(_fiber(), PumpConfig(p0x=0.2, p0y=0.1), Channel.XY, omega),
    "lambda_param": lambda omega: lambda_param(_fiber(beta2=-20.0), 0.3, omega),
    "mi_gain": lambda omega: mi_gain(_fiber(beta2=-20.0), 0.3, omega),
    "exact_scalar_flux": lambda omega: exact_scalar_flux(_fiber(beta2=-20.0), 0.3, omega),
    "exact_lb_orthogonal_flux": lambda omega: exact_lb_orthogonal_flux(
        FiberParams(gamma=3.0, beta2=5.0, length=0.15, delta_beta0=2000.0), 1.0, omega
    ),
    "integrate_transfer_grid": lambda omega: integrate_transfer_grid(
        _fiber(), PumpConfig(p0x=0.2, p0y=0.1), "HB", omega
    ),
}


def _typed(value):
    """value as nested (type, bytes) pairs: equal means equal Python types and bits."""
    if isinstance(value, tuple):
        return tuple(map(_typed, value))
    return type(value), np.asarray(value).tobytes()


@pytest.mark.parametrize("name", sorted(ARRAY_OMEGA_CALLS))
def test_array_omega_entry_points_read_one_number_as_its_float(name):
    """One number of any kind is the Python float `errors.real` makes of it,
    with the value and the Python type of the same call at 1.0; a float inf
    or NaN, and a sequence or an array holding one, raise the ValueError of
    `real`."""
    call = ARRAY_OMEGA_CALLS[name]
    expected = _typed(call(1.0))
    for omega in (np.float32(1.0), np.int64(1), np.array(1.0), Decimal("1"), Fraction(1)):
        assert _typed(call(omega)) == expected, repr(omega)
    for omega, value in (
        (math.inf, "inf"),
        (math.nan, "nan"),
        ([1.0, math.inf], "inf"),
        (np.array([1.0, math.nan]), "nan"),
    ):
        with pytest.raises(ValueError, match=f"^omega must be finite, got {value}$"):
            call(omega)


def test_underflowed_vector_width_raises_with_a_finite_scalar_width():
    for fiber in (
        FiberParams(gamma=1.0, beta2=1.0, length=1e-300, delta_beta1=1e-100),
        FiberParams(gamma=1.0, beta2=1.0, length=1e-160, delta_beta1=1e-160),  # subnormal
    ):
        assert math.isfinite(_scalar_width(fiber))
        with pytest.raises(DegenerateBirefringence):
            bandwidths(fiber, PumpConfig(p0x=1.0))


#: Magnitudes of the estimator fuzz: 0, subnormals, values whose squares or
#: products underflow or overflow, and ordinary values.
EXTREME_MAGNITUDES = (
    0.0, 5e-324, 1e-320, 1e-200, 1e-160, 1e-3, 1.0, 3.0, 1e3, 1e160, 1e200, 1e300
)
extreme_st = st.sampled_from([sign * m for m in EXTREME_MAGNITUDES for sign in (1.0, -1.0)])
#: The same values and +-10**400, Python ints that no float can hold, drawn
#: as often as any one value.
wide_st = st.sampled_from(
    [sign * m for m in EXTREME_MAGNITUDES for sign in (1.0, -1.0)] + [BEYOND, -BEYOND]
)

#: Every estimator of a paper landmark, as f(fiber, pump, a, b, c, d) with
#: four free floats a..d for its scalar arguments.
ESTIMATORS = {
    "alpha_param": lambda fiber, pump, *_: alpha_param(fiber, pump),
    "vector_peak_detuning": lambda fiber, pump, *_: vector_peak_detuning(fiber, pump),
    "overlapping_regime": lambda fiber, pump, *_: overlapping_regime(fiber, pump),
    "bandwidths": lambda fiber, pump, *_: bandwidths(fiber, pump),
    "lb_peak_and_width": lambda fiber, pump, *_: lb_peak_and_width(fiber, pump),
    "nonlinear_length": lambda fiber, pump, a, b, c, d: nonlinear_length(a, b),
    "cpm_phase": lambda fiber, pump, a, b, c, d: cpm_phase(a, b, c, d),
    "mi_peak": lambda fiber, pump, a, *_: mi_peak(fiber, a),
    "mi_support_edge": lambda fiber, pump, a, *_: mi_support_edge(fiber, a),
    "mi_asymptotic_flux": lambda fiber, pump, a, b, *_: mi_asymptotic_flux(fiber, a, b),
    "bandwidth_ratio": lambda fiber, pump, a, b, *_: bandwidth_ratio(fiber, a, b),
    "analytic P_T": lambda fiber, pump, a, *_: total_scatter_probability(fiber, pump, a),
    "numeric P_T": lambda fiber, pump, a, *_: total_scatter_probability(
        fiber, pump, a, mode="numeric"
    ),
    "second_order_quantities": lambda fiber, pump, a, b, *_: second_order_quantities(
        fiber, pump, a, b
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::fps.StimulatedOrderingWarning")
@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(ESTIMATORS)),
    gamma=wide_st,
    beta2=wide_st,
    length=wide_st,
    delta_beta0=wide_st,
    delta_beta1=wide_st,
    p0x=wide_st,
    p0y=wide_st,
    args=st.tuples(wide_st, wide_st, wide_st, wide_st),
)
def test_estimators_give_finite_values_or_documented_errors(
    name, gamma, beta2, length, delta_beta0, delta_beta1, p0x, p0y, args
):
    """Every estimator, and the containers it reads, return finite floats or
    raise a domain error or ValueError, whatever the magnitudes and for a
    Python int beyond double range, never a bare ZeroDivisionError or
    OverflowError, nor inf or NaN."""
    try:
        fiber = FiberParams(
            gamma=abs(gamma),
            beta2=beta2,
            length=abs(length),
            delta_beta0=delta_beta0,
            delta_beta1=delta_beta1,
        )
        pump = PumpConfig(p0x=abs(p0x), p0y=abs(p0y))
        result = ESTIMATORS[name](fiber, pump, *args)
    except (FpsError, ValueError):
        return
    values = result if isinstance(result, tuple) else (result,)
    assert all(math.isfinite(value) for value in values), (name, result)


#: The raw spectra, as f(fiber, pump, power, omega); the fluxes read the
#: pump (LB its x part) and the rest the raw power.  The "[]" forms take an
#: array (or a grid) built from omega, the "[list]" forms a list, which can
#: hold an int beyond double range.
RAW_SPECTRA = {
    "flux_hb": lambda fiber, pump, power, omega: flux_hb(fiber, pump, omega),
    "flux_hb[]": lambda fiber, pump, power, omega: flux_hb(fiber, pump, np.array([omega, 1.0])),
    "flux_hb[list]": lambda fiber, pump, power, omega: flux_hb(fiber, pump, [omega, 1.0]),
    "flux_lb": lambda fiber, pump, power, omega: flux_lb(
        fiber, PumpConfig(p0x=pump.p0x), omega
    ),
    "flux_lb[]": lambda fiber, pump, power, omega: flux_lb(
        fiber, PumpConfig(p0x=pump.p0x), np.array([omega, 1.0])
    ),
    "exact_scalar_flux": lambda fiber, pump, power, omega: exact_scalar_flux(fiber, power, omega),
    "exact_scalar_flux[list]": lambda fiber, pump, power, omega: exact_scalar_flux(
        fiber, power, [omega, 1.0]
    ),
    "exact_lb_orthogonal_flux": lambda fiber, pump, power, omega: exact_lb_orthogonal_flux(
        fiber, power, omega
    ),
    "lambda_param": lambda fiber, pump, power, omega: lambda_param(fiber, power, omega),
    "mi_gain": lambda fiber, pump, power, omega: mi_gain(fiber, power, omega),
    "mi_gain_curve[]": lambda fiber, pump, power, omega: mi_gain_curve(
        fiber, power, FrequencyGrid(-abs(omega), abs(omega), 4)
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(RAW_SPECTRA)),
    gamma=wide_st,
    beta2=wide_st,
    length=wide_st,
    delta_beta0=wide_st,
    p0x=wide_st,
    p0y=wide_st,
    power=wide_st,
    omega=st.one_of(extreme_st, st.sampled_from([BEYOND, -BEYOND])),
)
def test_raw_spectra_give_finite_values_or_documented_errors(
    name, gamma, beta2, length, delta_beta0, p0x, p0y, power, omega
):
    """Every raw spectrum, and the containers it reads, return finite values
    or raise a domain error or ValueError, whatever the magnitudes and for a
    Python int beyond double range, never a bare OverflowError, nor inf or
    NaN."""
    try:
        fiber = FiberParams(
            gamma=abs(gamma), beta2=beta2, length=abs(length), delta_beta0=delta_beta0
        )
        pump = PumpConfig(p0x=abs(p0x), p0y=abs(p0y))
        result = RAW_SPECTRA[name](fiber, pump, abs(power), omega)
    except (FpsError, ValueError):
        return
    if isinstance(result, GainCurve):
        result = (result.lambda_vals, result.gain_vals)
    assert np.isfinite(np.asarray(result, dtype=complex)).all(), (name, result)
