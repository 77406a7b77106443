import math

import numpy as np
import pytest

from fps import (
    Channel,
    FiberParams,
    PumpConfig,
    PumpNotOnAxis,
    flux_lb,
    flux_hb,
    lb_peak_and_width,
)
from fps.fiber import coupling_table
from fps.hb import first_order_amplitude

TWO_PI = 2.0 * math.pi


def _xi_yy(fiber, pump, omega):
    """LB amplitude of the (2, 3) entry: the orthogonal channel for an x pump."""
    entry = coupling_table(fiber, pump, "LB")[Channel.YY.value]
    return first_order_amplitude(entry, fiber, omega)


def _phase_matched_omega(fiber, p0):
    # root of beta2 W^2 - (2/3) gamma P0 - 2 delta_beta0 = 0
    return math.sqrt(
        ((2.0 / 3.0) * fiber.gamma * p0 + 2.0 * fiber.delta_beta0) / fiber.beta2
    )


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
