import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fps import (
    DegenerateBirefringence,
    FiberParams,
    FrequencyGrid,
    PumpConfig,
    ZeroPower,
    alpha_param,
    beta,
    cpm_phase,
    nonlinear_length,
    normalize_convention,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e3, max_value=1e3)
positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def test_fiber_rejects_negative_gamma_and_length():
    with pytest.raises(ValueError):
        FiberParams(gamma=-1.0, beta2=1.0, length=0.1)
    with pytest.raises(ValueError):
        FiberParams(gamma=1.0, beta2=1.0, length=-0.1)


def test_degenerate_fiber_limits_are_representable():
    # gamma=0 and L=0 stay constructible for the linear/zero-length limits
    FiberParams(gamma=0.0, beta2=1.0, length=0.1)
    FiberParams(gamma=1.0, beta2=1.0, length=0.0)


def test_pump_validation():
    with pytest.raises(ValueError):
        PumpConfig(p0x=-0.1)
    with pytest.raises(ValueError):
        PumpConfig(p0x=0.1, p0y=-0.1)
    with pytest.raises(ValueError):
        PumpConfig(p0x=0.1, duration=0.0)
    assert PumpConfig(p0x=0.1, p0y=0.2).total == pytest.approx(0.3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field", ["gamma", "beta2", "length", "delta_beta0", "delta_beta1", "beta1_ref"]
)
def test_fiber_rejects_non_finite_fields(field, bad):
    fields = dict(gamma=3.0, beta2=-20.0, length=0.1)
    with pytest.raises(ValueError, match=field):
        FiberParams(**{**fields, field: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["p0x", "p0y", "theta0x", "theta0y", "duration"])
def test_pump_rejects_non_finite_fields(field, bad):
    with pytest.raises(ValueError, match=field):
        PumpConfig(**{"p0x": 0.3, field: bad})


@pytest.mark.parametrize("bounds", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
def test_grid_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="must be finite"):
        FrequencyGrid(*bounds, 10)


def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(-1.0, 1.0, 1)
    with pytest.raises(ValueError):
        FrequencyGrid(1.0, -1.0, 10)
    grid = FrequencyGrid(-2.0, 2.0, 5)
    assert grid.spacing == pytest.approx(1.0)
    assert grid.is_symmetric
    np.testing.assert_allclose(grid.omegas, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert not FrequencyGrid(-1.0, 2.0, 5).is_symmetric


def test_beta_quadratic_term():
    fiber = FiberParams(gamma=3.0, beta2=20.0, length=0.1)
    assert beta(fiber, "y", 2.0) == pytest.approx(40.0)


def test_beta_axis_difference_examples():
    fiber = FiberParams(
        gamma=3.0, beta2=15.0, length=0.1, delta_beta0=7.0, delta_beta1=200.0
    )
    assert beta(fiber, "x", 0.0) - beta(fiber, "y", 0.0) == pytest.approx(7.0)
    assert beta(fiber, "x", 1.0) - beta(fiber, "y", 1.0) == pytest.approx(207.0)


def test_beta_rejects_unknown_axis():
    fiber = FiberParams(gamma=3.0, beta2=15.0, length=0.1)
    with pytest.raises(ValueError):
        beta(fiber, "z", 0.0)


@given(db0=finite, db1=finite, b2=finite, b1r=finite, omega=finite)
def test_beta_difference_is_linear(db0, db1, b2, b1r, omega):
    fiber = FiberParams(
        gamma=1.0, beta2=b2, length=0.1,
        delta_beta0=db0, delta_beta1=db1, beta1_ref=b1r,
    )
    diff = beta(fiber, "x", omega) - beta(fiber, "y", omega)
    # the quadratic and beta1_ref terms cancel up to roundoff in the
    # canceled magnitudes, leaving the mismatch line db0 + db1*omega
    scale = 1.0 + abs(b2) * omega**2 + abs(b1r * omega)
    assert diff == pytest.approx(db0 + db1 * omega, rel=1e-12, abs=1e-12 * scale)


def test_alpha_values():
    fib3 = FiberParams(gamma=36.0, beta2=-139.0, length=1e-4, delta_beta1=400.0)
    assert alpha_param(fib3, PumpConfig(p0x=20.0, p0y=20.0)) == pytest.approx(-1.251)
    fib2 = FiberParams(gamma=3.0, beta2=15.0, length=0.2, delta_beta1=200.0)
    assert alpha_param(fib2, PumpConfig(p0x=0.15, p0y=0.15)) == pytest.approx(3.375e-4)
    assert alpha_param(fib2, PumpConfig(p0x=0.0, p0y=0.0)) == 0.0


def test_alpha_requires_birefringence():
    fiber = FiberParams(gamma=3.0, beta2=15.0, length=0.2)
    with pytest.raises(DegenerateBirefringence):
        alpha_param(fiber, PumpConfig(p0x=0.1))


@given(power=positive, scale=positive, b2=positive)
def test_alpha_linear_in_power_and_odd_in_beta2(power, scale, b2):
    pump = PumpConfig(p0x=power)
    pump_scaled = PumpConfig(p0x=power * scale)
    fib = FiberParams(gamma=2.0, beta2=b2, length=0.1, delta_beta1=50.0)
    fib_neg = FiberParams(gamma=2.0, beta2=-b2, length=0.1, delta_beta1=50.0)
    a = alpha_param(fib, pump)
    assert alpha_param(fib, pump_scaled) == pytest.approx(a * scale, rel=1e-12)
    assert alpha_param(fib_neg, pump) == pytest.approx(-a, rel=1e-12)


def test_nonlinear_length_values():
    assert nonlinear_length(3.0, 0.3) == pytest.approx(1.0 / 0.9)
    assert nonlinear_length(3.0, 1.0) == pytest.approx(1.0 / 3.0)
    assert nonlinear_length(36.0, 40.0) == pytest.approx(6.944e-4, rel=1e-3)
    with pytest.raises(ZeroPower):
        nonlinear_length(3.0, 0.0)
    with pytest.raises(ZeroPower):
        nonlinear_length(0.0, 1.0)


def test_cpm_phase_values():
    assert cpm_phase(3.0, 0.3, 0.0, 0.0) == 0.0
    assert cpm_phase(3.0, 0.3, 0.0, 0.1) == pytest.approx(0.18)
    assert cpm_phase(3.0, 0.0, 0.3, 0.1) == pytest.approx(0.06)
    with pytest.raises(ValueError):
        cpm_phase(3.0, 0.3, 0.0, -0.1)


def test_normalize_convention_swaps_axes():
    fiber = FiberParams(
        gamma=3.0, beta2=15.0, length=0.2, delta_beta0=100.0, delta_beta1=-200.0
    )
    pump = PumpConfig(p0x=0.1, p0y=0.2, theta0x=0.3, theta0y=0.4)
    swapped_fiber, swapped_pump = normalize_convention(fiber, pump)
    assert swapped_fiber.delta_beta1 == 200.0
    assert swapped_fiber.delta_beta0 == -100.0
    assert swapped_pump.p0x == 0.2 and swapped_pump.p0y == 0.1
    assert swapped_pump.theta0x == 0.4 and swapped_pump.theta0y == 0.3
    # relabeled axes keep the original propagation constants up to one
    # omega-independent common offset (beta0y is pinned to 0 by convention)
    offset = beta(swapped_fiber, "x", 0.0) - beta(fiber, "y", 0.0)
    for omega in (-3.0, 0.0, 1.7):
        assert beta(swapped_fiber, "x", omega) - beta(fiber, "y", omega) == (
            pytest.approx(offset, abs=1e-9)
        )
        assert beta(swapped_fiber, "y", omega) - beta(fiber, "x", omega) == (
            pytest.approx(offset, abs=1e-9)
        )


def test_normalize_convention_is_identity_for_positive_mismatch():
    fiber = FiberParams(gamma=3.0, beta2=15.0, length=0.2, delta_beta1=200.0)
    pump = PumpConfig(p0x=0.1)
    same_fiber, same_pump = normalize_convention(fiber, pump)
    assert same_fiber == fiber
    assert same_pump == pump


def test_operations_are_pure():
    fiber = FiberParams(gamma=3.0, beta2=-20.0, length=0.1, delta_beta1=10.0)
    pump = PumpConfig(p0x=0.3)
    assert alpha_param(fiber, pump) == alpha_param(fiber, pump)
    assert beta(fiber, "x", 1.3) == beta(fiber, "x", 1.3)
    assert math.isfinite(nonlinear_length(fiber.gamma, pump.total))
