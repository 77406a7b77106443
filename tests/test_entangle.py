import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fps import (
    BASIS,
    BELL_CONCURRENCE_MIN,
    EmptyState,
    FiberParams,
    FilteredPairState,
    NumericalFailure,
    PumpConfig,
    PumpNotOnAxis,
    StimulatedOrderingWarning,
    bell_phase,
    classify,
    concurrence,
    filtered_state,
    second_order_quantities,
    total_scatter_probability,
)


def _handmade_state(coeffs) -> FilteredPairState:
    c = np.asarray(coeffs, dtype=complex)
    c = c / np.linalg.norm(c)
    return FilteredPairState(omega=1.0, coeffs=c, norm=1.0, generation_probability=0.0)


def test_basis_order():
    assert BASIS == ("xx", "yy", "xy", "yx")


def test_state_is_normalized(fig2_fiber, fig2_pump):
    state = filtered_state(fig2_fiber, fig2_pump, "HB", 1.0, 100.0)
    assert np.sum(np.abs(state.coeffs) ** 2) == pytest.approx(1.0, rel=1e-12)
    assert state.generation_probability == pytest.approx(state.norm**2 / 100.0)


def test_generation_probability_scales_with_duration(fig2_fiber, fig2_pump):
    p_short = filtered_state(fig2_fiber, fig2_pump, "HB", 1.0, 50.0)
    p_long = filtered_state(fig2_fiber, fig2_pump, "HB", 1.0, 200.0)
    assert p_short.generation_probability == pytest.approx(
        4.0 * p_long.generation_probability
    )


def test_vector_peak_is_product_yx(fig2_fiber, fig2_pump):
    # YX channel phase matched where 15 w^2 - 200 w + 0.9 = 0
    omega = (200.0 + math.sqrt(200.0**2 - 4.0 * 15.0 * 0.9)) / 30.0
    state = filtered_state(fig2_fiber, fig2_pump, "HB", omega, 100.0)
    report = classify(state)
    assert report.classification == "product-yx"
    assert report.concurrence <= 0.01


def test_anomalous_vector_peak_is_product_xy(fig2_pump):
    fiber = FiberParams(gamma=3.0, beta2=-15.0, length=0.2, delta_beta1=200.0)
    omega = (200.0 + math.sqrt(200.0**2 + 4.0 * 15.0 * 0.9)) / 30.0
    report = classify(filtered_state(fiber, fig2_pump, "HB", omega, 100.0))
    assert report.classification == "product-xy"
    assert report.concurrence <= 0.01


def test_equal_split_low_detuning_is_bell_like(fig2_fiber, fig2_pump):
    state = filtered_state(fig2_fiber, fig2_pump, "HB", 1.0, 100.0)
    report = classify(state)
    assert report.classification == "bell-like"
    assert report.concurrence >= BELL_CONCURRENCE_MIN
    assert report.relative_phase == pytest.approx(0.0, abs=1e-12)
    # the two scalar coefficients carry essentially all the weight, equally
    weights = np.abs(state.coeffs) ** 2
    assert weights[0] == pytest.approx(0.5, abs=1e-3)
    assert weights[1] == pytest.approx(0.5, abs=1e-3)


def test_unequal_split_is_partial(fig2_fiber):
    pump = PumpConfig(p0x=0.25, p0y=0.05)
    report = classify(filtered_state(fig2_fiber, pump, "HB", 1.0, 100.0))
    assert report.classification == "partial"
    assert 0.0 < report.concurrence < BELL_CONCURRENCE_MIN


def test_scalar_only_pump(fig2_fiber):
    pump = PumpConfig(p0x=0.3)
    report = classify(filtered_state(fig2_fiber, pump, "HB", 1.0, 100.0))
    assert report.classification == "scalar-only-x"
    assert math.isnan(report.relative_phase)


def test_classify_handmade_product_state():
    report = classify(_handmade_state([0.0, 0.0, 0.0, 1.0]))
    assert report.classification == "product-yx"
    assert report.concurrence == 0.0
    assert math.isnan(report.relative_phase)


def test_classify_handmade_bell_state():
    phi = 2.2
    report = classify(_handmade_state([1.0, np.exp(1j * phi), 0.0, 0.0]))
    assert report.classification == "bell-like"
    assert report.concurrence == pytest.approx(1.0, rel=1e-12)
    assert report.relative_phase == pytest.approx(phi, abs=1e-12)


def test_classify_tolerance_controls_significance():
    state = _handmade_state([1.0, 0.05, 0.0, 0.0])  # |c_yy|^2 = 2.5e-3
    assert classify(state, tol=1e-3).classification == "partial"
    assert classify(state, tol=1e-2).classification == "scalar-only-x"


def test_empty_state_for_dark_pump(fig2_fiber):
    with pytest.raises(EmptyState):
        filtered_state(fig2_fiber, PumpConfig(p0x=0.0), "HB", 1.0, 100.0)


def test_non_finite_state_raises_instead_of_classifying():
    # gamma*P0*L = 1e400 overflows: NaN amplitudes, which classify used to
    # label "partial" with a NaN concurrence
    fiber = FiberParams(gamma=1e200, beta2=-20.0, length=1.0)
    with pytest.raises(NumericalFailure):
        filtered_state(fiber, PumpConfig(p0x=1e200), "HB", 1.0, 100.0)


def test_filtered_state_argument_validation(fig2_fiber, fig2_pump):
    with pytest.raises(ValueError):
        filtered_state(fig2_fiber, fig2_pump, "HB", -1.0, 100.0)
    with pytest.raises(ValueError):
        filtered_state(fig2_fiber, fig2_pump, "HB", 1.0, 0.0)
    with pytest.raises(ValueError):
        filtered_state(fig2_fiber, fig2_pump, "circular", 1.0, 100.0)


def test_lb_state_is_scalar_pair(fig4a_fiber, pump_x1):
    omega = math.sqrt(2.0 * 2000.0 / 5.0)  # orthogonal-channel matching point
    state = filtered_state(fig4a_fiber, pump_x1, "LB", omega, 100.0)
    assert np.all(state.coeffs[2:] == 0.0)
    with pytest.raises(PumpNotOnAxis):
        filtered_state(fig4a_fiber, PumpConfig(p0x=1.0, p0y=1.0), "LB", omega, 100.0)


def test_bell_phase_values():
    assert bell_phase(PumpConfig(p0x=0.1, p0y=0.1)) == 0.0
    quarter = PumpConfig(p0x=0.1, p0y=0.1, theta0x=0.0, theta0y=math.pi / 4)
    assert bell_phase(quarter) == pytest.approx(math.pi / 2)
    opposite = PumpConfig(p0x=0.1, p0y=0.1, theta0x=0.0, theta0y=math.pi)
    assert bell_phase(opposite) == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=80)
@given(
    tx=st.floats(min_value=-10.0, max_value=10.0),
    ty=st.floats(min_value=-10.0, max_value=10.0),
)
def test_bell_phase_stays_in_principal_interval(tx, ty):
    phase = bell_phase(PumpConfig(p0x=0.1, p0y=0.1, theta0x=tx, theta0y=ty))
    assert -math.pi < phase <= math.pi


@settings(max_examples=60)
@given(
    parts=st.lists(
        st.floats(min_value=-1.0, max_value=1.0), min_size=8, max_size=8
    ).filter(lambda p: sum(v * v for v in p) > 1e-6),
    alpha=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_concurrence_ignores_global_phase(parts, alpha):
    c = np.array(parts[:4]) + 1j * np.array(parts[4:])
    c = c / np.linalg.norm(c)
    assert concurrence(c * np.exp(1j * alpha)) == pytest.approx(
        concurrence(c), abs=1e-12
    )


def test_relative_phase_tracks_pump_phases(fig2_fiber):
    """For an equal split the measured phase equals 2*(theta0y - theta0x)."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        tx, ty = rng.uniform(-math.pi, math.pi, size=2)
        pump = PumpConfig(p0x=0.15, p0y=0.15, theta0x=tx, theta0y=ty)
        report = classify(filtered_state(fig2_fiber, pump, "HB", 1.0, 100.0))
        assert abs(report.relative_phase - bell_phase(pump)) < 1e-9


def test_second_order_occupancy(fig1_fiber, pump_x03):
    result = second_order_quantities(fig1_fiber, pump_x03, 0.0, 100.0)
    p_t = total_scatter_probability(fig1_fiber, pump_x03, 100.0)
    assert result.p_any_pair == p_t
    d = 0.08987854919801104**2 / 100.0
    assert result.n_mode == pytest.approx(d * (1.0 + p_t + d), rel=1e-9)
    # corrections are positive and small against the first-order term
    assert 0.0 < result.n_mode - d < 0.2 * d


def test_second_order_warns_when_stimulated_term_dominates(fig1_fiber, pump_x03):
    with pytest.raises(ValueError):
        second_order_quantities(fig1_fiber, pump_x03, 0.0, -1.0)
    with pytest.raises(PumpNotOnAxis):
        second_order_quantities(fig1_fiber, PumpConfig(p0x=0.1, p0y=0.1), 0.0, 100.0)
    with pytest.warns(StimulatedOrderingWarning):
        second_order_quantities(fig1_fiber, pump_x03, 0.0, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        second_order_quantities(fig1_fiber, pump_x03, 0.0, 100.0)
