import math
import re
import warnings
from dataclasses import replace

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
    flux_hb,
    flux_lb,
    integrate_transfer_grid,
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
    # tol passes the one conversion rule: no label from a NaN or a bool
    for tol, message in [
        (math.nan, "tol must be finite, got nan"),
        (math.inf, "tol must be finite, got inf"),
        (True, "tol must be a real number, got True"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            classify(state, tol=tol)


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
    # omega passes the one conversion rule before it is compared
    for omega, message in [
        ("a", "omega must be a real number, got 'a'"),
        (True, "omega must be a real number, got True"),
        (math.inf, "omega must be finite, got inf"),
        (math.nan, "omega must be finite, got nan"),
        (10**400, "omega must be finite, got inf"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            filtered_state(fig2_fiber, fig2_pump, "HB", omega, 100.0)


def test_lb_state_is_scalar_pair(fig4a_fiber, pump_x1):
    omega = math.sqrt(2.0 * 2000.0 / 5.0)  # orthogonal-channel matching point
    state = filtered_state(fig4a_fiber, pump_x1, "LB", omega, 100.0)
    assert state.coeffs[2:] == (0j, 0j)
    with pytest.raises(PumpNotOnAxis):
        filtered_state(fig4a_fiber, PumpConfig(p0x=1.0, p0y=1.0), "LB", omega, 100.0)


def test_bell_phase_values():
    assert bell_phase(PumpConfig(p0x=0.1, p0y=0.1)) == 0.0
    quarter = PumpConfig(p0x=0.1, p0y=0.1, theta0x=0.0, theta0y=math.pi / 4)
    assert bell_phase(quarter) == pytest.approx(math.pi / 2)
    opposite = PumpConfig(p0x=0.1, p0y=0.1, theta0x=0.0, theta0y=math.pi)
    assert bell_phase(opposite) == pytest.approx(0.0, abs=1e-15)


def test_bell_phase_maps_minus_pi_to_pi():
    # 2*(theta0y - theta0x) = -pi exactly, which math.remainder keeps as -pi
    assert bell_phase(PumpConfig(p0x=1.0, theta0y=-math.pi / 2)) == math.pi


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


@settings(max_examples=200)
@given(
    parts=st.lists(
        st.floats(min_value=-1.0, max_value=1.0), min_size=8, max_size=8
    ).filter(lambda p: sum(v * v for v in p) > 1e-6),
)
def test_concurrence_is_twice_the_linear_entropy_of_the_reduced_state(parts):
    """C^2 = 2(1 - Tr rho_A^2) for a normalized pure two-qubit state.

    Wootters, PRL 80, 2245 (1998) gives the pure-state concurrence
    2|c_xx c_yy - c_xy c_yx|; Rungta et al., PRA 64, 042315 (2001) give it
    from the reduced state rho_A = M M^dag of the 2x2 coefficient matrix M,
    rows the anti-Stokes axis and columns the Stokes axis.  The oracle forms
    no determinant, so a sign slip in `concurrence` shows here.
    """
    c = np.array(parts[:4]) + 1j * np.array(parts[4:])
    c_xx, c_yy, c_xy, c_yx = (complex(v) for v in c / np.linalg.norm(c))
    matrix = np.array([[c_xx, c_xy], [c_yx, c_yy]])
    rho_a = matrix @ matrix.conj().T
    linear_entropy = 1.0 - np.trace(rho_a @ rho_a).real
    conc = concurrence((c_xx, c_yy, c_xy, c_yx))
    assert abs(conc * conc - 2.0 * linear_entropy) <= 1e-12


#: (fiber, pump, regime, flux) of the pair-probability oracle: HB with a
#: two-axis pump and nonzero phases, LB with the pump on x and on y.
_LB_FIBER = FiberParams(gamma=3.0, beta2=5.0, length=0.15, delta_beta0=2000.0)
PROBABILITY_CASES = {
    "hb-two-axis-phases": (
        FiberParams(gamma=3.0, beta2=15.0, length=0.2, delta_beta1=200.0),
        PumpConfig(p0x=0.15, p0y=0.1, theta0x=0.3, theta0y=-0.4),
        "HB",
        flux_hb,
    ),
    "lb-x-pump": (_LB_FIBER, PumpConfig(p0x=1.0, theta0x=0.7), "LB", flux_lb),
    "lb-y-pump": (_LB_FIBER, PumpConfig(p0x=0.0, p0y=1.0, theta0y=-0.5), "LB", flux_lb),
}


@pytest.mark.parametrize("case", sorted(PROBABILITY_CASES))
def test_generation_probability_is_the_pair_flux_in_one_mode(case):
    """generation_probability * T = 2 pi (f_x + f_y) at the same Omega.

    The state and the spectra read the same four amplitudes, so the pair
    probability of one mode, of width 2 pi/T, is the summed flux density
    times that width.
    """
    fiber, pump, regime, flux = PROBABILITY_CASES[case]
    duration = 100.0
    for omega in np.linspace(0.05, 32.0, 200).tolist():
        state = filtered_state(fiber, pump, regime, omega, duration)
        f_x, f_y = flux(fiber, pump, omega)
        expected = 2.0 * math.pi * (f_x + f_y)
        assert state.generation_probability * duration == pytest.approx(expected, rel=1e-13)


#: (fiber, pump, regime, omega) of the exact-moment oracle: HB with a vector
#: admixture, with an unequal split and with an axis relabel (delta_beta1 <
#: 0), all with pump phases; LB with the pump on x and on y.
EXACT_CASES = {
    "hb-vector-admixture": (
        FiberParams(gamma=3.0, beta2=15.0, length=0.2, delta_beta1=200.0),
        PumpConfig(p0x=0.15, p0y=0.15, theta0x=0.3, theta0y=-0.4), "HB", 20.0,
    ),
    "hb-unequal-split": (
        FiberParams(gamma=3.0, beta2=15.0, length=0.2, delta_beta1=200.0),
        PumpConfig(p0x=0.25, p0y=0.05, theta0x=0.3, theta0y=-0.4), "HB", 1.0,
    ),
    "hb-relabeled": (
        FiberParams(gamma=3.0, beta2=15.0, length=0.2, delta_beta0=40.0, delta_beta1=-200.0),
        PumpConfig(p0x=0.1, p0y=0.2, theta0x=0.3, theta0y=-0.5), "HB", 3.0,
    ),
    "lb-x-pump": (_LB_FIBER, PumpConfig(p0x=1.0, theta0x=0.3), "LB", math.sqrt(800.0)),
    "lb-y-pump": (_LB_FIBER, PumpConfig(p0x=0.0, p0y=1.0, theta0y=0.7), "LB", 20.0),
}


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_exact_pair_moments_converge_to_classify(case):
    """The exact pair state's concurrence, label and phase tend to `classify`'s as g -> 0.

    The output vacuum's anomalous moments K_jk = <a_j(+W) a_k(-W)>
    (Braunstein and van Loock, RMP 77, 513 (2005)) are
    M[j,0] conj(M[k',0]) + M[j,2] conj(M[k',2]) of the transfer matrix, with
    j = 0 (x) or 2 (y) the anti-Stokes row and k' = 1 (x) or 3 (y) the
    creation row of the Stokes axis.  M is taken as `integrate_transfer_grid`
    returns it, in the frame of the first-order amplitudes
    xi = integral C exp(i R z) dz, its first Magnus term: the propagation
    phases exp(i beta_j L) are not in M, and its factor diag(exp(-i phi L))
    belongs to that frame (without it arg(K_yy/K_xx) moves by (R01 - R23) L,
    which does not vanish with the power).

    The tolerance is the first neglected order: K = xi (1 + O(g)) with
    g = gamma*P0*L, taken with unit coefficient.  Normalizing then moves the
    coefficients by at most 2g, the concurrence |c^T J c| (||J|| = 1) by at
    most |c - c'| |c + c'| <= 4g, and arg c_j by at most (pi/2) 2g/|c_j|.
    The exact concurrence is 2|det K| / |K|^2, not `concurrence`.
    """
    fiber, pump, regime, omega = EXACT_CASES[case]
    for scale in (1e-1, 1e-2, 1e-3):
        weak = replace(pump, p0x=scale * pump.p0x, p0y=scale * pump.p0y)
        g = fiber.gamma * weak.total * fiber.length
        state = filtered_state(fiber, weak, regime, omega, 100.0)
        m = integrate_transfer_grid(fiber, weak, regime, [omega])[0][0]
        moments = np.array([
            [m[j, 0] * np.conj(m[k, 0]) + m[j, 2] * np.conj(m[k, 2]) for k in (1, 3)]
            for j in (0, 2)
        ])
        moments /= np.linalg.norm(moments)
        (k_xx, k_xy), (k_yx, k_yy) = moments.tolist()
        exact = classify(FilteredPairState(omega, (k_xx, k_yy, k_xy, k_yx), 1.0, 0.0))
        report = classify(state)
        assert abs(2.0 * abs(np.linalg.det(moments)) - report.concurrence) <= 4.0 * g
        assert exact.classification == report.classification
        c_xx, c_yy = state.coeffs[:2]
        if c_xx != 0 and c_yy != 0:
            drift = math.remainder(exact.relative_phase - report.relative_phase, math.tau)
            assert abs(drift) <= math.pi * g * (1.0 / abs(c_xx) + 1.0 / abs(c_yy))


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


@pytest.mark.parametrize("duration", [math.nan, math.inf])
def test_second_order_rejects_non_finite_duration(fig1_fiber, pump_x03, duration):
    with pytest.raises(ValueError, match="duration"):
        second_order_quantities(fig1_fiber, pump_x03, 0.0, duration)


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
