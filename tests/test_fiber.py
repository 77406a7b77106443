import cmath
import math
import random

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
    bandwidth_ratio,
    cpm_phase,
    mi_asymptotic_flux,
    mi_peak,
    mi_support_edge,
    nonlinear_length,
    normalize_convention,
)
from fps import fiber as fiber_module
from fps.fiber import coupling_table

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
@pytest.mark.parametrize("field", ["gamma", "beta2", "length", "delta_beta0", "delta_beta1"])
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


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: FrequencyGrid(-1.0, 1.0, "3"), "n_points"),
        (lambda: FiberParams(gamma="3", beta2=1.0, length=1.0), "gamma"),
        (lambda: PumpConfig(p0x="1"), "p0x"),
        (lambda: PumpConfig(p0x=1.0, duration=1j), "duration"),
    ],
)
def test_containers_reject_non_real_fields(make, field):
    with pytest.raises(ValueError, match=f"{field} must be a real number"):
        make()


def test_omega_list_is_linspace_bit_for_bit():
    """The Python-float grid equals np.linspace, seeded spans of every scale."""
    rng = np.random.default_rng(2026)
    grids = [(-2.0, 2.0, 500), (0.0, 5e-324, 3), (-1e300, 1e300, 7), (-1e300, 1e-300, 2)]
    for _ in range(2000):
        # spans from 1e-15 to 100 times the offset: very narrow to very wide;
        # a negative offset with a span below 1 gives a negative range
        low = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-300, 300))
        span = abs(low) * float(10 ** rng.uniform(-15, 2))
        n_points = int(rng.choice([2, 3, rng.integers(2, 2000)]))
        grids.append((low, low + span, n_points))
    step_zero = 0
    for omega_min, omega_max, n_points in grids:
        if not omega_min < omega_max:
            continue
        grid = FrequencyGrid(omega_min, omega_max, n_points)
        expected = np.linspace(omega_min, omega_max, n_points)
        step_zero += (omega_max - omega_min) / (n_points - 1) == 0
        values = grid.omega_list
        assert all(type(value) is float for value in values)
        assert np.array(values).tobytes() == expected.tobytes(), (omega_min, omega_max, n_points)
    assert step_zero >= 1  # np.linspace's branch for a step that underflows ran


def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(-1.0, 1.0, 1)
    with pytest.raises(ValueError):
        FrequencyGrid(1.0, -1.0, 10)
    for n_points in (2.5, 3.0, np.float64(3.0)):
        with pytest.raises(ValueError, match="n_points"):
            FrequencyGrid(-1.0, 1.0, n_points)
    assert FrequencyGrid(-1.0, 1.0, np.int64(3)).omegas.tolist() == [-1.0, 0.0, 1.0]
    grid = FrequencyGrid(-2.0, 2.0, 5)
    np.testing.assert_allclose(grid.omegas, [-2.0, -1.0, 0.0, 1.0, 2.0])


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


_ANOMALOUS = FiberParams(gamma=1.0, beta2=-1.0, length=1.0)


@pytest.mark.parametrize(
    "func, args, name",
    [
        (nonlinear_length, (-1.0, 1.0), "gamma"),
        (nonlinear_length, (1.0, -1.0), "power"),
        (cpm_phase, (-1.0, 1.0, 0.0, 1.0), "gamma"),
        (cpm_phase, (1.0, -1.0, 0.0, 1.0), "p_same"),
        (cpm_phase, (1.0, 0.0, -1.0, 1.0), "p_orth"),
        (mi_peak, (_ANOMALOUS, -1.0), "power"),
        (mi_support_edge, (_ANOMALOUS, -1.0), "power"),
        (bandwidth_ratio, (_ANOMALOUS, -1.0, 1.0), "power"),
        (bandwidth_ratio, (_ANOMALOUS, 1.0, -1.0), "length"),
        # a normal-dispersion fiber, which a negative gamma*P would give gain
        (mi_asymptotic_flux, (FiberParams(gamma=1.0, beta2=1.0, length=1.0), -1.0, 0.5), "power"),
    ],
)
def test_negative_raw_argument_is_a_named_value_error(func, args, name):
    # Raw floats, unlike the containers, are not validated on construction:
    # a negative one must not give a bare math domain error or a negative
    # length or phase.
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1.0$"):
        func(*args)


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
    # relabeled axes keep the original propagation constants
    # beta_j(W) = beta0j + beta1j*W + (beta2/2)*W^2 up to a term common to
    # both axes, a common phase (beta0y = beta1y = 0 in either labelling)
    def betas(f, w):  # (beta_x(W), beta_y(W))
        quadratic = 0.5 * f.beta2 * w**2
        return f.delta_beta0 + f.delta_beta1 * w + quadratic, quadratic

    for omega in (-3.0, 0.0, 1.7):
        (x_swapped, y_swapped), (x, y) = betas(swapped_fiber, omega), betas(fiber, omega)
        common = swapped_fiber.delta_beta0 + swapped_fiber.delta_beta1 * omega
        assert x_swapped - y == pytest.approx(common, abs=1e-9)
        assert y_swapped - x == pytest.approx(common, abs=1e-9)


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
    assert math.isfinite(nonlinear_length(fiber.gamma, pump.total))


def test_coupling_table_is_reused_for_the_same_objects(fig2_fiber, fig2_pump):
    table = coupling_table(fig2_fiber, fig2_pump, "HB")
    assert coupling_table(fig2_fiber, fig2_pump, "HB") is table
    with pytest.raises(TypeError):
        table[(0, 1)] = table[(2, 3)]
    # equal but distinct objects, or another regime, build a table afresh
    fiber_copy = FiberParams(**vars(fig2_fiber))
    assert coupling_table(fiber_copy, fig2_pump, "HB") is not table
    assert coupling_table(fiber_copy, fig2_pump, "HB") == table
    lb_pump = PumpConfig(p0x=0.3)
    assert len(coupling_table(fig2_fiber, lb_pump, "HB")) == 6
    assert len(coupling_table(fig2_fiber, lb_pump, "LB")) == 2


def test_coupling_table_keeps_the_zero_sign_of_equal_pumps(fig2_fiber):
    # +0.0 == -0.0, so an equality-keyed cache would hand the second pump
    # the first pump's table
    plus, minus = PumpConfig(p0x=0.3, theta0x=0.0), PumpConfig(p0x=0.3, theta0x=-0.0)
    assert plus == minus
    for pump, sign in ((plus, 1.0), (minus, -1.0), (plus, 1.0)):
        theta = coupling_table(fig2_fiber, pump, "HB")[(0, 1)].theta
        assert theta == 0.0 and math.copysign(1.0, theta) == sign


def _coupling(entry):
    """The constant coupling C = i*c*exp(i*theta) of a table entry."""
    return 1j * entry.c * cmath.exp(1j * entry.theta)


def _relabel_residuals(fiber, pump, omega):
    """Residuals of the two relabel identities of the HB table at omega.

    Entry (1,3) at Omega is the a <-> a^dag relabel of (0,2) at -Omega, so
    C13 = conj(C02) and R13(Omega) = -R02(-Omega); entry (2,1) at Omega is
    (0,3) at -Omega.  Returns the three residuals, each exactly 0 when the
    identities hold.
    """
    table = coupling_table(fiber, pump, "HB")
    e02, e13, e03, e21 = (table[key] for key in ((0, 2), (1, 3), (0, 3), (2, 1)))
    return (
        abs(_coupling(e13) - _coupling(e02).conjugate()),
        abs(e13.rate(fiber, omega) + e02.rate(fiber, -omega)),
        abs(_coupling(e21) - _coupling(e03))
        + abs(e21.rate(fiber, omega) - e03.rate(fiber, -omega)),
    )


def _random_hb_sets(count, seed=20240):
    """Seeded HB (fiber, pump, omega) sets with both pump axes on."""
    rng = random.Random(seed)
    for _ in range(count):
        fiber = FiberParams(
            gamma=rng.uniform(0.1, 40.0),
            beta2=rng.uniform(-150.0, 150.0),
            length=rng.uniform(1e-4, 1.0),
            delta_beta0=rng.uniform(-2000.0, 2000.0),
            delta_beta1=rng.uniform(0.0, 400.0),
        )
        pump = PumpConfig(
            p0x=rng.uniform(0.01, 30.0),
            p0y=rng.uniform(0.01, 30.0),
            theta0x=rng.uniform(-math.pi, math.pi),
            theta0y=rng.uniform(-math.pi, math.pi),
        )
        yield fiber, pump, rng.uniform(-40.0, 40.0)


def _sets_breaking_the_relabel_identities(count=500):
    return sum(any(_relabel_residuals(*case)) for case in _random_hb_sets(count))


def test_hb_table_obeys_the_relabel_identities():
    """C13 = conj(C02), R13(W) = -R02(-W) and (2,1)(W) = (0,3)(-W), to the last bit."""
    assert _sets_breaking_the_relabel_identities() == 0


def _nls_rhs(fiber, fields, omega):
    """d/dz of the HB vector-NLS fields at the detunings (-omega, 0, +omega).

    fields[j] holds axis j's (x, then y) amplitudes there, each the
    coefficient of exp(-i w t).  The linear part is i beta_j(w) A_j(w) with
    beta_j(w) = beta0j + beta1j*w + (beta2/2)*w^2, beta0y = 0 and
    beta1y = 0; the Kerr part i gamma (|A_j|^2 + (2/3)|A_k|^2) A_j is
    multiplied out by convolving coefficients and kept at the same three
    detunings, which is exact at linear order in the sidebands.
    """
    intensity = [np.convolve(row[::-1].conj(), row) for row in fields]  # at -2w..2w
    detunings = np.array([-omega, 0.0, omega])
    beta0 = (fiber.delta_beta0, 0.0)
    beta1 = (fiber.delta_beta1, 0.0)
    rhs = np.empty((2, 3), dtype=complex)
    for j in range(2):
        kerr = np.convolve(intensity[j] + (2.0 / 3.0) * intensity[1 - j], fields[j])[2:5]
        linear = beta0[j] + beta1[j] * detunings + 0.5 * fiber.beta2 * detunings**2
        rhs[j] = 1j * linear * fields[j] + 1j * fiber.gamma * kerr
    return rhs


#: (axis, detuning index, conjugated) of a_x(+W), a_x^dag(-W), a_y(+W), a_y^dag(-W).
_BASIS_SLOTS = ((0, 2, False), (0, 0, True), (1, 2, False), (1, 0, True))


def _nls_jacobian(fiber, pump, omega, eps=1e-6):
    """Central-difference Jacobian of the HB vector NLS at the pump-only state.

    Rows and columns are the coupling-table basis, in the frame that turns
    with the pump at its own phase rate psi_j (read from the carrier
    entries of the right-hand side), where the Jacobian does not depend on
    z: C_jk off the diagonal and i*phi_j on it, with R_jk = phi_k - phi_j.
    """
    pump_fields = np.zeros((2, 3), dtype=complex)
    pump_fields[:, 1] = [
        cmath.rect(math.sqrt(pump.p0x), pump.theta0x),
        cmath.rect(math.sqrt(pump.p0y), pump.theta0y),
    ]
    psi = (_nls_rhs(fiber, pump_fields, omega)[:, 1] / (1j * pump_fields[:, 1])).real

    def seeded_rhs(column, seed):
        fields = pump_fields.copy()
        axis, slot, _ = _BASIS_SLOTS[column]
        fields[axis, slot] = seed  # real, so a_dag and a take the same seed
        rhs = _nls_rhs(fiber, fields, omega)
        return np.array(
            [rhs[a, w].conjugate() if dag else rhs[a, w] for a, w, dag in _BASIS_SLOTS]
        )

    jacobian = np.column_stack(
        [(seeded_rhs(k, eps) - seeded_rhs(k, -eps)) / (2.0 * eps) for k in range(4)]
    )
    return jacobian - 1j * np.diag([psi[0], -psi[0], psi[1], -psi[1]])


def _jacobian_gap(fiber, pump, omega):
    """Largest relative gap between the NLS Jacobian and the HB table at omega.

    Each entry's C_jk and its Bogoliubov mirror C_kj = -J_j J_k conj(C_jk)
    are compared on the scale gamma*(P0x + P0y); R_jk, and so R_kj = -R_jk,
    on the scale of the largest phase rate.
    """
    jacobian = _nls_jacobian(fiber, pump, omega)
    phi = jacobian.diagonal().imag
    metric = (1.0, -1.0, 1.0, -1.0)
    coupling_scale = fiber.gamma * pump.total
    rate_scale = coupling_scale + abs(phi).max()
    gaps = []
    for (j, k), entry in coupling_table(fiber, pump, "HB").items():
        c = _coupling(entry)
        gaps.append(abs(jacobian[j, k] - c) / coupling_scale)
        gaps.append(abs(jacobian[k, j] + metric[j] * metric[k] * c.conjugate()) / coupling_scale)
        gaps.append(abs(phi[k] - phi[j] - entry.rate(fiber, omega)) / rate_scale)
    return max(gaps)


def _sets_off_the_nls_jacobian(count=200):
    return sum(_jacobian_gap(*case) > 1e-9 for case in _random_hb_sets(count))


def test_hb_table_is_the_vector_nls_jacobian():
    """Every HB C_jk and R_jk, and their mirrors, match the NLS Jacobian to 1e-9."""
    assert _sets_off_the_nls_jacobian() == 0


#: Wrong frequency-conversion entries that pass every other tier-1 test,
#: each a function of the HB table and the pump that returns the replaced
#: entries: the (0,2) phase theta0x + theta0y for theta0x - theta0y, half
#: the (0,2) coupling, and the Kerr sign flipped in both (0,2) and (1,3).
CONVERSION_MUTANTS = {
    "phase-sum": lambda table, pump: {
        (0, 2): table[(0, 2)]._replace(theta=pump.theta0x + pump.theta0y)
    },
    "coupling-halved": lambda table, pump: {(0, 2): table[(0, 2)]._replace(c=table[(0, 2)].c / 2)},
    "kerr-flipped": lambda table, pump: {
        key: table[key]._replace(k=-table[key].k) for key in ((0, 2), (1, 3))
    },
}


def _install_mutant(monkeypatch, name):
    """Build the mutant `name` into every HB table."""
    original = fiber_module._table_entries

    def mutated(fiber, pump, regime):
        table = original(fiber, pump, regime)
        if regime == "HB":
            table.update(CONVERSION_MUTANTS[name](table, pump))
        return table

    monkeypatch.setattr(fiber_module, "_table_entries", mutated)
    monkeypatch.setattr(fiber_module, "_last_table", None)


@pytest.mark.parametrize("name", ["coupling-halved", "phase-sum"])
def test_relabel_identities_reject_conversion_mutants(monkeypatch, name):
    """Each mutant, built into every HB table, breaks an identity on all 50 sets."""
    _install_mutant(monkeypatch, name)
    assert _sets_breaking_the_relabel_identities(50) == 50


@pytest.mark.parametrize("name", sorted(CONVERSION_MUTANTS))
def test_nls_jacobian_rejects_conversion_mutants(monkeypatch, name):
    """Each mutant leaves the NLS Jacobian on all 50 sets; the paired Kerr
    flip keeps both relabel identities, so only the Jacobian sees it."""
    _install_mutant(monkeypatch, name)
    assert _sets_off_the_nls_jacobian(50) == 50
    if name == "kerr-flipped":
        assert _sets_breaking_the_relabel_identities(50) == 0
