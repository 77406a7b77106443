"""The Python-float paths against the array paths, bit for bit.

A float omega runs `Coupling.rate` and `first_order_amplitude`, its sinc
envelope included, in Python floats (math.sin, cmath.exp) instead of
numpy.  These tests pin that path to element 0 of the same call on a
one-point array, bit for bit, and the filtered pair state built from it,
with its `classify` phase, to the same built from array-path amplitudes;
the state and the HB/LB fluxes must read the four amplitudes of
`hb.pair_amplitudes`, the fluxes through `fiber.pair_fluxes` with |xi|^2
as re*re + im*im on both paths.  `coupling_table` reuses its last table
for the same objects, so interleaved calls must match calls on fresh
objects.  The state's |xi| and its complex divisions are Python helpers
that reproduce numpy's complex abs and division, pinned here over the
double range; the MI eigenvalue `lambda_param` at a float omega is pinned
to the array path as well.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from fps import (
    FiberParams,
    NumericalFailure,
    PumpConfig,
    classify,
    filtered_state,
    flux_hb,
    flux_lb,
)
import fps.entangle
from fps.entangle import _abs, _divide
from fps.fiber import _PAIR_ENTRIES, Coupling, FrequencyGrid, coupling_table, lambda_param
from fps.hb import first_order_amplitude, pair_amplitudes

N_SETS = 2000


def _bits(value) -> bytes:
    return np.complex128(value).tobytes()


def _coeff_bits(coeffs) -> bytes:
    return np.array(coeffs, dtype=complex).tobytes()


def _abs2(xi: np.ndarray) -> np.ndarray:
    """|xi|^2 written out as re*re + im*im."""
    return xi.real * xi.real + xi.imag * xi.imag


def _draw(rng: np.random.Generator, index: int):
    """One seeded (fiber, pump, regime, omega) set, HB and LB alternating.

    Every other pair of LB sets moves the pump to y, so the orthogonal
    entry runs with d = +2 as well as d = -2.
    """
    regime = "HB" if index % 2 == 0 else "LB"
    fiber = FiberParams(
        gamma=10 ** rng.uniform(-2, 1.7),
        beta2=rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-1, 2.3),
        length=10 ** rng.uniform(-5, 0),
        delta_beta0=rng.uniform(-3000, 3000) if regime == "LB" else 0.0,
        delta_beta1=rng.uniform(0, 500) if regime == "HB" else 0.0,
    )
    p0x = rng.uniform(0.01, 30)
    p0y = rng.uniform(0, 30) if regime == "HB" else 0.0
    if regime == "LB" and index % 8 >= 4:
        p0x, p0y = 0.0, p0x
    pump = PumpConfig(
        p0x=p0x,
        p0y=p0y,
        theta0x=rng.uniform(-math.pi, math.pi),
        theta0y=rng.uniform(-math.pi, math.pi),
    )
    omega = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-6, 2))
    return fiber, pump, regime, omega


def _near_matched(entry, fiber, omega: float, rng: np.random.Generator):
    """The entry with its Kerr term set so that R(omega) is 0 or tiny.

    k = -(s*delta_beta1*omega + t*beta2*omega^2) makes the rate exactly
    -0.0; adding a small offset puts |u| = |R| L/2 below the sinc series
    cutoff of 1e-8.
    """
    dispersive = []
    if entry.s:
        dispersive.append(entry.s * fiber.delta_beta1 * omega)
    if entry.t:
        dispersive.append(entry.t * fiber.beta2 * (omega * omega))
    phase = dispersive[0] if len(dispersive) == 1 else dispersive[0] + dispersive[1]
    offset = 0.0 if rng.random() < 0.5 else rng.uniform(-1e-9, 1e-9) / fiber.length
    return entry._replace(k=-phase + offset, d=0.0)


def test_scalar_amplitude_is_array_element_bit_for_bit():
    rng = np.random.default_rng(20261018)
    series_hits = zero_hits = compared = 0
    for index in range(N_SETS):
        fiber, pump, regime, omega = _draw(rng, index)
        entries = list(coupling_table(fiber, pump, regime).values())
        if index % 4 == 1:
            entries = [_near_matched(entry, fiber, omega, rng) for entry in entries]
        for entry in entries:
            u = entry.rate(fiber, omega) * (0.5 * fiber.length)
            series_hits += abs(u) < 1e-8
            zero_hits += u == 0.0
            scalar = first_order_amplitude(entry, fiber, omega)
            array = first_order_amplitude(entry, fiber, np.array([omega]))
            assert type(scalar) is complex
            assert _bits(scalar) == _bits(array[0]), (fiber, pump, regime, omega, entry)
            compared += 1
    assert compared > 7000
    assert series_hits > 500 and zero_hits > 250  # the series branch and u = 0 ran


def test_rate_adds_its_terms_left_to_right():
    # Float and array omega share one body, so the test above cannot see a
    # reordered sum; pin both to the written-out formula added term by term.
    # Entries with s = t = 0, with and without d, have no table slot today;
    # an array omega still gives an array of its shape.
    rng = np.random.default_rng(5)
    for index in range(N_SETS):
        fiber, pump, regime, omega = _draw(rng, index)
        constant = [Coupling(1.0, 0.0, s=0.0, t=0.0, k=rng.normal(), d=d) for d in (0.0, -2.0)]
        for entry in [*coupling_table(fiber, pump, regime).values(), *constant]:
            terms = [entry.s * fiber.delta_beta1 * omega] if entry.s else []
            if entry.t:
                terms.append(entry.t * fiber.beta2 * (omega * omega))
            terms.append(entry.k)
            if entry.d:
                terms.append(entry.d * fiber.delta_beta0)
            expected = terms[0]
            for term in terms[1:]:
                expected = expected + term
            assert entry.rate(fiber, omega).hex() == (-expected).hex()
            assert entry.rate(fiber, np.array([omega]))[0].hex() == (-expected).hex()
            assert entry.rate(fiber, np.full((2, 3), omega)).shape == (2, 3)


def test_filtered_state_matches_array_path_bit_for_bit():
    rng = np.random.default_rng(7)
    for index in range(N_SETS):
        fiber, pump, regime, omega = _draw(rng, index)
        omega, duration = abs(omega), 10 ** rng.uniform(0, 3)
        table = coupling_table(fiber, pump, regime)
        raw = np.array(
            [
                first_order_amplitude(table[entry], fiber, np.array([omega]))[0]
                if entry in table
                else 0.0
                for entry in _PAIR_ENTRIES
            ],
            dtype=complex,
        )
        norm_sq = float(np.sum(np.abs(raw) ** 2))
        norm = math.sqrt(norm_sq)
        coeffs = raw / norm
        state = filtered_state(fiber, pump, regime, omega, duration)
        assert type(state.coeffs) is tuple
        assert [type(c) for c in state.coeffs] == [complex] * 4
        assert _coeff_bits(state.coeffs) == coeffs.tobytes()
        assert state.norm.hex() == norm.hex()
        assert state.generation_probability.hex() == (norm_sq / duration).hex()
        amplitudes = pair_amplitudes(fiber, pump, regime, omega)
        assert (np.array(amplitudes) / state.norm).tobytes() == _coeff_bits(state.coeffs)
        if regime == "LB":
            assert [(type(xi), _bits(xi)) for xi in amplitudes[2:]] == [(float, _bits(0.0))] * 2
        # The fluxes are the axis sums of the same amplitudes, float and array
        # omega, with |xi|^2 = re*re + im*im (np.abs and CPython's abs round
        # differently, so the float path could not reproduce np.abs(xi)**2).
        flux = flux_hb if regime == "HB" else flux_lb
        floats = flux(fiber, pump, omega)
        for point in (omega, np.array([omega, -omega])):
            xx, yy, xy, yx = (
                np.asarray(xi, dtype=complex) for xi in pair_amplitudes(fiber, pump, regime, point)
            )
            f_x = (_abs2(xx) + _abs2(xy)) / (2.0 * np.pi)
            f_y = (_abs2(yy) + _abs2(yx)) / (2.0 * np.pi)
            got = flux(fiber, pump, point)
            assert type(got[0]) is (float if point is omega else np.ndarray)
            assert [np.asarray(f).tobytes() for f in got] == [f_x.tobytes(), f_y.tobytes()]
            assert [np.asarray(f).reshape(-1)[0].hex() for f in got] == [f.hex() for f in floats]
        # Both scalar coefficients are nonzero in every set; the angle of
        # numpy's quotient is taken by math.atan2, wrapped to (-pi, pi].
        ratio = coeffs[1] / coeffs[0]
        phase = math.remainder(math.atan2(ratio.imag, ratio.real), math.tau)
        if phase <= -math.pi:
            phase += math.tau
        assert classify(state).relative_phase.hex() == phase.hex()


def test_reused_table_matches_fresh_objects_bit_for_bit():
    # For set A and the set B drawn before it the calls run A, B, A, A: the
    # table is built, rebuilt after B and reused; fresh runs on equal but
    # new fiber and pump objects.
    rng = np.random.default_rng(11)
    sets = []
    for index in range(N_SETS):
        fiber, pump, regime, omega = _draw(rng, index)
        sets.append((fiber, pump, regime, abs(omega), 10 ** rng.uniform(0, 3)))
    for index, (fiber, pump, regime, omega, duration) in enumerate(sets):
        fresh = filtered_state(
            dataclasses.replace(fiber), dataclasses.replace(pump), regime, omega, duration
        )
        states = [filtered_state(fiber, pump, regime, omega, duration)]
        filtered_state(*sets[index - 1])
        states += [filtered_state(fiber, pump, regime, omega, duration) for _ in range(2)]
        for state in states:
            assert _coeff_bits(state.coeffs) == _coeff_bits(fresh.coeffs)
            assert state.norm.hex() == fresh.norm.hex()
            assert state.generation_probability.hex() == fresh.generation_probability.hex()


@pytest.mark.parametrize("u", [math.inf, -math.inf, math.nan])
def test_scalar_sinc_is_nan_for_non_finite_argument(u):
    # The constant rate R = u of k = -u with L = 2 puts u in the sinc
    # argument: NaN on the float path, where math.sin and cmath.exp raise,
    # as on the array path.
    fiber = FiberParams(gamma=1.0, beta2=1.0, length=2.0)
    entry = Coupling(1.0, 0.0, s=0.0, t=0.0, k=-u)
    assert cmath.isnan(first_order_amplitude(entry, fiber, 0.0))
    with np.errstate(invalid="ignore"):
        assert cmath.isnan(first_order_amplitude(entry, fiber, np.array([0.0]))[0])


def test_scalar_amplitude_is_nan_beyond_double_range():
    # omega^2 overflows, so u is infinite: NaN, not the ValueError math.sin
    # and cmath.exp raise for an infinite argument; the filtered state built
    # from NaN amplitudes raises NumericalFailure (exit 3 in the CLI).  A
    # Python int takes the float path too, without a numpy overflow warning,
    # and one beyond double range gives NaN, not float()'s OverflowError.
    fiber = FiberParams(gamma=3.0, beta2=15.0, length=0.2, delta_beta1=200.0)
    pump = PumpConfig(p0x=0.15, p0y=0.15)
    table = coupling_table(fiber, pump, "HB")
    for entry in _PAIR_ENTRIES:
        for omega in (1e300, 10**300, 10**400, -(10**400)):
            assert cmath.isnan(first_order_amplitude(table[entry], fiber, omega))
    for omega in (1e300, 10**400):
        with pytest.raises(NumericalFailure):
            filtered_state(fiber, pump, "HB", omega, 100.0)


#: Edge values of one complex part: zeros, subnormals, near overflow, inf, NaN.
_SPECIAL_PARTS = [0.0, -0.0, 5e-324, -1e-310, 2.2e-308, 1.0, -3.0, 1e308, -1.7e308,
                  math.inf, -math.inf, math.nan]


def _edge_complexes(rng: np.random.Generator, n: int) -> np.ndarray:
    """n seeded values over the double range, plus the edge cases of numpy's abs.

    The magnitudes run from 0 (10^-330 underflows) through the subnormals
    to near overflow.  A quarter of the values sit at chosen ratios
    r = min/max of the parts: near 1 (where 1 + r*r is often halfway
    between two doubles), near 2^-26.5 (where r*r crosses half an ulp of
    1) and near 2^-27; every pair of `_SPECIAL_PARTS` is added, so a zero
    part, r = 1 and inf and NaN parts all occur.
    """
    def parts(size):
        return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-330, 308.25, size)

    wide = parts(n) + 1j * parts(n)
    k = n // 12
    ratios = np.concatenate([
        rng.uniform(0.7, 1.0, k),
        2.0**-26.5 * (1.0 + rng.uniform(-1e-6, 1e-6, k)),
        2.0**-27 * (1.0 + rng.uniform(-1e-6, 1e-6, k)),
    ])
    larger = parts(ratios.size)
    ratioed = larger * ratios + 1j * larger
    ratioed[::2] = ratioed[::2].imag + 1j * ratioed[::2].real  # the smaller part first too
    specials = np.array([complex(a, b) for a in _SPECIAL_PARTS for b in _SPECIAL_PARTS])
    return np.concatenate([wide, ratioed, specials])


def _same_bits(got: list, expected: np.ndarray) -> bool:
    """Bit identity of floats, any NaN matching any NaN."""
    expected = expected.tolist()
    return len(got) == len(expected) and all(
        (g != g and e != e) or np.float64(g).tobytes() == np.float64(e).tobytes()
        for g, e in zip(got, expected)
    )


def test_abs_helper_is_numpy_complex_abs_bit_for_bit():
    values = _edge_complexes(np.random.default_rng(20261019), 100_000)
    assert values.size > 100_000
    got = [_abs(z) for z in values.tolist()]
    assert all(type(g) is float for g in got)
    assert _same_bits(got, np.abs(values))
    # CPython's abs (which raises OverflowError where |z| overflows) differs
    # on many of them, so the test can tell the two apart.
    moderate = values[np.abs(values) < 1e300]
    assert not _same_bits([abs(z) for z in moderate.tolist()], np.abs(moderate))


def test_divide_helper_is_numpy_complex_division_bit_for_bit():
    rng = np.random.default_rng(20261020)
    numerators = _edge_complexes(rng, 100_000)
    divisors = _edge_complexes(rng, 100_000)
    divisors = divisors[np.isfinite(divisors) & (divisors != 0)]
    divisors = np.resize(divisors, numerators.size)
    with np.errstate(all="ignore"):
        expected = numerators / divisors  # the array loop, as an array / norm divides
        scalar = [a / b for a, b in zip(numerators[:20_000], divisors[:20_000])]
    got = [_divide(a, b) for a, b in zip(numerators.tolist(), divisors.tolist())]
    assert all(type(g) is complex for g in got)
    for part in ("real", "imag"):
        assert _same_bits([getattr(g, part) for g in got], getattr(expected, part))
        # numpy's scalar division, as in classify's coefficient ratio, is the same.
        assert _same_bits(
            [getattr(g, part) for g in got[:20_000]],
            np.array([getattr(q, part) for q in scalar]),
        )
    # A real divisor, as in the division by the norm.
    norms = np.abs(divisors)
    with np.errstate(all="ignore"):
        expected = numerators / norms
    got = [_divide(a, b) for a, b in zip(numerators.tolist(), norms.tolist())]
    for part in ("real", "imag"):
        assert _same_bits([getattr(g, part) for g in got], getattr(expected, part))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_non_finite_amplitude_is_a_numerical_failure(monkeypatch, bad, part):
    # An inf or NaN part of any amplitude makes |xi| inf or NaN, so the state
    # is rejected, never normalized.
    fiber = FiberParams(gamma=3.0, beta2=15.0, length=0.2, delta_beta1=200.0)
    pump = PumpConfig(p0x=0.15, p0y=0.15)
    amplitude = complex(bad, 0.5) if part == "real" else complex(0.5, bad)
    for index in range(4):
        raw = [0.1 + 0.2j, 0.0, -0.3j, 0.4 + 0.0j]
        raw[index] = amplitude
        monkeypatch.setattr(fps.entangle, "pair_amplitudes", lambda *args, raw=raw: raw)
        with pytest.raises(NumericalFailure):
            filtered_state(fiber, pump, "HB", 1.0, 100.0)


def test_scalar_lambda_is_array_element_bit_for_bit():
    # Gain and oscillation branches, the band edges, subnormal and huge
    # detunings.  Where lambda is finite both paths agree to the bit; where
    # it is not (lambda^2 = -inf at 1e200, in every set), both raise, and so
    # does the array of the whole set.
    rng = np.random.default_rng(23)
    raised = 0
    for index in range(N_SETS):
        fiber = FiberParams(
            gamma=10 ** rng.uniform(-2, 2),
            beta2=rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3, 3),
            length=1.0,
        )
        power = 10 ** rng.uniform(-3, 2)
        edge = 2.0 * math.sqrt(fiber.gamma * power / abs(fiber.beta2))
        omegas = [edge, -edge, 0.0, 5e-324, 1e200, *(edge * rng.uniform(-3, 3, 8))]
        with np.errstate(over="ignore", invalid="ignore"):
            for omega in omegas:
                try:
                    (expected,) = lambda_param(fiber, power, np.array([omega])).tolist()
                except NumericalFailure:
                    with pytest.raises(NumericalFailure):
                        lambda_param(fiber, power, omega)
                    raised += 1
                    continue
                got = lambda_param(fiber, power, omega)
                assert type(got) is complex
                assert _bits(got) == _bits(expected), (fiber, power, omega)
            with pytest.raises(NumericalFailure):
                lambda_param(fiber, power, np.array(omegas))
    assert raised >= N_SETS
    grid = FrequencyGrid(-3.0, 3.0, 601)
    fiber = FiberParams(gamma=3.0, beta2=-20.0, length=0.1)
    floats = [lambda_param(fiber, 0.3, omega) for omega in grid.omega_list]
    assert np.array(floats).tobytes() == lambda_param(fiber, 0.3, grid.omegas).tobytes()


def test_scalar_lambda_is_nan_for_an_int_beyond_double_range():
    # An int omega is its float: equal lambdas in range, the same error at
    # 10**300, whose lambda^2 is -inf.  Beyond double range it is NaN, which
    # raises instead of float()'s OverflowError.
    fiber = FiberParams(gamma=3.0, beta2=-20.0, length=0.1)
    assert lambda_param(fiber, 0.3, 10**2) == lambda_param(fiber, 0.3, 100.0)
    messages = []
    for omega in (10**300, 1e300, 10**400, -(10**400)):
        with pytest.raises(NumericalFailure) as info:
            lambda_param(fiber, 0.3, omega)
        messages.append(str(info.value))
    assert messages == ["lambda is not finite, got infj"] * 2 + [
        "lambda is not finite, got (nan+nanj)"
    ] * 2
