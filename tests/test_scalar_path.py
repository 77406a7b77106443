"""The Python-float path of the first-order amplitudes against the array path.

A float omega runs `Coupling.rate`, `hb.sinc` and `first_order_amplitude`
in Python floats (math.sin, cmath.exp) instead of numpy.  These tests pin
that path to element 0 of the same call on a one-point array, bit for bit,
and the filtered pair state built from it, with its `classify` phase, to
the same built from array-path amplitudes; the state and the HB/LB fluxes
must read the four amplitudes of `hb.pair_amplitudes`.  `coupling_table`
reuses its last table for the same objects, so interleaved calls must match
calls on fresh objects.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from fps import (
    Channel,
    FiberParams,
    NumericalFailure,
    PumpConfig,
    classify,
    filtered_state,
    flux_hb,
    flux_lb,
)
from fps.fiber import Coupling, coupling_table
from fps.hb import first_order_amplitude, pair_amplitudes, sinc

N_SETS = 2000
PAIR_ENTRIES = tuple(channel.value for channel in Channel)


def _bits(value) -> bytes:
    return np.complex128(value).tobytes()


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
                for entry in PAIR_ENTRIES
            ],
            dtype=complex,
        )
        norm_sq = float(np.sum(np.abs(raw) ** 2))
        norm = math.sqrt(norm_sq)
        coeffs = raw / norm
        state = filtered_state(fiber, pump, regime, omega, duration)
        assert state.coeffs.tobytes() == coeffs.tobytes()
        assert state.norm.hex() == norm.hex()
        assert state.generation_probability.hex() == (norm_sq / duration).hex()
        amplitudes = pair_amplitudes(fiber, pump, regime, omega)
        assert (np.array(amplitudes) / state.norm).tobytes() == state.coeffs.tobytes()
        if regime == "LB":
            assert [(type(xi), _bits(xi)) for xi in amplitudes[2:]] == [(float, _bits(0.0))] * 2
        # The fluxes are the axis sums of the same amplitudes, float and array omega.
        flux = flux_hb if regime == "HB" else flux_lb
        for point in (omega, np.array([omega, -omega])):
            xx, yy, xy, yx = pair_amplitudes(fiber, pump, regime, point)
            f_x = (np.abs(xx) ** 2 + np.abs(xy) ** 2) / (2.0 * np.pi)
            f_y = (np.abs(yy) ** 2 + np.abs(yx) ** 2) / (2.0 * np.pi)
            got = flux(fiber, pump, point)
            assert type(got[0]) is (float if point is omega else np.ndarray)
            assert [np.asarray(f).tobytes() for f in got] == [f_x.tobytes(), f_y.tobytes()]
        # Both scalar coefficients are nonzero in every set; wrap to (-pi, pi].
        phase = math.remainder(float(np.angle(coeffs[1] / coeffs[0])), math.tau)
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
            assert state.coeffs.tobytes() == fresh.coeffs.tobytes()
            assert state.norm.hex() == fresh.norm.hex()
            assert state.generation_probability.hex() == fresh.generation_probability.hex()


@pytest.mark.parametrize("u", [math.inf, -math.inf, math.nan])
def test_scalar_sinc_is_nan_for_non_finite_argument(u):
    assert math.isnan(sinc(u))
    with np.errstate(invalid="ignore"):
        assert np.isnan(sinc(np.array([u]))[0])


def test_scalar_amplitude_is_nan_beyond_double_range():
    # omega^2 overflows, so u is infinite: NaN, not the ValueError math.sin
    # and cmath.exp raise for an infinite argument; the filtered state built
    # from NaN amplitudes raises NumericalFailure (exit 3 in the CLI)
    fiber = FiberParams(gamma=3.0, beta2=15.0, length=0.2, delta_beta1=200.0)
    pump = PumpConfig(p0x=0.15, p0y=0.15)
    table = coupling_table(fiber, pump, "HB")
    for entry in PAIR_ENTRIES:
        assert cmath.isnan(first_order_amplitude(table[entry], fiber, 1e300))
    with pytest.raises(NumericalFailure):
        filtered_state(fiber, pump, "HB", 1e300, 100.0)
