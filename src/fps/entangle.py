"""Polarization state of a filtered photon pair and perturbation-order counts.

Filtering the output down to the single mode pair at +/-Omega leaves a pure
two-qubit polarization state spanned by {|xx>, |yy>, |xy>, |yx>} (anti-Stokes
axis first, Stokes axis second) with coefficients proportional to the four
two-photon amplitudes.  Concurrence quantifies its entanglement; it is a
derived metric for the qualitative product/Bell/partial distinction, not a
formula taken from the amplitude theory.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

from .errors import (
    EmptyState, NumericalFailure, PumpNotOnAxis, StimulatedOrderingWarning, finite, real,
)
from .fiber import Channel, FiberParams, PumpConfig
from .hb import pair_amplitudes, total_scatter_probability, xi_hb

#: Minimum concurrence for calling a two-scalar-coefficient state bell-like.
BELL_CONCURRENCE_MIN = 0.99

#: Basis labels in coefficient order: the pair channels, lowercased.
BASIS = tuple(channel.name.lower() for channel in Channel)

#: Half an ulp of the doubles in [1, 2).
_HALF_ULP_OF_ONE = 2.0**-53

_CLASS_BY_PATTERN = {
    (True, False, False, False): "scalar-only-x",
    (False, True, False, False): "scalar-only-y",
    (False, False, True, False): "product-xy",
    (False, False, False, True): "product-yx",
}


class FilteredPairState(NamedTuple):
    """Normalized pair state at one detuning, plus its generation probability.

    coeffs holds the four coefficients as Python complex numbers, in
    `BASIS` order.
    """

    omega: float
    coeffs: tuple[complex, complex, complex, complex]
    norm: float
    generation_probability: float


class EntanglementReport(NamedTuple):
    classification: str
    concurrence: float
    relative_phase: float


def _abs(z) -> float:
    """|z| rounded as numpy's complex abs: max * sqrt(fma(r, r, 1)) with r = min/max.

    That is numpy's SIMD kernel; CPython's abs (hypot) rounds differently
    on about a third of random values.  fma rounds 1 + r*r once.  With p =
    r*r rounded and r < 1 (r = 1 gives 2 exactly), 1 + p and every point
    halfway between two doubles in [1, 2] are multiples of ulp(p), while the
    error e = r*r - p is at most half of it, so 1.0 + p rounds as fma does
    unless 1 + p is itself halfway.  Only at such a tie does e decide: there Dekker's product gives
    e exactly and math.fsum rounds 1 + p + e.  A zero gives 0.0 first, since
    the amplitudes of an unpumped channel are zeros; an inf part gives inf,
    else a NaN part NaN, as in numpy.
    """
    if not z:
        return 0.0
    re, im = abs(z.real), abs(z.imag)
    larger, smaller = (re, im) if re > im else (im, re)
    if not 0.0 < larger < math.inf:  # inf or NaN: a zero larger part has a NaN beside it
        return math.inf if re == math.inf or im == math.inf else math.nan
    r = smaller / larger
    p = r * r
    s = 1.0 + p
    if abs((1.0 - s) + p) == _HALF_ULP_OF_ONE:  # the exact rounding error of s
        split = 134217729.0 * r  # (2^27 + 1) r: hi keeps the upper half of r's bits
        hi = split - (split - r)
        lo = r - hi
        s = math.fsum((1.0, p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo))
    return math.sqrt(s) * larger


def _divide(a, b) -> complex:
    """a/b rounded as numpy's complex division (Smith's rule), for b != 0.

    CPython's complex division scales differently and rounds differently.
    """
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((ar + ai * rat) * scl, (ai - ar * rat) * scl)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((ar * rat + ai) * scl, (ai * rat - ar) * scl)


def _wrap_phase(phi: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.remainder(phi, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


def filtered_state(
    fiber: FiberParams,
    pump: PumpConfig,
    regime: str,
    omega: float,
    duration: float,
) -> FilteredPairState:
    """Two-qubit state of the mode pair at +/-omega for a pump of duration T.

    Coefficients are the four amplitudes (xi_xx, xi_yy, xi_xy, xi_yx) at
    +omega, normalized; in the LB regime the vector entries are zero and
    the scalar amplitude of the unpumped axis (xi_yy for an x pump, xi_xx
    for a y pump) is the orthogonal-channel one.  The generation probability
    per discrete mode is sum |xi|^2 * dw / 2pi with dw = 2pi/T; it raises
    NumericalFailure when that probability is not finite.  An omega or a
    duration that is not a finite real > 0 raises ValueError.
    """
    if not (omega := real(omega, "omega")) > 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if not (duration := real(duration, "duration")) > 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    raw = pair_amplitudes(fiber, pump, regime, omega)
    # |xi| and the division by the norm round as numpy's do, so the state
    # keeps the bits of one built from an amplitude array.  The squares are
    # summed left to right, which is numpy's order for four elements.
    xx, yy, xy, yx = map(_abs, raw)
    norm_sq = xx * xx + yy * yy + xy * xy + yx * yx
    if norm_sq == 0:
        raise EmptyState(f"all four amplitudes vanish at omega = {omega}")
    probability = norm_sq / duration
    if not math.isfinite(probability):
        # A NaN or infinite amplitude, or |xi|^2 / T beyond double range.
        raise NumericalFailure(f"pair state at omega = {omega} is not finite")
    norm = math.sqrt(norm_sq)
    scale = 1.0 / norm  # _divide(xi, norm), whose imaginary divisor part is 0
    coeffs = tuple([
        complex((xi.real + xi.imag * 0.0) * scale, (xi.imag - xi.real * 0.0) * scale) for xi in raw
    ])
    return FilteredPairState(omega, coeffs, norm, probability)


def concurrence(coeffs) -> float:
    """Pure-state concurrence 2|c_xx c_yy - c_xy c_yx| of a normalized state."""
    c_xx, c_yy, c_xy, c_yx = coeffs
    return float(2.0 * abs(c_xx * c_yy - c_xy * c_yx))


def classify(state: FilteredPairState, tol: float = 1e-3) -> EntanglementReport:
    """Label the state by its significant coefficients.

    A coefficient is significant when |c|^2 >= tol.  A single significant
    coefficient gives one of the product/scalar-only labels; both scalar
    coefficients with no vector admixture give "bell-like" when the
    concurrence reaches BELL_CONCURRENCE_MIN; everything else is "partial".
    The relative phase arg(c_yy/c_xx) is NaN when either scalar coefficient
    vanishes.  A tol that is not a finite real strictly between 0 and 1
    raises ValueError: at tol <= 0 a zero coefficient is significant, and at
    tol >= 1 no coefficient of a normalized state is.
    """
    if not (type(tol) is float and 0 < tol < 1):  # the default needs no conversion
        tol = real(tol, "tol")
        if not 0 < tol < 1:
            raise ValueError(f"tol must be in (0, 1), got {tol}")
    values = state.coeffs
    conc = concurrence(values)
    significant = tuple([abs(c) ** 2 >= tol for c in values])
    classification = _CLASS_BY_PATTERN.get(significant)
    if classification is None:
        scalar_pair = significant[0] and significant[1]
        vector_free = not (significant[2] or significant[3])
        if scalar_pair and vector_free and conc >= BELL_CONCURRENCE_MIN:
            classification = "bell-like"
        else:
            classification = "partial"
    if values[0] != 0 and values[1] != 0:
        ratio = _divide(values[1], values[0])
        relative_phase = _wrap_phase(math.atan2(ratio.imag, ratio.real))
    else:
        relative_phase = float("nan")
    return EntanglementReport(classification, conc, relative_phase)


def bell_phase(pump: PumpConfig) -> float:
    """Relative phase 2*(theta0y - theta0x) of the scalar Bell state, in (-pi, pi].

    Equals the measured arg(xi_yy/xi_xx) wherever the two scalar sinc
    arguments coincide, in particular for an equal pump split.
    """
    return _wrap_phase(2.0 * (pump.theta0y - pump.theta0x))


class SecondOrderResult(NamedTuple):
    n_mode: float
    p_any_pair: float


def second_order_quantities(
    fiber: FiberParams, pump: PumpConfig, omega: float, duration: float
) -> SecondOrderResult:
    """Mean photon number per discrete mode to second perturbation order.

    With d = |xi_xx(omega)|^2 / T the first-order mode occupancy,
    n_mode = d + d*P_T + d^2: one pair, an independent second pair anywhere,
    and a stimulated second pair in the same mode.  p_any_pair is the total
    pair probability P_T.  Emits StimulatedOrderingWarning when the
    stimulated term outweighs the independent-pair term (d > P_T), since the
    perturbative ordering is then violated; an inf or NaN n_mode raises
    NumericalFailure.  omega and duration are read by `errors.real`, so an
    omega that is not one finite real (inf, NaN and an int beyond double
    range included) or a duration that is not a finite real > 0 raises
    ValueError.
    """
    if pump.p0y != 0:
        raise PumpNotOnAxis(
            f"second-order count requires scalar pumping, got p0y = {pump.p0y}"
        )
    omega = real(omega, "omega")
    if not (duration := real(duration, "duration")) > 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    p_any_pair = total_scatter_probability(fiber, pump, duration, mode="analytic")
    amplitude = abs(xi_hb(fiber, pump, Channel.XX, omega))
    occupancy = amplitude * amplitude / duration
    if occupancy > p_any_pair:
        warnings.warn(
            f"stimulated term {occupancy * occupancy:.3e} exceeds independent-pair term "
            f"{occupancy * p_any_pair:.3e}; second-order ordering violated",
            StimulatedOrderingWarning,
            stacklevel=2,
        )
    n_mode = occupancy + occupancy * p_any_pair + occupancy * occupancy
    return SecondOrderResult(finite(n_mode, NumericalFailure, "n_mode"), p_any_pair)
