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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyState, NumericalFailure, PumpNotOnAxis, StimulatedOrderingWarning
from .fiber import Channel, FiberParams, PumpConfig
from .hb import pair_amplitudes, total_scatter_probability, xi_hb

#: Minimum concurrence for calling a two-scalar-coefficient state bell-like.
BELL_CONCURRENCE_MIN = 0.99

#: Basis labels in coefficient order: the pair channels, lowercased.
BASIS = tuple(channel.name.lower() for channel in Channel)

_CLASS_BY_PATTERN = {
    (True, False, False, False): "scalar-only-x",
    (False, True, False, False): "scalar-only-y",
    (False, False, True, False): "product-xy",
    (False, False, False, True): "product-yx",
}


@dataclass(frozen=True, eq=False)
class FilteredPairState:
    """Normalized pair state at one detuning, plus its generation probability."""

    omega: float
    coeffs: np.ndarray
    norm: float
    generation_probability: float


@dataclass(frozen=True)
class EntanglementReport:
    classification: str
    concurrence: float
    relative_phase: float


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
    NumericalFailure when that probability is not finite.
    """
    if not omega > 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if not duration > 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    raw = np.array(pair_amplitudes(fiber, pump, regime, omega), dtype=complex)
    # The complex abs and the division stay in numpy: they round differently
    # from CPython's, and the coefficients must not move.  The squares are
    # summed left to right, which is numpy's order for four elements.
    xx, yy, xy, yx = np.abs(raw).tolist()
    norm_sq = xx * xx + yy * yy + xy * xy + yx * yx
    if norm_sq == 0:
        raise EmptyState(f"all four amplitudes vanish at omega = {omega}")
    probability = norm_sq / duration
    if not math.isfinite(probability):
        # A NaN amplitude, or |xi|^2 / T beyond double range.
        raise NumericalFailure(f"pair state at omega = {omega} is not finite")
    norm = math.sqrt(norm_sq)
    coeffs = raw / norm
    coeffs.setflags(write=False)
    return FilteredPairState(
        omega=float(omega),
        coeffs=coeffs,
        norm=norm,
        generation_probability=probability,
    )


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
    vanishes.
    """
    coeffs = state.coeffs
    values = coeffs.tolist()  # Python complex: no numpy scalar overhead
    conc = concurrence(values)
    significant = tuple(abs(c) ** 2 >= tol for c in values)
    classification = _CLASS_BY_PATTERN.get(significant)
    if classification is None:
        scalar_pair = significant[0] and significant[1]
        vector_free = not (significant[2] or significant[3])
        if scalar_pair and vector_free and conc >= BELL_CONCURRENCE_MIN:
            classification = "bell-like"
        else:
            classification = "partial"
    if values[0] != 0 and values[1] != 0:
        # numpy's complex division rounds differently from CPython's.
        relative_phase = _wrap_phase(float(np.angle(coeffs[1] / coeffs[0])))
    else:
        relative_phase = float("nan")
    return EntanglementReport(
        classification=classification,
        concurrence=conc,
        relative_phase=relative_phase,
    )


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
    perturbative ordering of the corrections is then violated.
    """
    if pump.p0y != 0:
        raise PumpNotOnAxis(
            f"second-order count requires scalar pumping, got p0y = {pump.p0y}"
        )
    if not duration > 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    p_any_pair = total_scatter_probability(fiber, pump, duration, mode="analytic")
    occupancy = abs(xi_hb(fiber, pump, Channel.XX, omega)) ** 2 / duration
    if occupancy > p_any_pair:
        warnings.warn(
            f"stimulated term {occupancy**2:.3e} exceeds independent-pair term "
            f"{occupancy * p_any_pair:.3e}; second-order ordering violated",
            StimulatedOrderingWarning,
            stacklevel=2,
        )
    n_mode = occupancy + occupancy * p_any_pair + occupancy**2
    return SecondOrderResult(n_mode=n_mode, p_any_pair=p_any_pair)
