"""First-order photon-pair amplitudes, spectra and band estimators, HB and LB.

Two pump photons at the carrier are annihilated into a Stokes (-Omega) /
anti-Stokes (+Omega) pair.  Four channels exist, labeled by the
polarization of the anti-Stokes photon first and the Stokes photon second:
the scalar channels XX, YY (pump and pair co-polarized) and the vector
channels XY, YX (pump photons taken from both axes).  In a low-birefringence
fiber the pump sits on one axis and the vector entries are absent; the
unpumped axis's scalar entry is then the orthogonal channel, opened by
phase-coherent coupling.  Amplitudes are in sqrt(ps) (continuous-mode
normalization), flux densities in ps/rad.
"""

from __future__ import annotations

import cmath
import enum
import math

import numpy as np

from .errors import DegenerateBirefringence, NoFarDetunedPeak, PumpNotOnAxis, ZeroDispersion
from .fiber import (
    Coupling,
    FiberParams,
    PumpConfig,
    alpha_param,
    coupling_table,
)

#: Below this argument magnitude sin(u)/u is evaluated by series to avoid
#: catastrophic cancellation near phase matching.
_SINC_SERIES_CUTOFF = 1e-8


class Channel(enum.Enum):
    """Scattering channel: first letter anti-Stokes axis, second Stokes axis.

    The value is the channel's (row, column) entry in `fiber.coupling_table`.
    """

    XX = (0, 1)
    YY = (2, 3)
    XY = (0, 3)
    YX = (2, 1)


#: Coupling-table entries of the four pair amplitudes, in `Channel` order.
_PAIR_ENTRIES = tuple(channel.value for channel in Channel)


def sinc(u):
    """sin(u)/u with the removable singularity handled by series."""
    if isinstance(u, float):
        # Python floats skip numpy's per-call overhead, which dominates the
        # scalar amplitudes of `filtered_state`.  math.sin and np.sin give
        # the same float64 values (tests/test_scalar_path.py pins the scalar
        # path to the array path bit for bit); math.sin raises on inf, where
        # np.sin gives NaN.
        if abs(u) < _SINC_SERIES_CUTOFF:
            return 1.0 - u * u / 6.0
        return math.sin(u) / u if math.isfinite(u) else math.nan
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < _SINC_SERIES_CUTOFF
    safe = np.where(small, 1.0, u)
    return np.where(small, 1.0 - u * u / 6.0, np.sin(safe) / safe)


def first_order_amplitude(entry: Coupling, fiber: FiberParams, omega):
    """First Magnus term of one generator entry over the fiber length.

    xi = integral_0^L C exp(i R z) dz = i*c*L*exp(i*(theta + R*L/2))*sinc(R*L/2).
    For a pair entry this is the two-photon amplitude of its channel, the
    first-order part of the same entry of the transfer matrix.

    Accepts a scalar or an array omega; returns complex of the same shape.
    A Python-float omega runs in Python floats (cmath.exp for numpy's exp)
    with results bit-identical to the array path; NaN when u is not finite.
    """
    u = entry.rate(fiber, omega) * (0.5 * fiber.length)
    if isinstance(u, float) and not math.isfinite(u):
        # cmath.exp raises and np.exp warns on an infinite argument.
        return complex(math.nan, math.nan)
    envelope = sinc(u)  # before the complex temporaries, to lower peak memory
    exp = cmath.exp if isinstance(u, float) else np.exp
    values = 1j * (entry.c * fiber.length) * exp(1j * (entry.theta + u)) * envelope
    if isinstance(values, complex):  # numpy's complex scalar included
        return complex(values)
    return values


def xi_hb(fiber: FiberParams, pump: PumpConfig, channel: Channel, omega):
    """Two-photon amplitude xi of one HB channel at detuning omega.

    Scalar channels carry the prefactor i*gamma*P0j*L and a phase 2*theta0j;
    vector channels carry i*(2/3)*gamma*sqrt(P0x*P0y)*L and theta0x+theta0y.
    """
    entry = coupling_table(fiber, pump, "HB")[channel.value]
    return first_order_amplitude(entry, fiber, omega)


def pair_amplitudes(fiber: FiberParams, pump: PumpConfig, regime: str, omega) -> list:
    """The pair amplitudes [xi_xx, xi_yy, xi_xy, xi_yx] at omega, in `Channel` order.

    Each is the first-order amplitude of its entry in the regime's coupling
    table; an entry the table lacks (the LB vector channels) is 0.0.
    """
    table = coupling_table(fiber, pump, regime)
    return [
        first_order_amplitude(table[entry], fiber, omega) if entry in table else 0.0
        for entry in _PAIR_ENTRIES
    ]


def _axis_fluxes(fiber: FiberParams, pump: PumpConfig, regime: str, omega):
    """Flux densities (f_x, f_y) in ps/rad from the pair entries of the regime's table.

    The a_j(+Omega) row of the generator couples to both creation operators,
    so f_x = (|xi_01|^2 + |xi_03|^2)/2pi and f_y = (|xi_23|^2 + |xi_21|^2)/2pi,
    the entries the exact flux reads from the transfer matrix (LB has one of
    each pair).  Since xi_03(-Omega) = xi_21(Omega), in HB f_x holds the XY
    anti-Stokes photons for Omega > 0 and the YX Stokes photons for Omega < 0.
    """
    xx, yy, xy, yx = pair_amplitudes(fiber, pump, regime, omega)
    f_x = (np.abs(xx) ** 2 + np.abs(xy) ** 2) / (2.0 * np.pi)
    f_y = (np.abs(yy) ** 2 + np.abs(yx) ** 2) / (2.0 * np.pi)
    if np.ndim(f_x) == 0:
        return float(f_x), float(f_y)
    return f_x, f_y


def flux_hb(fiber: FiberParams, pump: PumpConfig, omega):
    """Flux densities (f_x, f_y) in ps/rad from the four HB amplitudes; see `_axis_fluxes`."""
    return _axis_fluxes(fiber, pump, "HB", omega)


def flux_lb(fiber: FiberParams, pump: PumpConfig, omega):
    """Flux densities (f_x, f_y) in ps/rad for a single-axis LB pump.

    The pumped axis carries the scalar spectrum and the other axis the
    orthogonal-channel spectrum, |xi|^2/2pi each; the two perturbations are
    uncoupled, so neither spectrum depends on the pump phase.
    """
    return _axis_fluxes(fiber, pump, "LB", omega)


def total_scatter_probability(
    fiber: FiberParams, pump: PumpConfig, duration: float, mode: str = "analytic"
) -> float:
    """Total pair-scattering probability P_T over a pump of duration T ps.

    analytic mode evaluates the closed form
    (2/3)*(gamma*P0x*L)^2 * sqrt(T^2/(2*pi*|beta2|*L)), which neglects the
    nonlinear term in the sinc argument; numeric mode integrates the XX
    pair-probability density |xi_xx|^2/2pi (ps/rad) over Omega >= 0 by
    composite Simpson quadrature on 20001 uniform points (an even number of
    intervals) extending to five first-zero widths.  P_T
    must stay well below 1 for first-order perturbation theory to hold.

    Both modes count the x-pumped scalar channel only, so a pump on y
    alone (p0x = 0 < p0y) raises PumpNotOnAxis instead of returning 0;
    relabel the axes with `fiber.swap_axes` first.
    """
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    if pump.p0x == 0 < pump.p0y:
        raise PumpNotOnAxis(f"P_T counts the x-pumped channel, got p0x = 0 < p0y = {pump.p0y}")
    if mode == "analytic":
        if fiber.beta2 == 0:
            raise ZeroDispersion("the closed form requires beta2 != 0")
        if fiber.length == 0:
            return 0.0
        gpl = fiber.gamma * pump.p0x * fiber.length
        return (2.0 / 3.0) * gpl**2 * np.sqrt(
            duration**2 / (2.0 * np.pi * abs(fiber.beta2) * fiber.length)
        )
    if mode == "numeric":
        if fiber.beta2 == 0 or fiber.length == 0:
            raise ZeroDispersion("quadrature window requires beta2 != 0 and L > 0")
        scalar_width, _ = bandwidths(fiber, pump, require_vector=False)
        omegas = np.linspace(0.0, 5.0 * scalar_width, 20001)
        density = np.abs(xi_hb(fiber, pump, Channel.XX, omegas)) ** 2 / (2.0 * np.pi)
        # h/3 * (y_0 + y_N + 4 * sum(odd y) + 2 * sum(interior even y))
        weighted = (
            density[0] + density[-1] + 4.0 * density[1::2].sum() + 2.0 * density[2:-1:2].sum()
        )
        return duration * (omegas[1] - omegas[0]) / 3.0 * weighted
    raise ValueError(f"mode must be 'analytic' or 'numeric', got {mode!r}")


def vector_peak_detuning(fiber: FiberParams, pump: PumpConfig) -> float:
    """Detuning of the far vector peaks, (delta_beta1/|beta2|)*(1 - alpha)."""
    alpha = alpha_param(fiber, pump)
    if fiber.beta2 == 0:
        raise ZeroDispersion("vector peak estimate requires beta2 != 0")
    return (fiber.delta_beta1 / abs(fiber.beta2)) * (1.0 - alpha)


def overlapping_regime(fiber: FiberParams, pump: PumpConfig) -> bool:
    """True when |alpha| >= 1 and the scalar and vector bands overlap."""
    return abs(alpha_param(fiber, pump)) >= 1.0


def bandwidths(
    fiber: FiberParams, pump: PumpConfig, require_vector: bool = True
) -> tuple[float, float]:
    """First-zero width estimators (scalar, vector) in rad/ps.

    Scalar band: 2*sqrt(2*pi/(|beta2|*L)), scaling as L**-0.5.  Vector
    peaks: 4*pi/(delta_beta1*L), scaling as L**-1.  With require_vector
    False the vector entry is NaN when delta_beta1 = 0.
    """
    if fiber.beta2 == 0:
        raise ZeroDispersion("scalar width requires beta2 != 0")
    if fiber.length == 0:
        raise ValueError("widths diverge at zero length")
    scalar = 2.0 * np.sqrt(2.0 * np.pi / (abs(fiber.beta2) * fiber.length))
    if fiber.delta_beta1 == 0:
        if require_vector:
            raise DegenerateBirefringence("vector width requires delta_beta1 > 0")
        return scalar, float("nan")
    vector = 4.0 * np.pi / (fiber.delta_beta1 * fiber.length)
    return scalar, vector


def lb_peak_and_width(fiber: FiberParams, pump: PumpConfig) -> tuple[float, float]:
    """Detuning and first-zero width of the far orthogonal-axis LB peaks.

    detuning ~ sqrt(2*delta/beta2), width ~ (2*pi/L)/sqrt(2*beta2*delta), with
    delta = beta0 of the pumped axis minus beta0 of the other: delta_beta0
    for an x pump, -delta_beta0 for a y pump.  Both exist only when delta
    and beta2 share a sign (slow-axis pump with normal dispersion, or
    fast-axis pump with anomalous dispersion).
    """
    if pump.p0x != 0 and pump.p0y != 0:
        raise PumpNotOnAxis(f"pump must be on a single axis, got ({pump.p0x}, {pump.p0y})")
    delta = -fiber.delta_beta0 if pump.p0y != 0 else fiber.delta_beta0
    product = delta * fiber.beta2
    if product <= 0:
        raise NoFarDetunedPeak(
            f"no real phase-matching detuning for delta_beta0*beta2 = {product}"
        )
    detuning = np.sqrt(2.0 * delta / fiber.beta2)
    width = (2.0 * np.pi / fiber.length) / np.sqrt(2.0 * fiber.beta2 * delta)
    return float(detuning), float(width)
