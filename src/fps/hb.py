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
import math

from .errors import (
    DegenerateBirefringence, NoFarDetunedPeak, NumericalFailure, PumpNotOnAxis, ZeroDispersion,
    finite, real,
)
from .fiber import (
    _PAIR_ENTRIES,
    Channel,
    Coupling,
    FiberParams,
    PumpConfig,
    _as_omega,
    _cached_table,
    alpha_param,
    coupling_table,
    pair_fluxes,
)

def first_order_amplitude(entry: Coupling, fiber: FiberParams, omega):
    """First Magnus term of one generator entry over the fiber length.

    xi = integral_0^L C exp(i R z) dz = i*c*L*exp(i*(theta + R*L/2))*sinc(R*L/2),
    with sinc(u) = sin(u)/u and sinc(0) = 1.  No series is needed near
    phase matching: below |u| = 1e-8, sin(u) rounds to u, so sin(u)/u is
    exactly 1.0, as 1 - u^2/6 would be.  For a pair entry this is the
    two-photon amplitude of its channel, the first-order part of the same
    entry of the transfer matrix.

    omega is what `fiber._as_omega` makes of a raw one, which the callers
    convert once.  A Python float (numpy's float64 included) runs in Python
    floats end to end (math.sin, cmath.exp) and returns a complex
    bit-identical to the array path, or NaN when u is not finite, where
    math.sin and cmath.exp raise (as for the NaN of an int omega beyond
    double range).  A float array runs in numpy, returning complex of its
    shape.  A NaN amplitude is rejected where it is used:
    `fiber.pair_fluxes`, `filtered_state` and P_T raise NumericalFailure.
    """
    if isinstance(omega, float):
        return _amplitudes(((1j * (entry.c * fiber.length), *entry),), fiber.length, omega)[0]
    import numpy as np

    u = entry.rate(omega) * (0.5 * fiber.length)
    envelope = np.divide(np.sin(u), u, out=np.ones_like(u), where=u != 0)
    return 1j * (entry.c * fiber.length) * np.exp(1j * (entry.theta + u)) * envelope


def _amplitudes(pairs, length: float, omega: float) -> list:
    """The float path of `first_order_amplitude` for each entry in pairs, over length.

    Each entry is the plain tuple (1j*(c*L), *coupling) that `coupling_table`
    caches with a table, or None for one the table lacks, which gives 0.0.
    One loop with no call per entry, so that a detuning sweep pays for its
    amplitudes little more than their arithmetic; u is `Coupling.rate`
    times L/2, summed in its order, so with its bits.
    """
    squared = omega * omega
    half = 0.5 * length
    amplitudes = []
    for pair in pairs:
        if pair is None:
            amplitudes.append(0.0)
            continue
        prefactor, _, theta, a, b, k, e = pair
        u = -(a * omega + b * squared + k + e) * half
        if math.isfinite(u):
            amplitudes.append(
                prefactor * cmath.exp(1j * (theta + u)) * (math.sin(u) / u if u else 1.0)
            )
        else:  # math.sin and cmath.exp raise at inf
            amplitudes.append(complex(math.nan, math.nan))
    return amplitudes


def xi_hb(fiber: FiberParams, pump: PumpConfig, channel: Channel, omega):
    """Two-photon amplitude xi of one HB channel at detuning omega.

    Scalar channels carry the prefactor i*gamma*P0j*L and a phase 2*theta0j;
    vector channels carry i*(2/3)*gamma*sqrt(P0x*P0y)*L and theta0x+theta0y.
    channel is read as `Channel(channel)`: a member, or a member's value
    such as (0, 1) for XX; anything else raises ValueError naming it.
    """
    entry = coupling_table(fiber, pump, "HB")[Channel(channel).value]
    return first_order_amplitude(entry, fiber, _as_omega(omega))


def pair_amplitudes(fiber: FiberParams, pump: PumpConfig, regime: str, omega) -> list:
    """The pair amplitudes [xi_xx, xi_yy, xi_xy, xi_yx] at omega, in `Channel` order.

    Each is the first-order amplitude of its entry in the regime's coupling
    table; an entry the table lacks (the LB vector channels) is 0.0.  A
    float omega runs the four in one loop over the constants the table
    cached when it was built, with the bits of the array path.
    """
    cached = _cached_table(fiber, pump, regime)
    omega = _as_omega(omega)
    if isinstance(omega, float):
        return _amplitudes(cached[4], fiber.length, omega)
    table = cached[3]
    return [
        first_order_amplitude(table[entry], fiber, omega) if entry in table else 0.0
        for entry in _PAIR_ENTRIES
    ]


def flux_hb(fiber: FiberParams, pump: PumpConfig, omega):
    """Flux densities (f_x, f_y) in ps/rad from the four HB amplitudes.

    `fiber.pair_fluxes` reads them as the exact flux reads the transfer
    matrix.  Since xi_03(-Omega) = xi_21(Omega), f_x holds the XY
    anti-Stokes photons for Omega > 0 and the YX Stokes photons for Omega < 0.
    """
    return pair_fluxes(*pair_amplitudes(fiber, pump, "HB", omega))


def flux_lb(fiber: FiberParams, pump: PumpConfig, omega):
    """Flux densities (f_x, f_y) in ps/rad for a single-axis LB pump.

    The pumped axis carries the scalar spectrum and the other axis the
    orthogonal-channel spectrum, |xi|^2/2pi each; the two perturbations are
    uncoupled, so neither spectrum depends on the pump phase.
    """
    return pair_fluxes(*pair_amplitudes(fiber, pump, "LB", omega))


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
    relabel the axes with `fiber.swap_axes` first.  A duration that is not
    a finite real >= 0, or a bad mode, raises ValueError, |beta2|*L = 0
    (underflow included; the closed form is 0 at L = 0) ZeroDispersion, and
    an inf or NaN P_T NumericalFailure.
    """
    duration = real(duration, "duration", 0)
    if pump.p0x == 0 < pump.p0y:
        raise PumpNotOnAxis(f"P_T counts the x-pumped channel, got p0x = 0 < p0y = {pump.p0y}")
    if mode not in ("analytic", "numeric"):
        raise ValueError(f"mode must be 'analytic' or 'numeric', got {mode!r}")
    if mode == "analytic" and fiber.length == 0:
        return 0.0
    dispersion = abs(fiber.beta2) * fiber.length
    if dispersion == 0:
        raise ZeroDispersion(f"P_T ({mode}) requires |beta2|*L > 0")
    if mode == "analytic":
        gpl = fiber.gamma * pump.p0x * fiber.length
        window = duration * duration / (2.0 * math.pi * abs(fiber.beta2) * fiber.length)
        value = (2.0 / 3.0) * (gpl * gpl) * math.sqrt(window)
    else:
        import numpy as np

        omegas = np.linspace(0.0, 5.0 * _scalar_width(fiber), 20001)
        density = np.abs(xi_hb(fiber, pump, Channel.XX, omegas)) ** 2 / (2.0 * np.pi)
        # h/3 * (y_0 + y_N + 4 * sum(odd y) + 2 * sum(interior even y))
        weighted = (
            density[0] + density[-1] + 4.0 * density[1::2].sum() + 2.0 * density[2:-1:2].sum()
        )
        value = duration * (omegas[1] - omegas[0]) / 3.0 * weighted
    return finite(value, NumericalFailure, f"P_T ({mode})")


def vector_peak_detuning(fiber: FiberParams, pump: PumpConfig) -> float:
    """Detuning of the far vector peaks, (delta_beta1/|beta2|)*(1 - alpha)."""
    alpha = alpha_param(fiber, pump)
    if fiber.beta2 == 0:
        raise ZeroDispersion("vector peak estimate requires beta2 != 0")
    detuning = (fiber.delta_beta1 / abs(fiber.beta2)) * (1.0 - alpha)
    return finite(detuning, NumericalFailure, "vector peak detuning")


def overlapping_regime(fiber: FiberParams, pump: PumpConfig) -> bool:
    """True when |alpha| >= 1 and the scalar and vector bands overlap."""
    return abs(alpha_param(fiber, pump)) >= 1.0


def _scalar_width(fiber: FiberParams) -> float:
    """First-zero width 2*sqrt(2*pi/(|beta2|*L)) of the scalar band in rad/ps.

    A width beyond double range, from |beta2|*L = 0 or subnormal, or one
    that rounds to 0 because |beta2|*L overflows, raises ValueError.
    """
    dispersion = abs(fiber.beta2) * fiber.length
    scalar = 2.0 * math.sqrt(2.0 * math.pi / dispersion) if 0 < dispersion < math.inf else math.inf
    return finite(scalar, ValueError, f"scalar width at |beta2|*L = {dispersion}")


def bandwidths(fiber: FiberParams, pump: PumpConfig) -> tuple[float, float]:
    """First-zero width estimators (scalar, vector) in rad/ps.

    Scalar band: 2*sqrt(2*pi/(|beta2|*L)), scaling as L**-0.5.  Vector
    peaks: 4*pi/(delta_beta1*L), scaling as L**-1.  beta2 = 0 raises
    ZeroDispersion.  A width beyond double range, from a divisor that is 0
    or subnormal, or a width of 0 from a divisor that overflows, raises
    ValueError for the scalar band and DegenerateBirefringence for the
    vector peaks.
    """
    if fiber.beta2 == 0:
        raise ZeroDispersion("scalar width requires beta2 != 0")
    scalar = _scalar_width(fiber)
    walk_off = fiber.delta_beta1 * fiber.length
    vector = 4.0 * math.pi / walk_off if 0 < abs(walk_off) < math.inf else math.inf
    finite(vector, DegenerateBirefringence, f"vector width at delta_beta1*L = {walk_off}")
    return scalar, vector


def lb_peak_and_width(fiber: FiberParams, pump: PumpConfig) -> tuple[float, float]:
    """Detuning and first-zero width of the far orthogonal-axis LB peaks.

    detuning ~ sqrt(2*delta/beta2), width ~ (2*pi/L)/sqrt(2*beta2*delta), with
    delta = beta0 of the pumped axis minus beta0 of the other: delta_beta0
    for an x pump, -delta_beta0 for a y pump.  Both exist only when delta
    and beta2 share a sign (slow-axis pump with normal dispersion, or
    fast-axis pump with anomalous dispersion), else NoFarDetunedPeak is
    raised.  A detuning or width beyond double range (L = 0 or subnormal,
    or delta*beta2 or delta/beta2 out of range, 2*beta2*delta overflowing
    included, where the width would round to 0) raises ValueError.
    """
    if pump.p0x != 0 and pump.p0y != 0:
        raise PumpNotOnAxis(f"pump must be on a single axis, got ({pump.p0x}, {pump.p0y})")
    delta = -fiber.delta_beta0 if pump.p0y != 0 else fiber.delta_beta0
    if not (delta > 0 < fiber.beta2 or delta < 0 > fiber.beta2):
        raise NoFarDetunedPeak(
            f"no real phase-matching detuning for delta = {delta}, beta2 = {fiber.beta2}"
        )
    detuning = finite(math.sqrt(2.0 * delta / fiber.beta2), ValueError, "LB peak detuning")
    zero_spacing = 2.0 * math.pi / fiber.length if fiber.length else math.inf
    root = math.sqrt(2.0 * fiber.beta2 * delta)
    width = zero_spacing / root if 0 < root < math.inf else math.inf
    return detuning, finite(width, ValueError, "LB peak width")
