"""First-order amplitudes and spectra for low-birefringence fibers.

With the pump on one optical axis, the co-polarized scalar channel is the
same as in the high-birefringence case, while phase-coherent coupling
(retained here because the beat length is not short) opens an extra vector
channel that scatters both pair photons onto the orthogonal axis.  Written
for an x-polarized pump; a pure y-pump is folded back onto this form by
relabeling the axes.
"""

from __future__ import annotations

import numpy as np

from .errors import NoFarDetunedPeak, PumpNotOnAxis
from .fiber import FiberParams, PumpConfig, coupling_table, swap_axes
from .hb import Channel, first_order_amplitude, pair_flux


def xi_lb_yy(fiber: FiberParams, pump: PumpConfig, omega):
    """Orthogonal-channel amplitude for an x-polarized pump.

    Prefactor magnitude gamma*P0*L/3; the sinc argument
    (beta2*Omega^2 - (2/3)*gamma*P0 - 2*delta_beta0)*L/2 vanishes at the
    far-detuned phase-matching points when delta_beta0*beta2 > 0.
    """
    entry = coupling_table(fiber, pump, "LB")[Channel.YY.value]
    return first_order_amplitude(entry, fiber, omega)


def as_x_pump(
    fiber: FiberParams, pump: PumpConfig
) -> tuple[FiberParams, PumpConfig, bool]:
    """Relabel axes so the pump sits on x; flag whether a swap happened."""
    if pump.p0y == 0:
        return fiber, pump, False
    if pump.p0x != 0:
        raise PumpNotOnAxis(
            f"pump must be on a single axis, got ({pump.p0x}, {pump.p0y})"
        )
    return (*swap_axes(fiber, pump), True)


def flux_lb(fiber: FiberParams, pump: PumpConfig, omega):
    """Flux densities (f_x, f_y) in ps/rad for a single-axis pump.

    The pump axis carries the scalar spectrum |xi_xx|^2/2pi and the
    orthogonal axis |xi_yy|^2/2pi; the two perturbations are uncoupled, so
    neither spectrum depends on the pump phase.
    """
    fiber, pump, swapped = as_x_pump(fiber, pump)
    table = coupling_table(fiber, pump, "LB")
    f_pump = pair_flux(table, [Channel.XX.value], fiber, omega)
    f_orth = pair_flux(table, [Channel.YY.value], fiber, omega)
    if swapped:
        f_pump, f_orth = f_orth, f_pump
    if np.ndim(f_pump) == 0:
        return float(f_pump), float(f_orth)
    return f_pump, f_orth


def lb_peak_and_width(fiber: FiberParams, pump: PumpConfig) -> tuple[float, float]:
    """Detuning and first-zero width of the far orthogonal-axis peaks.

    detuning ~ sqrt(2*delta_beta0/beta2), width ~ (2*pi/L)/sqrt(2*beta2*delta_beta0).
    Both exist only when delta_beta0 and beta2 share a sign (slow-axis pump
    with normal dispersion, or fast-axis pump with anomalous dispersion).
    """
    fiber, pump, _ = as_x_pump(fiber, pump)
    product = fiber.delta_beta0 * fiber.beta2
    if product <= 0:
        raise NoFarDetunedPeak(
            f"no real phase-matching detuning for delta_beta0*beta2 = {product}"
        )
    detuning = np.sqrt(2.0 * fiber.delta_beta0 / fiber.beta2)
    width = (2.0 * np.pi / fiber.length) / np.sqrt(2.0 * fiber.beta2 * fiber.delta_beta0)
    return float(detuning), float(width)
