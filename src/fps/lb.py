"""First-order spectra and peak estimators for low-birefringence fibers.

With the pump on one optical axis, the co-polarized scalar channel is the
same as in the high-birefringence case, while phase-coherent coupling
(retained here because the beat length is not short) opens an extra vector
channel that scatters both pair photons onto the orthogonal axis.  Either
axis may carry the pump: `fiber.coupling_table` puts the scalar channel on
the pumped axis and the orthogonal channel on the other one.
"""

from __future__ import annotations

import numpy as np

from .errors import NoFarDetunedPeak, PumpNotOnAxis
from .fiber import FiberParams, PumpConfig
from .hb import _axis_fluxes


def flux_lb(fiber: FiberParams, pump: PumpConfig, omega):
    """Flux densities (f_x, f_y) in ps/rad for a single-axis pump.

    The pumped axis carries the scalar spectrum and the other axis the
    orthogonal-channel spectrum, |xi|^2/2pi each; the two perturbations are
    uncoupled, so neither spectrum depends on the pump phase.
    """
    return _axis_fluxes(fiber, pump, "LB", omega)


def lb_peak_and_width(fiber: FiberParams, pump: PumpConfig) -> tuple[float, float]:
    """Detuning and first-zero width of the far orthogonal-axis peaks.

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
