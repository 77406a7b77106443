"""Exceptions and warnings shared across the package, and `finite`, the overflow rule.

`finite` is the one finiteness check of the library: the estimators, the
raw spectra (first-order and exact fluxes, the closed forms, the MI
eigenvalue) and the exact propagator's generator pass their results
through it, so an inf or NaN raises `NumericalFailure` or the domain error
a caller names, and is never returned.
"""

import cmath


class FpsError(Exception):
    """Base class for domain errors raised by this package."""


class DegenerateBirefringence(FpsError):
    """Group birefringence is zero where a finite delta_beta1 is required."""


class ZeroPower(FpsError):
    """Pump power is zero where a finite power is required."""


class ZeroDispersion(FpsError):
    """beta2 is zero where a finite group-velocity dispersion is required."""


class PumpNotOnAxis(FpsError):
    """Low-birefringence formulas require the pump on a single optical axis."""


class NoFarDetunedPeak(FpsError):
    """delta_beta0 * beta2 <= 0: the LB sinc argument has no real zero."""


class NumericalFailure(FpsError):
    """A computed result is not finite or breaks an invariant beyond tolerance."""


class StepCountTooSmall(NumericalFailure):
    """Integration step count left a symplectic defect above tolerance."""


class ZeroGain(FpsError):
    """Parametric gain vanishes at the requested detuning."""


class EmptyState(FpsError):
    """All four two-photon amplitudes vanish at the requested detuning."""


class StimulatedOrderingWarning(UserWarning):
    """Stimulated term |xi|^4 exceeds |xi|^2 * P_T in the second-order count."""


def finite(value, error: type[Exception], what: str):
    """Return `value`, or raise `error` when it is inf or NaN, or holds one.

    A Python int, float or complex (numpy's float64 included) is tested by
    `cmath.isfinite`, without numpy.  Anything else is taken as an array,
    which loads numpy, and the message names its first non-finite element
    in C order.  The message is formatted only when the check fails.
    """
    if isinstance(value, (int, float, complex)):
        if cmath.isfinite(value):
            return value
    else:
        import numpy as np

        if np.isfinite(value).all():
            return value
        value = next(entry for entry in np.ravel(value) if not cmath.isfinite(entry))
    raise error(f"{what} is not finite, got {value}")
