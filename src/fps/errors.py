"""Exceptions and warnings shared across the package, and the rules for numbers.

`real` and `count` are the one input rule of the library: every raw real a
caller passes (container fields, powers, gamma, lengths, durations) goes
through `real`, and every step or point count through `count`, so a bool,
a string, inf, NaN, an int beyond double range or a negative power is a
`ValueError` that names the input.  A detuning omega is the exception: it
may be an array, so `fiber._as_omega` converts it, raising the same
`ValueError` for one that is not a number but turning one beyond double
range into NaN or `NumericalFailure`.

`finite` is the one finiteness check of results: the estimators, the raw
spectra (first-order and exact fluxes, the closed forms, the MI
eigenvalue) and the exact propagator's generator pass their results
through it, so an inf or NaN raises `NumericalFailure` or the domain error
a caller names, and is never returned.
"""

import cmath
import math
import operator


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


def real(value, name: str = "value", minimum: float | None = None) -> float:
    """`value` as a finite float, or ValueError naming it `name`.

    A bool (numpy's included: any value whose dtype kind is "b"), a string
    or anything else without __float__ or __index__ (complex included) is
    not a real number; inf, NaN and an int beyond double range (reported as
    +-inf) are not finite; a value below `minimum`, where one is given, is
    rejected too.
    """
    if type(value) is float and math.isfinite(value) and (minimum is None or value >= minimum):
        return value  # the common case, which needs no conversion
    try:
        if isinstance(value, bool) or getattr(getattr(value, "dtype", None), "kind", "") == "b":
            raise TypeError
        number = math.ldexp(value, 0)  # float(value), but never parsed from text
    except TypeError:
        raise ValueError(f"{name} must be a real number, got {value!r}") from None
    except OverflowError:  # an int beyond double range
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number}")
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return number


def count(value, name: str, minimum: int) -> int:
    """`value` as an int of at least `minimum`, or ValueError naming it `name`.

    A count passes `real` first, so a bool or an int beyond double range is
    none, and then needs __index__, so 3.0 is none either.
    """
    real(value, name, minimum)
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
