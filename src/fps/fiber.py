"""Fiber and pump parameter containers, dispersion relation and derived scales.

The scalar MI eigenvalue and its landmarks (gain peak, band edge, large-gain
asymptote) live here too: they are closed forms of the dispersion relation
in Python floats, so a caller needs no numpy unless it passes an array.

Unit system, fixed throughout the package: lengths in km, times in ps,
powers in W, phases in rad.  Consequently gamma is in 1/(W km), beta2 in
ps^2/km, delta_beta1 in ps/km, delta_beta0 in 1/km and detunings Omega in
rad/ps.  With these choices gamma*P and beta2*Omega^2 share the unit 1/km,
photon-flux spectral densities come out in ps/rad and two-photon
amplitudes in sqrt(ps).
"""

from __future__ import annotations

import cmath
import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from types import MappingProxyType
from typing import NamedTuple

from .errors import (
    DegenerateBirefringence, NumericalFailure, PumpNotOnAxis, ZeroDispersion, ZeroGain, ZeroPower,
    count, finite, real,
)


@dataclass(frozen=True)
class FiberParams:
    """Linear and nonlinear constants of a birefringent fiber.

    Parameters
    ----------
    gamma : float
        Nonlinearity parameter, 1/(W km).
    beta2 : float
        Group-velocity dispersion, ps^2/km, common to both axes.
    length : float
        Fiber length L, km.
    delta_beta0 : float
        Phase mismatch beta0x - beta0y, 1/km.
    delta_beta1 : float
        Group mismatch beta1x - beta1y, ps/km.  Positive under the
        x-is-slow-axis convention; use `normalize_convention` to fold a
        negative value into an axis relabel.

    The y axis is the reference: beta0y = beta1y = 0.  An absolute group
    delay common to both axes enters only as a common phase.

    Every field is stored as the float `errors.real` makes of it.
    """

    gamma: float
    beta2: float
    length: float
    delta_beta0: float = 0.0
    delta_beta1: float = 0.0

    def __post_init__(self) -> None:
        # gamma=0 and length=0 stay representable: several degenerate
        # limits (linear propagation, zero-length identity map) are
        # exercised by tests.  Scenario loading enforces strict positivity.
        for name in (field.name for field in fields(self)):
            minimum = 0 if name in ("gamma", "length") else None
            object.__setattr__(self, name, real(getattr(self, name), name, minimum))


@dataclass(frozen=True)
class PumpConfig:
    """Monochromatic pump powers and phases on the two optical axes.

    duration is the optional pump duration T in ps; setting it enables
    discrete-mode quantities (mode spacing 2*pi/T).  Every field but a None
    duration is stored as the float `errors.real` makes of it.
    """

    p0x: float
    p0y: float = 0.0
    theta0x: float = 0.0
    theta0y: float = 0.0
    duration: float | None = None

    def __post_init__(self) -> None:
        for name in (field.name for field in fields(self)):
            if getattr(self, name) is not None:
                minimum = 0 if name in ("p0x", "p0y") else None
                object.__setattr__(self, name, real(getattr(self, name), name, minimum))
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")

    @property
    def total(self) -> float:
        """Total pump power P0 = p0x + p0y, W."""
        return self.p0x + self.p0y


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid of frequency detunings Omega in rad/ps.

    The bounds are stored as floats and n_points as an int, as `errors.real`
    and `errors.count` make them.
    """

    omega_min: float
    omega_max: float
    n_points: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega_min", real(self.omega_min, "omega_min"))
        object.__setattr__(self, "omega_max", real(self.omega_max, "omega_max"))
        object.__setattr__(self, "n_points", count(self.n_points, "n_points", 2))
        bounds = f"[{self.omega_min}, {self.omega_max}]"
        if not self.omega_min < self.omega_max:
            raise ValueError(f"omega_min must be < omega_max, got {bounds}")
        if self.omega_max - self.omega_min == math.inf:  # 0*inf would make a point NaN
            raise ValueError(f"omega_max - omega_min must be finite, got {bounds}")

    @property
    def omegas(self):
        """The grid as a numpy array, np.linspace(omega_min, omega_max, n_points)."""
        import numpy as np

        return np.linspace(self.omega_min, self.omega_max, self.n_points)

    @property
    def omega_list(self) -> list[float]:
        """The grid as Python floats, bit for bit the values of `omegas`.

        np.linspace's own arithmetic: i*step + omega_min with step =
        (omega_max - omega_min)/(n_points - 1), (i/(n_points - 1))*span +
        omega_min where the step underflows to 0, and omega_max last.
        """
        span = self.omega_max - self.omega_min
        div = self.n_points - 1
        step = span / div
        if step == 0:
            values = [i / div * span + self.omega_min for i in range(div)]
        else:
            values = [i * step + self.omega_min for i in range(div)]
        values.append(self.omega_max)
        return values


def alpha_param(fiber: FiberParams, pump: PumpConfig) -> float:
    """Dimensionless overlap parameter alpha = beta2*gamma*P0/delta_beta1^2.

    |alpha| >= 1 signals that scalar and vector scattering bands overlap;
    delta_beta1^2 = 0 (underflow included) raises DegenerateBirefringence.
    """
    walk_off_sq = fiber.delta_beta1 * fiber.delta_beta1
    if walk_off_sq == 0:
        raise DegenerateBirefringence("alpha needs delta_beta1^2 > 0 (low-birefringence regime)")
    return finite(fiber.beta2 * fiber.gamma * pump.total / walk_off_sq, NumericalFailure, "alpha")


def nonlinear_length(gamma: float, power: float) -> float:
    """Nonlinearity length 1/(gamma*P) in km; gamma*P = 0, underflow included, raises ZeroPower.

    A negative gamma or power raises ValueError.
    """
    gp = real(gamma, "gamma", 0) * real(power, "power", 0)
    if gp == 0:
        raise ZeroPower("nonlinear length diverges at gamma*P = 0")
    return finite(1.0 / gp, NumericalFailure, "nonlinear length")


def cpm_phase(gamma: float, p_same: float, p_orth: float, z: float) -> float:
    """Cross-phase-modulation phase 2*gamma*(P_same + P_orth/3)*z in rad.

    The orthogonal-axis power is weighted by 1/3.  A negative argument
    raises ValueError.
    """
    gamma = real(gamma, "gamma", 0)
    phase = 2.0 * gamma * (real(p_same, "p_same", 0) + real(p_orth, "p_orth", 0) / 3.0)
    return finite(phase * real(z, "z", 0), NumericalFailure, "XPM phase")


def _scalar_block(fiber: FiberParams, power: float, omega):
    """Coupling gamma*P and phase rate 2*gamma*P + beta2*Omega^2 of the scalar 2x2 block.

    A power that is not a finite real >= 0 raises ValueError.
    """
    gp = fiber.gamma * real(power, "power", 0)
    return gp, 2.0 * gp + fiber.beta2 * (omega * omega)


def _as_omega(omega):
    """omega as a Python float if it is one number, else as a float array.

    One number is anything that is neither a list nor a tuple and has no
    dimension (a Python or numpy int or float, a 0-d array, a Decimal, a
    Fraction), and `errors.real` reads it.  A sequence or an array of finite ints or floats
    is accepted by one np.isfinite pass; any other is read entry by entry
    by `real`, so an inf, a NaN or an int beyond double range raises
    ValueError (omega must be finite), and None, a bool, a string or a
    complex (which numpy alone would read as NaN, 1 or 1.5, or drop the
    imaginary part of) raises ValueError naming the whole omega.
    """
    if not isinstance(omega, (list, tuple)) and not getattr(omega, "ndim", 0):
        return real(omega, "omega")
    import numpy as np

    try:
        array = np.asarray(omega)
        if array.dtype.kind in "iuf" and np.isfinite(array).all():
            return np.asarray(array, dtype=float)
        if array.dtype.kind not in "fO":  # bool, complex or text: no entry is a number
            raise TypeError
        return np.array([real(entry, "omega") for entry in array.flat]).reshape(array.shape)
    except (TypeError, ValueError) as error:
        if str(error).startswith("omega must be finite"):  # `real` on a number entry
            raise
        raise ValueError(f"omega must be a real number, got {omega!r}") from None


def lambda_param(fiber: FiberParams, power: float, omega):
    """Parametric eigenvalue lambda(Omega), principal square root.

    lambda^2 = (gamma P)^2 - (2 gamma P + beta2 Omega^2)^2 / 4: real (gain)
    inside the phase-matched band of an anomalous-dispersion fiber, purely
    imaginary (oscillation) outside and for normal dispersion.

    omega is read by `_as_omega`.  One number runs in Python floats
    (cmath.sqrt) and returns a complex bit-identical to the array path; a
    sequence or an array runs in numpy, returning complex of its shape.  A
    lambda that is inf or NaN raises NumericalFailure.
    """
    omega = _as_omega(omega)
    gp, rate = _scalar_block(fiber, power, omega)
    if isinstance(omega, float):
        return finite(cmath.sqrt(gp * gp - rate * rate / 4.0), NumericalFailure, "lambda")
    import numpy as np

    lam = np.sqrt((gp * gp - rate * rate / 4.0).astype(complex))
    return finite(lam, NumericalFailure, "lambda")


def mi_gain(fiber: FiberParams, power: float, omega):
    """MI gain g(Omega) = Re(lambda) clipped at zero, in 1/km: a float or an array."""
    lam = lambda_param(fiber, power, omega)
    return max(lam.real, 0.0) if isinstance(lam, complex) else lam.real.clip(0.0)


def _mi_band_scale(fiber: FiberParams, power: float) -> float:
    """gamma*P/|beta2| of an MI band: beta2 = 0 raises ZeroDispersion, no gain ZeroGain.

    power is the float the caller's `errors.real` returned.
    """
    if fiber.beta2 == 0:
        raise ZeroDispersion("MI gain band requires beta2 < 0")
    if fiber.beta2 > 0 or power == 0:
        raise ZeroGain("no MI gain for normal dispersion or zero power")
    return fiber.gamma * power / abs(fiber.beta2)


def mi_peak(fiber: FiberParams, power: float) -> tuple[float, float]:
    """(Omega_max, g_max) of the MI gain: (sqrt(2 gamma P/|beta2|), gamma P)."""
    power = real(power, "power", 0)
    omega_max = math.sqrt(2.0 * _mi_band_scale(fiber, power))
    return finite(omega_max, NumericalFailure, "MI peak detuning"), fiber.gamma * power


def mi_support_edge(fiber: FiberParams, power: float) -> float:
    """Edge of the gain band: gain vanishes for |Omega| >= 2 sqrt(gamma P/|beta2|)."""
    scale = _mi_band_scale(fiber, real(power, "power", 0))
    return finite(2.0 * math.sqrt(scale), NumericalFailure, "MI band edge")


class AsymptoticFlux(NamedTuple):
    value: float
    valid: bool


def mi_asymptotic_flux(fiber: FiberParams, power: float, omega: float) -> AsymptoticFlux:
    """Large-gain asymptote (gamma^2 P^2 / 4 g^2) e^{2 g L} / 2pi.

    valid is True when g(omega)*L >= 3; the value is returned regardless.
    omega and power are read by `errors.real`, so an omega that is not one
    finite real (inf, NaN and an int beyond double range included) or a
    power that is not a finite real >= 0 raises ValueError; g^2 = 0
    (underflow included) raises ZeroGain, an inf or NaN value
    NumericalFailure.
    """
    omega, power = real(omega, "omega"), real(power, "power", 0)
    gain = mi_gain(fiber, power, omega)
    gain_sq = gain * gain
    if gain_sq == 0:
        raise ZeroGain(f"gain^2 vanishes at omega = {omega}")
    gp = fiber.gamma * power
    try:
        growth = math.exp(2.0 * gain * fiber.length)
    except OverflowError:
        growth = math.inf
    value = (gp * gp / (4.0 * gain_sq)) * growth / (2.0 * math.pi)
    value = finite(value, NumericalFailure, f"asymptotic flux at omega = {omega}")
    return AsymptoticFlux(value=value, valid=gain * fiber.length >= 3.0)


def bandwidth_ratio(fiber: FiberParams, power: float, length: float) -> float:
    """Ratio of the MI band width to the scalar first-zero width.

    4 sqrt(gamma P/|beta2|) over 2 sqrt(2 pi/(|beta2| L)); beta2 cancels,
    leaving sqrt(2/pi) * sqrt(gamma P L) ~ 0.8 sqrt(gamma P L).  A negative
    power or length raises ValueError.
    """
    power, length = real(power, "power", 0), real(length, "length", 0)
    if fiber.beta2 == 0:
        raise ZeroDispersion("both widths require beta2 != 0")
    ratio = math.sqrt(2.0 / math.pi) * math.sqrt(fiber.gamma * power * length)
    return finite(ratio, NumericalFailure, "bandwidth ratio")


def swap_axes(fiber: FiberParams, pump: PumpConfig) -> tuple[FiberParams, PumpConfig]:
    """Relabel the optical axes x <-> y.

    A pure relabel: the signs of both mismatch parameters flip and the pump
    components are exchanged.  The new y axis is the reference again, which
    shifts both axes by the same phase and changes no output.
    """
    swapped_fiber = replace(fiber, delta_beta0=-fiber.delta_beta0, delta_beta1=-fiber.delta_beta1)
    swapped_pump = replace(
        pump, p0x=pump.p0y, p0y=pump.p0x, theta0x=pump.theta0y, theta0y=pump.theta0x
    )
    return swapped_fiber, swapped_pump


def normalize_convention(
    fiber: FiberParams, pump: PumpConfig
) -> tuple[FiberParams, PumpConfig]:
    """Return (fiber, pump) relabeled by `swap_axes` so that delta_beta1 >= 0."""
    if fiber.delta_beta1 >= 0:
        return fiber, pump
    return swap_axes(fiber, pump)


class Coupling(NamedTuple):
    """One independent entry A_jk(z) = C exp(i R z) of the coupled-mode generator.

    The coupling C = i*c*exp(i*theta) is constant (c signed, 1/km); the
    phase rate is R(Omega) = -(a*Omega + b*Omega^2 + k + e) in 1/km, with
    a = s*delta_beta1, b = t*beta2 and e = d*delta_beta0 resolved against
    the fiber when the table is built (s, t, d the entry's signs) and k
    the Kerr term.
    """

    c: float
    theta: float
    a: float
    b: float
    k: float
    e: float = 0.0

    def rate(self, omega):
        """Phase rate R(Omega) in 1/km: a float for a float omega, an array for an array."""
        return -(self.a * omega + self.b * (omega * omega) + self.k + self.e)


class Channel(enum.Enum):
    """Pair channel: first letter anti-Stokes axis, second Stokes axis.

    The value is the channel's (row, column) entry in `coupling_table`.
    """

    XX = (0, 1)
    YY = (2, 3)
    XY = (0, 3)
    YX = (2, 1)


#: Coupling-table entries of the four pair channels, in `Channel` order.  A
#: tuple, since hot paths iterate it and an enum pass costs ten times more.
_PAIR_ENTRIES = tuple(channel.value for channel in Channel)


#: The last table `coupling_table` built, as (fiber, pump, regime, table,
#: pairs), pairs holding each pair entry in `Channel` order as the plain
#: tuple (1j*(c*L), c, theta, a, b, k, e), None where the table lacks one.
#: Holding the fiber and pump keeps their ids from being reused while the
#: entry stands.
_last_table: tuple | None = None


def coupling_table(
    fiber: FiberParams, pump: PumpConfig, regime: str
) -> Mapping[tuple[int, int], Coupling]:
    """Independent entries of the coupled-mode generator, keyed by (row, column).

    Basis (a_x(+Omega), a_x^dag(-Omega), a_y(+Omega), a_y^dag(-Omega)).  The
    pair channels sit at the `Channel` entries XX (0, 1), YY (2, 3),
    XY (0, 3) and YX (2, 1); in HB (0, 2) and (1, 3) convert frequency
    between the axes.  The remaining entries follow from the Bogoliubov
    structure A = -J A^dag J.  LB needs the pump on a single axis (a pump on
    neither counts as x).  It keeps the scalar channel of the pumped axis
    plus the orthogonal channel on the other axis, which the linear
    birefringence mismatches by d*delta_beta0 with d = -2 for an x pump and
    +2 for a y pump.

    The table is a read-only mapping.  The last one built is returned again
    when the same fiber and pump objects come back with the same regime, so
    a detuning sweep builds it once.  The key is object identity, not
    equality: equal pumps can differ in the sign of a zero phase.
    """
    return _cached_table(fiber, pump, regime)[3]


def _cached_table(fiber: FiberParams, pump: PumpConfig, regime: str) -> tuple:
    """`_last_table`, rebuilt unless it holds these fiber and pump objects and regime."""
    global _last_table
    last = _last_table
    if last is not None and last[0] is fiber and last[1] is pump and last[2] == regime:
        return last
    table = _table_entries(fiber, pump, regime)
    pairs = tuple(
        (1j * (table[key].c * fiber.length), *table[key]) if key in table else None
        for key in _PAIR_ENTRIES
    )
    _last_table = (fiber, pump, regime, MappingProxyType(table), pairs)
    return _last_table


def _abs2(z):
    """|z|^2 as re*re + im*im: a float for a complex or a float, an array for an array."""
    return z.real * z.real + z.imag * z.imag


def pair_fluxes(xx, yy, xy, yx):
    """Flux densities (f_x, f_y) in ps/rad from the pair entries, in `Channel` order.

    The a_j(+Omega) row of the generator couples to both creation operators,
    so f_x = (|xx|^2 + |xy|^2)/2pi and f_y = (|yy|^2 + |yx|^2)/2pi, whether
    the entries are first-order amplitudes or transfer-matrix entries read
    at `_PAIR_ENTRIES`.
    |z|^2 is re*re + im*im, so a Python complex gives the bits of an array
    element: numpy's complex abs (a SIMD kernel) and CPython's round
    differently, so neither could serve both.

    A flux that is inf or NaN raises NumericalFailure.  The check reads
    (f_x + f_y)/2, which is inf or NaN exactly where f_x or f_y is and
    cannot overflow from two finite fluxes, so a point-by-point float loop
    and one array call name the same first value.
    """
    f_x = (_abs2(xx) + _abs2(xy)) / (2.0 * math.pi)
    f_y = (_abs2(yy) + _abs2(yx)) / (2.0 * math.pi)
    finite(0.5 * f_x + 0.5 * f_y, NumericalFailure, "pair flux (f_x + f_y)/2")
    return f_x, f_y


def _table_entries(
    fiber: FiberParams, pump: PumpConfig, regime: str
) -> dict[tuple[int, int], Coupling]:
    """The entries of `coupling_table`, built afresh and resolved against the fiber."""
    g = fiber.gamma
    px, py, tx, ty = pump.p0x, pump.p0y, pump.theta0x, pump.theta0y
    xx, yy, xy, yx = _PAIR_ENTRIES

    def entry(c: float, theta: float, s: float, t: float, k: float, d: float = 0.0) -> Coupling:
        return Coupling(c, theta, s * fiber.delta_beta1, t * fiber.beta2, k, d * fiber.delta_beta0)

    def scalar(p: float, theta: float) -> Coupling:
        return entry(g * p, 2.0 * theta, 0.0, 1.0, 2.0 * g * p)

    if regime == "LB":
        if px != 0 and py != 0:
            raise PumpNotOnAxis(f"regime LB requires a single-axis pump, got ({px}, {py})")
        on_y = py != 0
        p, theta = (py, ty) if on_y else (px, tx)
        d = 2.0 if on_y else -2.0
        orth = entry(g * p / 3.0, 2.0 * theta, 0.0, 1.0, -(2.0 / 3.0) * g * p, d)
        pumped, other = (yy, xx) if on_y else (xx, yy)
        return {pumped: scalar(p, theta), other: orth}
    if regime != "HB":
        raise ValueError(f"regime must be 'HB' or 'LB', got {regime!r}")
    cross = (2.0 / 3.0) * g * math.sqrt(px * py)
    kerr = g * (px + py)
    return {
        xx: scalar(px, tx),
        yy: scalar(py, ty),
        xy: entry(cross, tx + ty, 1.0, 1.0, kerr),
        yx: entry(cross, tx + ty, -1.0, 1.0, kerr),
        (0, 2): entry(cross, tx - ty, 1.0, 0.0, g * (px - py)),
        (1, 3): entry(-cross, ty - tx, 1.0, 0.0, g * (py - px)),
    }
