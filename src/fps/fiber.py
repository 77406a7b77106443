"""Fiber and pump parameter containers, dispersion relation and derived scales.

Unit system, fixed throughout the package: lengths in km, times in ps,
powers in W, phases in rad.  Consequently gamma is in 1/(W km), beta2 in
ps^2/km, delta_beta1 in ps/km, delta_beta0 in 1/km and detunings Omega in
rad/ps.  With these choices gamma*P and beta2*Omega^2 share the unit 1/km,
photon-flux spectral densities come out in ps/rad and two-photon
amplitudes in sqrt(ps).
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from types import MappingProxyType
from typing import NamedTuple

from .errors import DegenerateBirefringence, PumpNotOnAxis, ZeroPower


def _require_finite_fields(params) -> None:
    """Raise ValueError if any field of a parameter container is not a finite real number."""
    for field in fields(params):
        value = getattr(params, field.name)
        if value is None:
            continue
        try:
            finite = math.isfinite(value)
        except TypeError:
            raise ValueError(f"{field.name} must be a real number, got {value!r}") from None
        if not finite:
            raise ValueError(f"{field.name} must be finite, got {value}")


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
    beta1_ref : float
        Absolute inverse group velocity of the y axis, ps/km.  Enters only
        as a common phase, so the default 0 is physically inert.
    """

    gamma: float
    beta2: float
    length: float
    delta_beta0: float = 0.0
    delta_beta1: float = 0.0
    beta1_ref: float = 0.0

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        # gamma=0 and length=0 stay representable: several degenerate
        # limits (linear propagation, zero-length identity map) are
        # exercised by tests.  Scenario loading enforces strict positivity.
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.length < 0:
            raise ValueError(f"length must be >= 0, got {self.length}")


@dataclass(frozen=True)
class PumpConfig:
    """Monochromatic pump powers and phases on the two optical axes.

    duration is the optional pump duration T in ps; setting it enables
    discrete-mode quantities (mode spacing 2*pi/T).
    """

    p0x: float
    p0y: float = 0.0
    theta0x: float = 0.0
    theta0y: float = 0.0
    duration: float | None = None

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        if self.p0x < 0 or self.p0y < 0:
            raise ValueError(f"pump powers must be >= 0, got ({self.p0x}, {self.p0y})")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")

    @property
    def total(self) -> float:
        """Total pump power P0 = p0x + p0y, W."""
        return self.p0x + self.p0y


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid of frequency detunings Omega in rad/ps."""

    omega_min: float
    omega_max: float
    n_points: int

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        try:
            operator.index(self.n_points)
        except TypeError:
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}") from None
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")
        if not self.omega_min < self.omega_max:
            raise ValueError(
                f"omega_min must be < omega_max, got [{self.omega_min}, {self.omega_max}]"
            )

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


def beta(fiber: FiberParams, axis: str, omega: float) -> float:
    """Propagation constant beta_j(Omega) in 1/km on axis j in {"x", "y"}.

    Second-order Taylor form beta0j + beta1j*Omega + (beta2/2)*Omega^2 with
    the absolute offsets fixed by convention: beta0y = 0, beta1y = beta1_ref,
    so that beta_x - beta_y = delta_beta0 + delta_beta1*Omega exactly.
    """
    if axis == "x":
        beta0, beta1 = fiber.delta_beta0, fiber.beta1_ref + fiber.delta_beta1
    elif axis == "y":
        beta0, beta1 = 0.0, fiber.beta1_ref
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return beta0 + beta1 * omega + 0.5 * fiber.beta2 * omega**2


def alpha_param(fiber: FiberParams, pump: PumpConfig) -> float:
    """Dimensionless overlap parameter alpha = beta2*gamma*P0/delta_beta1^2.

    |alpha| >= 1 signals that scalar and vector scattering bands overlap.
    """
    if fiber.delta_beta1 == 0:
        raise DegenerateBirefringence(
            "alpha is undefined for delta_beta1 = 0 (low-birefringence regime)"
        )
    return fiber.beta2 * fiber.gamma * pump.total / fiber.delta_beta1**2


def nonlinear_length(gamma: float, power: float) -> float:
    """Nonlinearity length 1/(gamma*P) in km."""
    if power == 0:
        raise ZeroPower("nonlinear length diverges at zero power")
    if gamma == 0:
        raise ZeroPower("nonlinear length diverges at zero gamma")
    return 1.0 / (gamma * power)


def cpm_phase(gamma: float, p_same: float, p_orth: float, z: float) -> float:
    """Cross-phase-modulation phase 2*gamma*(P_same + P_orth/3)*z in rad.

    The orthogonal-axis power is weighted by 1/3.
    """
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z}")
    return 2.0 * gamma * (p_same + p_orth / 3.0) * z


def swap_axes(fiber: FiberParams, pump: PumpConfig) -> tuple[FiberParams, PumpConfig]:
    """Relabel the optical axes x <-> y.

    Swapping the labels flips the signs of both mismatch parameters and
    exchanges the pump components; the old x-axis inverse group velocity
    becomes the new reference.
    """
    swapped_fiber = replace(
        fiber,
        delta_beta0=-fiber.delta_beta0,
        delta_beta1=-fiber.delta_beta1,
        beta1_ref=fiber.beta1_ref + fiber.delta_beta1,
    )
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
    phase rate is R(Omega) = -(s*delta_beta1*Omega + t*beta2*Omega^2 + k
    + d*delta_beta0) in 1/km, with k the Kerr term.
    """

    c: float
    theta: float
    s: float
    t: float
    k: float
    d: float = 0.0

    def rate(self, fiber: FiberParams, omega):
        """Phase rate R(Omega) in 1/km: a float for a float omega, an array for an array."""
        return -(
            self.s * fiber.delta_beta1 * omega
            + self.t * fiber.beta2 * (omega * omega)
            + self.k
            + self.d * fiber.delta_beta0
        )


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


#: The last table `coupling_table` built, as (fiber, pump, regime, table).
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
    global _last_table
    last = _last_table
    if last is not None and last[0] is fiber and last[1] is pump and last[2] == regime:
        return last[3]
    table = MappingProxyType(_table_entries(fiber, pump, regime))
    _last_table = (fiber, pump, regime, table)
    return table


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
    """
    return (_abs2(xx) + _abs2(xy)) / (2.0 * math.pi), (_abs2(yy) + _abs2(yx)) / (2.0 * math.pi)


def _table_entries(
    fiber: FiberParams, pump: PumpConfig, regime: str
) -> dict[tuple[int, int], Coupling]:
    """The entries of `coupling_table`, built afresh."""
    g = fiber.gamma
    px, py, tx, ty = pump.p0x, pump.p0y, pump.theta0x, pump.theta0y
    xx, yy, xy, yx = _PAIR_ENTRIES

    def scalar(p: float, theta: float) -> Coupling:
        return Coupling(g * p, 2.0 * theta, s=0.0, t=1.0, k=2.0 * g * p)

    if regime == "LB":
        if px != 0 and py != 0:
            raise PumpNotOnAxis(f"regime LB requires a single-axis pump, got ({px}, {py})")
        on_y = py != 0
        p, theta = (py, ty) if on_y else (px, tx)
        d = 2.0 if on_y else -2.0
        orth = Coupling(g * p / 3.0, 2.0 * theta, s=0.0, t=1.0, k=-(2.0 / 3.0) * g * p, d=d)
        pumped, other = (yy, xx) if on_y else (xx, yy)
        return {pumped: scalar(p, theta), other: orth}
    if regime != "HB":
        raise ValueError(f"regime must be 'HB' or 'LB', got {regime!r}")
    cross = (2.0 / 3.0) * g * math.sqrt(px * py)
    kerr = g * (px + py)
    return {
        xx: scalar(px, tx),
        yy: scalar(py, ty),
        xy: Coupling(cross, tx + ty, s=1.0, t=1.0, k=kerr),
        yx: Coupling(cross, tx + ty, s=-1.0, t=1.0, k=kerr),
        (0, 2): Coupling(cross, tx - ty, s=1.0, t=0.0, k=g * (px - py)),
        (1, 3): Coupling(-cross, ty - tx, s=1.0, t=0.0, k=g * (py - px)),
    }
