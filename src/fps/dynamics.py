"""Exact linearized dynamics: transfer matrices, parametric spectra, MI gain.

The coupled-mode equations for the four operators
(a_x(+Omega), a_x^dag(-Omega), a_y(+Omega), a_y^dag(-Omega)) are linear
with oscillatory coefficients, d/dz v = A(z) v with
A_jk(z) = C_jk exp(i (phi_k - phi_j) z).  In the frame w_j = exp(i phi_j z) v_j
the coefficients are constant, so the 4x4 Bogoliubov transfer matrix per
detuning is exact in closed form,
M(L) = diag(exp(-i phi L)) expm((C + i diag(phi)) L), computed for a whole
grid by one batched scaling-and-squaring matrix exponential.  Fixed-step
RK4 on the same equations is kept as an independent oracle, run when a
step count N is given.  Since A(z + t) = D(z)^-1 A(t) D(z) with
D(z) = diag(exp(i phi z)), every RK4 step matrix is P_n = D(nh)^-1 P_0 D(nh)
and the N-step product telescopes to D(L)^-1 (D(h) P_0)^N, a power taken
by binary powering in about 2 log2 N batched products rather than N steps.
Commutator preservation is the symplectic condition
M J M^dag = J with J = diag(+1,-1,+1,-1), checked after either propagator;
the vacuum photon flux follows from the creation-operator columns of M.
For a single-axis pump the 2x2 scalar block has the closed
parametric-amplifier solution, which doubles as the analytic oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, PumpNotOnAxis, StepCountTooSmall, count, finite, real
from .fiber import (
    _PAIR_ENTRIES, FiberParams, FrequencyGrid, PumpConfig, _as_omega, _scalar_block,
    coupling_table, lambda_param, pair_fluxes, swap_axes,
)

#: Bogoliubov metric in the (a_x, a_x^dag, a_y, a_y^dag) basis.
J_METRIC = np.diag([1.0, -1.0, 1.0, -1.0])

#: Largest relative symplectic defect (`_relative_defect`) a propagator may return.
DEFECT_LIMIT = 1e-6


@dataclass(frozen=True, eq=False)
class GainCurve:
    """Parametric eigenvalue lambda and MI gain over a frequency grid."""

    grid: FrequencyGrid
    lambda_vals: np.ndarray
    gain_vals: np.ndarray


def _coefficient_factors(
    fiber: FiberParams, pump: PumpConfig, regime: str, omegas
) -> tuple[np.ndarray, np.ndarray]:
    """Split A(z) = C * exp(i R z) into constant coefficients and phase rates.

    The independent entries come from `coupling_table`; A = -J A^dag J
    fills the rest: C_kj = -J_j J_k conj(C_jk) and R_kj = -R_jk.
    Returns (C, R) with shape omegas.shape + (4, 4); C is complex, R real.
    """
    w = np.asarray(omegas, dtype=float)
    shape = w.shape + (4, 4)
    coeff = np.zeros(shape, dtype=complex)
    rate = np.zeros(shape, dtype=float)
    for (j, k), entry in coupling_table(fiber, pump, regime).items():
        c = 1j * entry.c * np.exp(1j * entry.theta)
        same_metric = J_METRIC[j, j] == J_METRIC[k, k]
        coeff[..., j, k] = c
        coeff[..., k, j] = -np.conj(c) if same_metric else np.conj(c)
        rate[..., j, k] = entry.rate(fiber, w)
        rate[..., k, j] = -rate[..., j, k]
    return coeff, rate


def _metric_residual(matrix: np.ndarray) -> np.ndarray:
    """|M J M^dag - J| entrywise over a (..., 4, 4) stack."""
    prod = (matrix * np.diag(J_METRIC)) @ matrix.conj().swapaxes(-1, -2)
    return np.abs(prod - J_METRIC)


def symplectic_defect(matrix: np.ndarray) -> float:
    """Largest entry of |M J M^dag - J| over a (..., 4, 4) stack."""
    return float(_metric_residual(matrix).max())


def _relative_defect(matrix: np.ndarray) -> float:
    """Largest per-matrix defect relative to max(1, max |M|^2).

    Roundoff in M J M^dag grows like eps * |M|^2, so an absolute bound would
    reject accurate matrices at high parametric gain.
    """
    residual = _metric_residual(matrix).max(axis=(-2, -1))
    scale = np.maximum(1.0, (np.abs(matrix) ** 2).max(axis=(-2, -1)))
    return float((residual / scale).max())


#: Degree-13 Pade coefficients b_0..b_13 and the 1-norm bound theta_13 up
#: to which that approximant is accurate to double precision without
#: scaling (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a (..., n, n) stack by Pade-13 scaling and squaring.

    Each matrix is scaled by 2^-s with s = max(0, ceil(log2(|A|_1/theta_13))),
    replaced by its degree-13 Pade approximant, and squared s times.  The
    scaling uses finite norms only (a non-finite norm counts as 0), so s is
    at most 1022 whatever the input; non-finite entries come out as
    non-finite matrices, which callers must reject.
    """
    b = _PADE13
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    norm = np.where(np.isfinite(norm), norm, 0.0)
    s = np.ceil(np.log2(np.maximum(norm / _THETA13, 1.0))).astype(int)
    a = a * np.exp2(-s)[..., None, None]
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    result = np.linalg.solve(v - u, v + u)
    for squaring in range(int(s.max(initial=0))):
        more = s > squaring
        result[more] = result[more] @ result[more]
    return result


def _mode_offsets(rate: np.ndarray) -> np.ndarray:
    """Per-mode wave-number offsets phi with rate[j, k] = phi[k] - phi[j].

    phi = (0, R01, R02, R02 + R23) holds on every entry where the coupling
    is nonzero, in both regimes (LB has no cross-axis coupling, so its
    R02 = 0 is a free choice).  Shape omegas.shape + (4,).
    """
    r01, r02, r23 = rate[..., 0, 1], rate[..., 0, 2], rate[..., 2, 3]
    return np.stack([np.zeros_like(r01), r01, r02, r02 + r23], axis=-1)


def _rk4_power_offset(
    coeff: np.ndarray, rate: np.ndarray, phi: np.ndarray, h: float, steps: int
) -> np.ndarray:
    """(D(h) P0)^steps - I for the RK4 step P0 from z = 0, D(h) = diag(exp(i phi h)).

    P0 is built from the sub-step coefficients C, C exp(i R h/2) and
    C exp(i R h), as a stepwise loop would build it.  Binary powering
    carries every power B^m of B = D(h) P0 as its offset B^m - I (a squaring
    is Y -> 2Y + Y Y, a product T -> T + Y + Y T), so the identity is never
    added to an O(h) step, where it would round away the step's low bits.
    """
    a_mid = coeff * np.exp(1j * rate * (0.5 * h))
    a_end = coeff * np.exp(1j * rate * h)
    k2 = a_mid + (0.5 * h) * (a_mid @ coeff)
    k3 = a_mid + (0.5 * h) * (a_mid @ k2)
    k4 = a_end + h * (a_end @ k3)
    step_offset = (h / 6.0) * (coeff + 2.0 * k2 + 2.0 * k3 + k4)
    # D(h) P0 - I = (D(h) - I) + D(h) (P0 - I), where the diagonal
    # D(h) - I = 2i sin(phi h/2) exp(i phi h/2) keeps its low bits.
    half = 0.5 * phi * h
    power = np.exp(2j * half)[..., None] * step_offset
    power += (2j * np.sin(half) * np.exp(1j * half))[..., None] * np.eye(4)
    total = np.zeros_like(power)
    while True:
        if steps & 1:
            total += power + power @ total
        steps >>= 1
        if not steps:
            return total
        power = 2.0 * power + power @ power


def integrate_transfer_grid(
    fiber: FiberParams,
    pump: PumpConfig,
    regime: str,
    omegas,
    steps: int | None = None,
) -> tuple[np.ndarray, int]:
    """Transfer matrices for a batch of detunings.

    Without `steps`, the exact rotating-frame propagator
    M(L) = diag(exp(-i phi L)) expm((C + i diag(phi)) L) for the whole batch
    in one call of the numpy Pade-13 scaling-and-squaring kernel `_expm`
    (accurate also at the MI band edge where eigenvectors coalesce, unlike
    an eigendecomposition); a generator with a non-finite entry raises
    NumericalFailure first.  The returned step count is 0.  With `steps`,
    the product of that many fixed-step RK4 steps, the independent oracle,
    with N chosen by the caller.  It is evaluated exactly as the telescoped
    power D(L)^-1 (D(h) P_0)^steps of the first step P_0 (see the module
    docstring), so a call costs about 2 log2(steps) batched 4x4
    multiplications, not four per step.  steps must be an integer >= 1
    (`errors.count`) whose step length L/steps is a positive float, else
    ValueError.  Returns (matrices, steps) with matrices of shape
    omegas.shape + (4, 4).

    The symplectic defect of each matrix, relative to max(1, max |M|^2), is
    checked afterwards: one above DEFECT_LIMIT, or a non-finite one, raises
    StepCountTooSmall for RK4 and NumericalFailure for the matrix
    exponential.
    """
    omegas = np.asarray(_as_omega(omegas))
    steps = None if steps is None else count(steps, "steps", 1)
    coeff, rate = _coefficient_factors(fiber, pump, regime, omegas)
    if fiber.length == 0:
        return np.zeros(omegas.shape + (4, 4), dtype=complex) + np.eye(4), steps or 0
    phi = _mode_offsets(rate)
    if steps is None:
        generator = (coeff + 1j * phi[..., None] * np.eye(4)) * fiber.length
        rotating = _expm(finite(generator, NumericalFailure, "coupled-mode generator"))
        error, propagator = NumericalFailure, "the matrix exponential"
    else:
        h = fiber.length / steps
        if not h > 0:  # underflowed
            raise ValueError(f"length/steps must be a positive float, got {h}")
        rotating = np.eye(4) + _rk4_power_offset(coeff, rate, phi, h, steps)
        error, propagator = StepCountTooSmall, f"{steps} steps"
    matrices = np.exp(-1j * phi * fiber.length)[..., None] * rotating
    defect = _relative_defect(matrices)
    # NaN (from an overflowed matrix) must fail too, hence "not <=".
    if not defect <= DEFECT_LIMIT:
        raise error(
            f"relative symplectic defect {defect:.3e} exceeds {DEFECT_LIMIT:.1e} "
            f"with {propagator}"
        )
    return matrices, steps or 0


def flux_from_matrices(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vacuum photon-flux densities (f_x, f_y) in ps/rad from a (..., 4, 4) stack.

    The flux on axis j at +Omega is the squared overlap of the a_j(+Omega)
    row with the two creation-operator columns, divided by 2 pi: the entries
    of M at the pair channels' `fiber.coupling_table` keys, read by
    `fiber.pair_fluxes` as the first-order flux reads its amplitudes.
    """
    return pair_fluxes(*(matrices[..., j, k] for j, k in _PAIR_ENTRIES))


def _parametric_flux(coupling: float, detuning_rate, length: float):
    """Flux of a 2x2 parametric block with coupling c and phase rate w.

    f = (c^2/2pi) * |sinh(lambda L)/lambda|^2 with lambda^2 = c^2 - w^2/4.
    The lambda -> 0 limit is taken by series, keeping the curve continuous
    through the gain-band edges.  A flux that is inf or NaN, beyond double
    range at high gain or from a NaN rate, raises NumericalFailure.
    """
    w = np.asarray(detuning_rate, dtype=float)
    x = np.atleast_1d((coupling * coupling - w * w / 4.0) * (length * length))
    growth = np.empty_like(x)
    small = np.abs(x) < 1e-8
    pos = (x > 0) & ~small
    neg = ~pos & ~small
    growth[small] = 1.0 + x[small] / 3.0
    growth[pos] = np.sinh(np.sqrt(x[pos])) ** 2 / x[pos]
    growth[neg] = np.sin(np.sqrt(-x[neg])) ** 2 / -x[neg]
    flux = (coupling * coupling / (2.0 * np.pi)) * (length * length) * growth
    finite(flux, NumericalFailure, "closed-form flux")
    return float(flux[0]) if w.ndim == 0 else flux


def exact_scalar_flux(fiber: FiberParams, power: float, omega):
    """Closed-form scalar flux (gamma^2 P^2 / |lambda|^2) |sinh(lambda L)|^2 / 2pi.

    Exact for a single-axis pump; reduces to the first-order sinc spectrum
    for gamma*P*L << 1 and to the exponential MI asymptote deep in the
    anomalous gain band.  A power that is not a finite real >= 0 raises
    ValueError.
    """
    return _parametric_flux(*_scalar_block(fiber, power, _as_omega(omega)), fiber.length)


def exact_lb_orthogonal_flux(fiber: FiberParams, power: float, omega):
    """Closed-form flux of the LB orthogonal channel (coupling gamma*P/3), pump on x.

    `_closed_form_flux` relabels a pump on y onto x.  A power that is not a
    finite real >= 0 raises ValueError.
    """
    omega = _as_omega(omega)
    power = real(power, "power", 0)
    coupling = fiber.gamma * power / 3.0
    rate = (
        fiber.beta2 * (omega * omega)
        - (2.0 / 3.0) * fiber.gamma * power
        - 2.0 * fiber.delta_beta0
    )
    return _parametric_flux(coupling, rate, fiber.length)


def _closed_form_flux(fiber: FiberParams, pump: PumpConfig, regime: str, omega):
    """(f_x, f_y) from the x-pump closed forms, kept independent of the coupling table.

    The oracle of a single-axis pump: a pump on y is relabeled onto x by
    `swap_axes`, and the two fluxes swapped back.  The unpumped axis carries
    the LB orthogonal channel, or nothing in HB.  A pump on both axes raises
    PumpNotOnAxis.
    """
    if pump.p0x != 0 and pump.p0y != 0:
        raise PumpNotOnAxis("closed-form method requires a single-axis pump in the HB regime")
    on_y = pump.p0y != 0
    if on_y:
        fiber, pump = swap_axes(fiber, pump)
    f_pump = exact_scalar_flux(fiber, pump.p0x, omega)
    if regime == "LB":
        f_orth = exact_lb_orthogonal_flux(fiber, pump.p0x, omega)
    else:
        f_orth = np.zeros_like(f_pump)
    return (f_orth, f_pump) if on_y else (f_pump, f_orth)


def mi_gain_curve(fiber: FiberParams, power: float, grid: FrequencyGrid) -> GainCurve:
    """Gain curve over a grid; identically zero for normal dispersion."""
    lam = lambda_param(fiber, power, grid.omegas)
    return GainCurve(grid=grid, lambda_vals=lam, gain_vals=np.maximum(lam.real, 0.0))
