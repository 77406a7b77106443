"""Photon-pair spectra, entanglement structure, and modulation-instability
gain for spontaneous four-photon scattering in birefringent fibers.

Working units are {km, ps, W, rad} throughout: gamma in 1/(W km), beta2 in
ps^2/km, delta_beta1 in ps/km, delta_beta0 in 1/km, detunings Omega in
rad/ps, spectral flux densities in ps/rad.

`import fps` loads no submodule (and so no numpy): each public name is
imported from its submodule on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

#: Submodule -> the public names it defines.
_EXPORTS = {
    "dynamics": (
        "GainCurve",
        "exact_lb_orthogonal_flux",
        "exact_scalar_flux",
        "flux_from_matrices",
        "integrate_transfer_grid",
        "mi_gain_curve",
        "symplectic_defect",
    ),
    "entangle": (
        "BASIS",
        "BELL_CONCURRENCE_MIN",
        "EntanglementReport",
        "FilteredPairState",
        "SecondOrderResult",
        "bell_phase",
        "classify",
        "concurrence",
        "filtered_state",
        "second_order_quantities",
    ),
    "errors": (
        "DegenerateBirefringence",
        "EmptyState",
        "FpsError",
        "NoFarDetunedPeak",
        "NumericalFailure",
        "PumpNotOnAxis",
        "StepCountTooSmall",
        "StimulatedOrderingWarning",
        "ZeroDispersion",
        "ZeroGain",
        "ZeroPower",
    ),
    "fiber": (
        "AsymptoticFlux",
        "Channel",
        "FiberParams",
        "FrequencyGrid",
        "PumpConfig",
        "alpha_param",
        "bandwidth_ratio",
        "cpm_phase",
        "lambda_param",
        "mi_asymptotic_flux",
        "mi_gain",
        "mi_peak",
        "mi_support_edge",
        "nonlinear_length",
        "normalize_convention",
    ),
    "hb": (
        "bandwidths",
        "flux_hb",
        "flux_lb",
        "lb_peak_and_width",
        "overlapping_regime",
        "total_scatter_probability",
        "vector_peak_detuning",
        "xi_hb",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # `fps.hb` after a bare `import fps`
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
