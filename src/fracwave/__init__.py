"""Simulator and inverse-problem toolkit for nonlocal wave equations on a
bounded 1-d domain: fractional centered-difference operators, a spectral
very-weak solver with exterior control, measurement maps, Runge-type
control fitting, and coefficient recovery for potentials and power-type
nonlinearities.

Submodules load lazily so that the command-line entry point can pin BLAS
threading before any numerical import happens.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # grid
    "Grid": "grid",
    "build_grid": "grid",
    # fracop
    "centered_weights": "fracop",
    "FracOperator": "fracop",
    "assemble_operator": "fracop",
    # spectral
    "SpectralBasis": "spectral",
    "eigendecompose": "spectral",
    "project_l2": "spectral",
    "reconstruct": "spectral",
    "dual_norm": "spectral",
    "dual_norm_variational": "spectral",
    # fields
    "CauchyData": "fields",
    "time_window": "fields",
    "tensor_control": "fields",
    "control_basis": "fields",
    # forward
    "WaveSolution": "forward",
    "PicardReport": "forward",
    "PicardError": "forward",
    "SolverBlowupError": "forward",
    "duhamel_coefficient": "forward",
    "solve_linear_modal": "forward",
    "lift_exterior": "forward",
    "solve_with_potential": "forward",
    "solve_with_potential_picard": "forward",
    "solve_newmark": "forward",
    "newmark_dt_bound": "forward",
    "very_weak_residual": "forward",
    "distributional_residual": "forward",
    "trapezoid_weights": "forward",
    "st_gram": "forward",
    "st_inner": "forward",
    "sup_energy": "forward",
    "data_energy": "forward",
    # nonlinearity
    "PolyNonlinearity": "nonlinearity",
    "lp_norm": "nonlinearity",
    # dnmap
    "dn_trace": "dnmap",
    "solve_exterior": "dnmap",
    "dn_matrix": "dnmap",
    "forward_map": "dnmap",
    "grid_signature": "dnmap",
    # runge
    "st_norm": "runge",
    "RungeSolution": "runge",
    "approximate_target": "runge",
    # inversion
    "PotentialRecovery": "inversion",
    "recover_potential": "inversion",
    "linear_response": "inversion",
    "reaction_from_march": "inversion",
    "extrapolate_powers": "inversion",
    "fit_profile": "inversion",
    "ExpansionEstimate": "inversion",
    "recover_expansion": "inversion",
    # verify
    "run_checks": "verify",
    "report_lines": "verify",
    "CHECKS": "verify",
    "THRESHOLDS": "verify",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
