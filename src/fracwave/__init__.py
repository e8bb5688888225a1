"""Simulator and inverse-problem toolkit for nonlocal wave equations on a
bounded 1-d domain: fractional centered-difference operators, a spectral
very-weak solver with exterior control, measurement maps, Runge-type
control fitting, and coefficient recovery for potentials and power-type
nonlinearities.

Every public name is `fracwave.<name>`, and the `__all__` of the module
that defines it is the only list of them: `fracwave.__all__` is
`__version__` plus their union.  Submodules load lazily, on the first
lookup of one of their names, so that the command-line entry point
(`fracwave.cli`, not re-exported) can pin BLAS threading before any
numerical import happens.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

_MODULES = (
    "grid", "fracop", "spectral", "fields", "forward",
    "nonlinearity", "dnmap", "runge", "inversion", "verify",
)


def _modules():
    """The re-exported modules, imported one by one in `_MODULES` order."""
    return (importlib.import_module(f".{name}", __name__) for name in _MODULES)


def __getattr__(name: str):
    if name == "__all__":
        value = ["__version__", *sorted(n for m in _modules() for n in m.__all__)]
    else:
        # private names (tool probes such as __wrapped__) and submodule names
        # import nothing here: `from fracwave import cli` must not load numpy
        owners = () if name.startswith("_") or name in (*_MODULES, "cli") else _modules()
        owner = next((m for m in owners if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
