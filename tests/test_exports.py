"""The lazy top-level exports and the submodules' __all__ lists agree."""

import importlib

import fracwave


def test_exports_match_module_all():
    by_module: dict[str, set[str]] = {}
    for name, module_name in fracwave._EXPORTS.items():
        by_module.setdefault(module_name, set()).add(name)
        assert getattr(fracwave, name) is not None
    for module_name, exported in by_module.items():
        module_all = set(importlib.import_module(f"fracwave.{module_name}").__all__)
        assert exported == module_all, (
            f"{module_name}: exported but not in __all__ {sorted(exported - module_all)}, "
            f"in __all__ but not exported {sorted(module_all - exported)}"
        )
