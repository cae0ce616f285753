"""Every name in the __all__ of padiclab and of its submodules resolves."""

import importlib
import pkgutil

import padiclab


def test_every_exported_name_resolves():
    modules = [padiclab] + [
        importlib.import_module(f"padiclab.{info.name}")
        for info in pkgutil.iter_modules(padiclab.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
