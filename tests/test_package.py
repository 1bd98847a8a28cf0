"""Package surface: every exported name exists."""
import importlib
import pkgutil

import bernocchi


def test_every_module_defines_what_its_all_names():
    checked = 0
    for info in pkgutil.iter_modules(bernocchi.__path__, "bernocchi."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ names missing {name!r}"
            checked += 1
    assert checked
