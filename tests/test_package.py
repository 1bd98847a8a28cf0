"""Package surface: every exported name exists."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import bernocchi


def test_every_module_defines_what_its_all_names():
    checked = 0
    for info in pkgutil.iter_modules(bernocchi.__path__, "bernocchi."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ names missing {name!r}"
            checked += 1
    assert checked


def test_only_polynomial_holds_the_integer_form_helper():
    for info in pkgutil.iter_modules(bernocchi.__path__, "bernocchi."):
        importlib.import_module(info.name)
    holders = [
        name for name, module in sys.modules.items()
        if name.startswith("bernocchi.") and hasattr(module, "_integer_form")
    ]
    assert holders == ["bernocchi.polynomial"]


def test_cli_import_loads_no_module_the_commands_do_not_run():
    # dataclasses alone pulls in inspect, ast, dis and tokenize; json is
    # loaded only by the code that prints JSON.  Modules that the
    # interpreter's own start-up already loaded are not counted.
    src = Path(bernocchi.__file__).resolve().parent.parent
    probe = (
        "import sys; before = set(sys.modules); import bernocchi.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'statistics', 'json') "
        "if m in sys.modules and m not in before))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.split() == []
