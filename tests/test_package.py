"""Package surface: every exported name exists."""
import importlib
import os
import pkgutil
import subprocess
import sys
import types
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


def test_verify_as_json_does_not_load_json():
    # -X importtime lists every module a real `python -m` run imports; those
    # the interpreter's own start-up loads are not counted.
    src = Path(bernocchi.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}

    def imported(*args):
        result = subprocess.run(
            [sys.executable, "-X", "importtime", *args],
            capture_output=True, text=True, env=env, check=True,
        )
        lines = [line for line in result.stderr.splitlines() if line.startswith("import time:")]
        return result.stdout, {line.rpartition("|")[2].strip() for line in lines}

    _, startup = imported("-c", "pass")
    out, loaded = imported("-m", "bernocchi.cli", "verify", "--max-n", "4", "--format", "json")
    loaded -= startup
    assert out.startswith('{\n  "max_n": 4,')
    assert "bernocchi.harness" in loaded
    assert {m for m in loaded if m.partition(".")[0] == "json"} == set()


LIBRARY_MODULES = ("exact", "polynomial", "stirling", "formulas", "derivatives", "harness")


def test_package_reexports_each_library_module_all():
    exported = set()
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"bernocchi.{name}")
        for attr in module.__all__:
            assert getattr(bernocchi, attr) is getattr(module, attr), f"{name}.{attr}"
        exported.update(module.__all__)
    others = {
        name for name, value in vars(bernocchi).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    } - exported
    assert others == {"reset_caches"}


def test_package_does_not_reexport_the_cache_helpers():
    for name in ("ENV_CACHE_DIR", "cache_dir", "cache_file"):
        assert not hasattr(bernocchi, name), name
