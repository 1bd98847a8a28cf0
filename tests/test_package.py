"""Package surface: every exported name exists."""
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

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


LIBRARY_MODULES = ("exact", "polynomial", "stirling", "tangent", "formulas", "derivatives", "harness")


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


LIBRARY = {f"bernocchi.{name}" for name in LIBRARY_MODULES}


def _importtime(*args):
    """A real `python -X importtime` run: its result and the modules it
    imported, less those the interpreter's own start-up imports."""
    src = Path(bernocchi.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(*argv):
        result = subprocess.run(
            [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True, env=env
        )
        lines = [line for line in result.stderr.splitlines() if line.startswith("import time:")]
        return result, {line.rpartition("|")[2].strip() for line in lines}

    result, loaded = run(*args)
    return result, loaded - run("-c", "pass")[1]


@pytest.mark.parametrize("argv, code", [(("--help",), 0), (("compute",), 1)], ids=["help", "usage-error"])
def test_help_and_usage_errors_load_no_library_module(argv, code):
    result, loaded = _importtime("-m", "bernocchi.cli", *argv)
    assert result.returncode == code
    assert "bernocchi" in loaded
    assert loaded & (LIBRARY | {"fractions"}) == set()


@pytest.mark.parametrize(
    "argv, runs",
    [
        (("compute", "GOULD_DOUBLE_11", "40"), "bernocchi.formulas"),
        (("table", "bernoulli", "10"), "bernocchi.tangent"),
        (("cache", "path"), "bernocchi.cache"),
    ],
    ids=["compute", "table-bernoulli", "cache-path"],
)
def test_compute_table_and_cache_do_not_load_harness_or_derivatives(argv, runs):
    result, loaded = _importtime("-m", "bernocchi.cli", *argv)
    assert result.returncode == 0
    assert runs in loaded
    assert loaded & {"bernocchi.harness", "bernocchi.derivatives"} == set()


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "GENOCCHI_THEOREM_16", "12"),
        ("table", "bernoulli", "10"),
        ("table", "genocchi", "0"),
        ("table", "stirling", "4"),
        ("bench", "--max-n", "8", "--reps", "1", "--deterministic"),
    ],
    ids=["compute", "table-bernoulli", "table-genocchi-empty", "table-stirling", "bench"],
)
def test_json_output_does_not_load_json(argv):
    result, loaded = _importtime("-m", "bernocchi.cli", *argv, "--format", "json")
    assert result.returncode == 0
    assert result.stdout[:1] in "{["
    assert {m for m in loaded if m.partition(".")[0] == "json"} == set()


RATIONALS = {"fractions", "decimal", "numbers"}
FORMULA_MODULES = {"bernocchi.formulas", "bernocchi.stirling", "bernocchi.polynomial"}


@pytest.mark.parametrize(
    "argv, head, unloaded",
    [
        pytest.param(
            ("table", "stirling", "4", "--format", "json"), '{\n  "kind": "stirling",', RATIONALS,
            id="stirling-json",
        ),
        pytest.param(
            ("table", "bernoulli", "10", "--format", "plain"), "0 1\n", RATIONALS | FORMULA_MODULES,
            id="bernoulli-plain",
        ),
        pytest.param(
            ("table", "bernoulli", "10", "--format", "csv"), "n,value\n", RATIONALS | FORMULA_MODULES,
            id="bernoulli-csv",
        ),
        pytest.param(
            ("table", "bernoulli", "10", "--format", "json"), '{\n  "kind": "bernoulli",',
            RATIONALS | FORMULA_MODULES, id="bernoulli-json",
        ),
    ],
)
def test_table_does_not_load_fractions(argv, head, unloaded):
    # exact holds the JSON writer and the text of a ratio and never loads
    # fractions; table bernoulli reduces the tangent route's integer terms.
    result, loaded = _importtime("-m", "bernocchi.cli", *argv)
    assert result.returncode == 0
    assert result.stdout.startswith(head)
    assert "bernocchi.exact" in loaded
    assert loaded & unloaded == set()


@pytest.mark.parametrize("statement", ["import bernocchi", "import bernocchi.cli"])
def test_importing_the_package_loads_no_library_module(statement):
    result, loaded = _importtime("-c", statement)
    assert result.returncode == 0
    assert "bernocchi" in loaded
    assert loaded & (LIBRARY | {"fractions"}) == set()


def test_star_import_and_dir_reach_every_library_name_in_a_fresh_interpreter():
    # The first access of any package attribute loads the whole library;
    # reset_caches imports what it resets.
    probe = (
        "import importlib, bernocchi\n"
        "from bernocchi import *\n"
        "reset_caches()\n"
        "listed = set(dir(bernocchi))\n"
        f"for name in {LIBRARY_MODULES!r}:\n"
        "    module = importlib.import_module('bernocchi.' + name)\n"
        "    for attr in module.__all__:\n"
        "        if globals().get(attr) is not getattr(module, attr) or attr not in listed:\n"
        "            print(name, attr)\n"
    )
    result, _ = _importtime("-c", probe)
    assert (result.returncode, result.stdout) == (0, "")
