"""The package namespace: each public name and submodule is loaded on
first access and is then the very object its submodule defines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cudfkit


def test_every_public_name_is_the_object_of_its_submodule():
    for name in cudfkit.__all__:
        value = getattr(cudfkit, name)
        assert value.__module__.startswith("cudfkit.")
        assert value is getattr(sys.modules[value.__module__], name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cudfkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(cudfkit.__all__)
    assert all(value is getattr(cudfkit, name) for name, value in namespace.items())


def test_unknown_names_raise_attribute_error():
    assert cudfkit.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        cudfkit.nothing
    assert not hasattr(cudfkit, "__wrapped__")


def test_import_loads_no_submodule_until_one_is_named():
    code = ("import sys, cudfkit\n"
            "def loaded(): return sorted(m for m in sys.modules if m.startswith('cudfkit.'))\n"
            "print(loaded())\n"
            "print(cudfkit.semantics.__name__, loaded())\n"
            "print(cudfkit.solve is cudfkit.solver.solve, 'solve' in vars(cudfkit))\n")
    src = str(Path(cudfkit.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60).stdout
    assert out.splitlines() == [
        "[]",
        "cudfkit.semantics ['cudfkit._record', 'cudfkit.model', 'cudfkit.semantics', "
        "'cudfkit.types']",
        "True True",
    ]


def test_lazily_loaded_submodules_show_in_the_import_time_log():
    """The loader imports through the import statement's machinery, so
    -X importtime times each submodule on its own line instead of adding
    it to the self time of the module that named it."""
    src = str(Path(cudfkit.__file__).resolve().parents[1])
    log = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cudfkit.cli"],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60).stderr
    timed = {line.rsplit("|", 1)[-1].strip() for line in log.splitlines()}
    assert {"cudfkit.types", "cudfkit.textio", "cudfkit.cli"} <= timed
