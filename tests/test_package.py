"""The package's public names: each is its defining module's object, whether
``circsep`` imports it at once or loads its module on first access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circsep

SRC = str(Path(__file__).resolve().parent.parent / "src")
# no __module__ of their own: a tuple and a frozenset
CONSTANTS = {"CHECKS": "circsep.verify", "DOCUMENTATION_CHECKS": "circsep.verify"}


@pytest.mark.parametrize("name", circsep.__all__)
def test_public_name_is_its_defining_modules_object(name):
    value = getattr(circsep, name)
    home = CONSTANTS.get(name) or value.__module__
    assert home.startswith("circsep.")
    assert getattr(importlib.import_module(home), name) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from circsep import *", namespace)
    assert set(circsep.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(circsep, name) for name in circsep.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(circsep, "no_such_name")
    assert not hasattr(circsep, "sweep")  # verify's, but not public
    # a submodule's name is not a public one, so importing it still works
    from circsep import bijection, verify
    assert verify.CHECKS is circsep.CHECKS and bijection.zig is circsep.zig


def test_bare_import_loads_neither_verify_nor_the_bijection():
    # in a fresh interpreter, where no public name has been looked up yet;
    # dir() lists them all without loading anything
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import circsep\n"
            "print(*sorted(set(circsep.__all__) - set(dir(circsep))))\n"
            "print(*sorted(set(sys.modules) - before))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    not_in_dir, modules = proc.stdout.split("\n")[:2]
    assert not_in_dir == ""
    modules = set(modules.split())
    assert {"circsep", "circsep.core", "circsep.counting",
            "circsep.enumeration"} <= modules
    assert not modules & {"circsep.verify", "circsep.bijection", "json"}
