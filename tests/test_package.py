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


def _fresh(code):
    """The first two lines ``code`` prints in a fresh interpreter on this
    tree's ``src``, where it must exit 0 with nothing on stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout.split("\n")[:2]


def test_bare_import_loads_neither_verify_nor_the_bijection():
    # in a fresh interpreter, where no public name has been looked up yet;
    # dir() lists them all without loading anything
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import circsep\n"
            "print(*sorted(set(circsep.__all__) - set(dir(circsep))))\n"
            "print(*sorted(set(sys.modules) - before))\n")
    not_in_dir, modules = _fresh(code)
    assert not_in_dir == ""
    modules = set(modules.split())
    assert {"circsep", "circsep.core", "circsep.counting",
            "circsep.enumeration"} <= modules
    assert not modules & {"circsep.verify", "circsep.bijection", "json"}


def test_no_command_loads_dataclasses_or_inspect():
    # the records are built on core._Record: a command runs without the
    # dataclasses module and the inspect module it imports, also with a pool
    argvs = [["count", "--sizes", "8,7", "--s", "2", "--k", "3"],
             ["enumerate", "--sizes", "16,16,17", "--s", "2", "--k", "4",
              "--fixed", "9@3", "--limit", "5", "--format", "json"],
             ["bijection", "forward", "--sizes", "10,10", "--s", "1",
              "--set", "1@1,3@1,5@1,7@1,9@1,8@2,10@2", "--trace"],
             ["verify", "--max-size", "5", "--max-k", "2", "--max-s", "1"],
             ["verify", "--max-size", "5", "--max-k", "2", "--max-s", "1",
              "--jobs", "2", "--format", "json"]]
    code = ("import io, sys\n"
            "before = set(sys.modules)\n"
            "import circsep.cli\n"
            "circsep.cli.build_parser()\n"
            "out, sys.stdout = sys.stdout, io.StringIO()\n"
            f"rcs = [circsep.cli.main(argv) for argv in {argvs!r}]\n"
            "sys.stdout = out\n"
            "print(*rcs)\n"
            "print(*sorted(set(sys.modules) - before))\n")
    rcs, modules = _fresh(code)
    assert rcs.split() == ["0"] * len(argvs)
    modules = set(modules.split())
    assert {"circsep.verify", "circsep.bijection", "json"} <= modules
    assert not modules & {"dataclasses", "inspect"}
