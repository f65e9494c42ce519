import os
import subprocess
import sys
from pathlib import Path

import pytest

import e6cs
from e6cs.characters import Character
from e6cs.ring import SparsePolynomial
from e6cs.tensor import CGSeries
from e6cs.verify import Check


def test_the_export_list_names_each_public_name_once():
    assert len(set(e6cs.__all__)) == len(e6cs.__all__)
    for name in e6cs.__all__:
        assert hasattr(e6cs, name), name
    namespace = {}
    exec("from e6cs import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(e6cs.__all__)


def test_the_engine_imports_no_heavy_stdlib_module():
    # the benchmark child's own imports first, then its set-up: the engine
    # adds none of these, whatever the interpreter or a site hook loaded
    script = ("import contextlib, io, json, resource, sys, traceback; before = set(sys.modules); "
              "import e6cs.cli; from e6cs import hamiltonian; hamiltonian.tables(); "
              "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(Path(e6cs.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          encoding="utf-8", timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    added = set(proc.stdout.split())
    assert "e6cs.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis"}


@pytest.mark.parametrize("cls, fields", [
    (Character, {"weight": (0, 0, 0, 0, 0, 0),
                 "poly": SparsePolynomial({(0, 0, 0, 0, 0, 0): 1}), "method": "recursion"}),
    (CGSeries, {"factors": ((1, 0, 0, 0, 0, 0),), "terms": {(1, 0, 0, 0, 0, 0): 1}}),
    (Check, {"name": "a check", "ok": False, "detail": "expected 1, computed 2"}),
], ids=["Character", "CGSeries", "Check"])
def test_the_records_build_positionally_and_are_immutable(cls, fields):
    record = cls(*fields.values())
    for name, value in fields.items():
        assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert cls(*fields.values()) == record
