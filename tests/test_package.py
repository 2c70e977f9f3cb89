"""The package surface, in a fresh interpreter: importing the package loads
no numpy, and every exported name resolves, the numpy-backed ones on first
access to the objects their modules define."""

import os
import subprocess
import sys
from pathlib import Path

import clusterline

SURFACE_PROBE = """
import importlib
import sys

import clusterline

assert "numpy" not in sys.modules, "import clusterline loaded numpy"
missing = set(clusterline.__all__) - set(dir(clusterline))
assert not missing, f"dir() lacks {sorted(missing)}"
assert not hasattr(clusterline, "no_such_name")
for name, module in clusterline._LAZY.items():
    assert name in clusterline.__all__, name
    value = getattr(clusterline, name)
    assert value is getattr(importlib.import_module(f"clusterline.{module}"), name), name
    assert vars(clusterline)[name] is value, f"{name} is not cached"
assert clusterline.estimate is clusterline.mc_engine.estimate
namespace = {}
exec("from clusterline import *", namespace)
unbound = set(clusterline.__all__) - set(namespace)
assert not unbound, f"import * leaves {sorted(unbound)} unbound"
assert all(namespace[name] is getattr(clusterline, name) for name in clusterline.__all__)
print("ok")
"""


def test_surface_of_a_fresh_import():
    src = str(Path(clusterline.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SURFACE_PROBE], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"ok\n"
