"""Package layout: every submodule imports on its own."""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import xmpc


def test_each_submodule_imports_with_a_fresh_module_table():
    # The package re-exports nothing, so no fixed import order hides a cycle:
    # each submodule is imported first, with every xmpc module unloaded.
    # One interpreter for all of them keeps the test fast.
    names = sorted(info.name for info in pkgutil.iter_modules(xmpc.__path__))
    code = textwrap.dedent(f"""
        import importlib
        import sys
        for name in {names!r}:
            for key in [k for k in sys.modules if k == "xmpc" or k.startswith("xmpc.")]:
                del sys.modules[key]
            importlib.import_module("xmpc." + name)
            print(name)
    """)
    src = str(Path(xmpc.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == names
    assert {"cli", "explain", "hub", "mpc", "surrogate", "testbed"} <= set(names)
