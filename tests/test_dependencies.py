"""Runtime dependencies stay numpy only: scipy and mpmath are test oracles."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import crbcompress

SRC = Path(crbcompress.__file__).resolve().parents[1]


def test_every_module_imports_without_scipy_or_mpmath():
    modules = sorted(m.name for m in pkgutil.iter_modules(crbcompress.__path__))
    assert "mcharness" in modules
    # a None entry in sys.modules makes the import raise ImportError
    script = (
        "import importlib, sys\n"
        "sys.modules['scipy'] = sys.modules['mpmath'] = None\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module('crbcompress.' + name)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
