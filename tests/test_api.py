import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import phaseframe

SUBMODULES = [f"phaseframe.{m.name}" for m in pkgutil.iter_modules(phaseframe.__path__)]
MODULES = ["phaseframe", *SUBMODULES]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, missing


def test_import_loads_no_lapack_bindings():
    # scipy.linalg is imported by the dense oracle's Gram solve alone, and a
    # PolarMesh is summed by numpy's FFT, not by scipy.signal's czt
    src = str(Path(phaseframe.__file__).resolve().parents[1])
    code = ("import sys, phaseframe, phaseframe.cli\n"
            "phaseframe.evaluate([0.6, 0.8j], phaseframe.PolarMesh([0.0, 1.5], 0.0, 6.2, 16))\n"
            "print([name in sys.modules for name in ('scipy.linalg', 'scipy.signal')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False]"
