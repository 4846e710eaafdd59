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


def test_dense_oracle_loads_no_lapack_bindings(tmp_path):
    # the Gram solve is numpy's Cholesky and substitutions written in numpy,
    # so no oracle route, in the library or the CLI, imports scipy.linalg
    src = str(Path(phaseframe.__file__).resolve().parents[1])
    state = tmp_path / "state.json"
    code = (
        "import json, sys, phaseframe\n"
        "from phaseframe.cli import main\n"
        "psi = phaseframe.FockVector([0.6, 0.8j, 0.0])\n"
        f"state = {str(state)!r}\n"
        "open(state, 'w').write(json.dumps(psi.to_json()))\n"
        "phaseframe.assess(psi, phaseframe.PhaseGrid(8, 3.0), measure=True)\n"
        "grid = ['--N', '8', '--p', '3.0', '--state', state, '--oracle']\n"
        "codes = [main(['reconstruct', '--mode', 'partial', *grid]),\n"
        "         main(['reconstruct', '--mode', 'filtered', '--M', '4', *grid]),\n"
        "         main(['error-sweep', '--N', '4,8', '--p', '1:3:3', '--state', state,\n"
        "               '--oracle'])]\n"
        "print(codes, 'scipy.linalg' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == "[0, 0, 0] False"
