import importlib
import pkgutil

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
