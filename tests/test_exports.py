import importlib
import pkgutil

import pytest

import conewalk

MODULES = sorted(m.name for m in pkgutil.iter_modules(conewalk.__path__))


def test_package_exports_resolve():
    missing = [name for name in conewalk.__all__ if not hasattr(conewalk, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"conewalk.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
