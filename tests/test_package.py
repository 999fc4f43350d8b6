import importlib
import pkgutil

import pytest

import capolar

MODULES = ["capolar"] + [f"capolar.{m.name}" for m in pkgutil.iter_modules(capolar.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    # a stale string in __all__ makes "from module import *" raise
    namespace = {}
    exec(f"from {name} import *", namespace)
    exported = importlib.import_module(name).__all__
    assert len(set(exported)) == len(exported)
    assert all(n in namespace for n in exported)
