import importlib
import pkgutil

import pytest

import fbmilt

MODULES = ["fbmilt"] + [f"fbmilt.{m.name}" for m in pkgutil.iter_modules(fbmilt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
