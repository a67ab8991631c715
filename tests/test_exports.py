import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fbmilt

MODULES = ["fbmilt"] + [f"fbmilt.{m.name}" for m in pkgutil.iter_modules(fbmilt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_import_loads_neither_integrate_nor_optimize():
    # a fresh process: pytest's filterwarnings entry for
    # scipy.integrate.IntegrationWarning imports scipy.integrate here
    src = str(Path(fbmilt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, fbmilt, fbmilt.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'optimize'])))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
