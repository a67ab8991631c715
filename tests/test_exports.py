import ast
import importlib
import json
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


def _unused_imports(source):
    """(line, name) of the module-level imports that ``source`` neither
    uses nor lists in ``__all__``, unless a line of their statement says
    ``# noqa: F401``.  __future__ imports are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
        elif (isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              and not any("# noqa: F401" in line
                          for line in lines[node.lineno - 1:node.end_lineno])):
            unused += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
    return sorted((line, name) for line, name in unused if name not in used)


@pytest.mark.parametrize("path", sorted(Path(fbmilt.__file__).parent.glob("*.py"))
                         + sorted(Path(__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_scan_flags_and_exempts():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from a import b, c\nfrom d import e  # noqa: F401\n"
              "from f import (\n    g,\n)  # noqa: F401\n__all__ = ['c']\nnp.zeros(1)\n")
    assert _unused_imports(source) == [(2, "os"), (4, "b")]


def _fresh(code):
    """stdout of ``code`` in a fresh interpreter that imports this fbmilt: other
    tests in this process import scipy, so sys.modules here says nothing of fbmilt's."""
    src = str(Path(fbmilt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout


def test_import_loads_no_scipy():
    code = ("import sys, fbmilt, fbmilt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh(code).strip() == "[]"


def test_scipy_special_users_run_in_a_fresh_process():
    # a_z and reduction_bound import scipy where they use it; values as
    # before those imports moved
    code = ("import json, sys; from fbmilt import ModelConfig, a_z, reduction_bound; "
            "cfg = ModelConfig(0.25, 2); "
            "az = [a_z(z, cfg).value for z in (0.0, 0.5, 1.0, 10.0, 1e3, 1e6)]; "
            "rb = reduction_bound(cfg); "
            "print(json.dumps([az, rb.value, rb.status, 'scipy.special' in sys.modules]))")
    az, rb, status, loaded = json.loads(_fresh(code))
    assert az == pytest.approx([0.5000000000000001, 0.4436951158568377, 0.3949431591387808,
                                0.079189596185496, 2.7274311126220094e-05,
                                5.491135585225226e-11], rel=1e-12, abs=0.0)
    assert rb == pytest.approx(0.600113535900727, rel=1e-12, abs=0.0)
    assert status == "converged" and loaded
