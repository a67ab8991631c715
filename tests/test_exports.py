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


def _fresh(code):
    """stdout of ``code`` in a fresh interpreter that imports this fbmilt: pytest's
    filterwarnings entry for scipy.integrate.IntegrationWarning imports scipy here."""
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
