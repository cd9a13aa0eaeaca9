"""The solver's LAPACK/BLAS kernels, taken from scipy's Cython BLAS/LAPACK
capsules. Each test runs in a fresh interpreter, because which loader runs
depends on what that interpreter has imported before."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from statlight import _kernels

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# the same inputs through the bound kernels and through scipy.linalg's f2py
# wrappers; ab has no diagonal dominance, so dgbtrf pivots
COMPARE = """
import importlib, json, sys
import numpy as np
from statlight import _kernels as k
cached = {name: sys.modules['scipy.linalg.' + name]
          for name in ('cython_blas', 'cython_lapack')}
linalg_before = 'scipy.linalg' in sys.modules
rng = np.random.default_rng(7)
m = 41
a = np.asfortranarray(rng.normal(size=(3, m)) + 1j * rng.normal(size=(3, m)))
a[2] += 4.0
x0 = rng.normal(size=m) + 1j * rng.normal(size=m)
solved = []
for lower in (True, False):
    x = x0.copy()
    k.ztbsv(*k.ztbsv_args(a, x, lower=lower))
    solved.append(x)
ab = np.zeros((7, m), order='F')
ab[2:] = rng.normal(size=(5, m))
lu, piv, info = k.dgbtrf(ab.copy(order='F'), 2, 2)

import scipy.linalg
from scipy.linalg.blas import ztbsv
from scipy.linalg.lapack import dgbtrf
ref_lower = ztbsv(2, a, x0, lower=1, diag=1)
ref_upper = ztbsv(2, a, x0)
ref_lu, ref_piv, ref_info = dgbtrf(ab.copy(order='F'), 2, 2)
print(json.dumps({
    'linalg_before': linalg_before,
    'ztbsv': [solved[0].tobytes() == ref_lower.tobytes(),
              solved[1].tobytes() == ref_upper.tobytes()],
    'dgbtrf': [lu.tobytes() == ref_lu.tobytes(),
               piv.tolist() == ref_piv.tolist(), info == ref_info],
    'pivoted': piv.tolist() != list(range(m)),
    'same_modules': [module is importlib.import_module('scipy.linalg.' + name)
                     is getattr(scipy.linalg, name)
                     for name, module in cached.items()],
}))
"""

# scipy's package directory hidden from the by-path loader, as on an install
# without the extension files
HIDE_FILES = """
import importlib.util
_find_spec = importlib.util.find_spec
importlib.util.find_spec = (
    lambda name, *args: None if name == 'scipy' else _find_spec(name, *args))
"""


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)


@pytest.mark.parametrize("loader,prelude", [("by_path", ""), ("fallback", HIDE_FILES)])
def test_loaders_match_scipy_linalg_bit_for_bit(loader, prelude):
    proc = _fresh_python(prelude + COMPARE)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    # only the fallback goes through the scipy.linalg package
    assert got["linalg_before"] == (loader == "fallback")
    assert got["ztbsv"] == [True, True]
    assert got["dgbtrf"] == [True, True, True]
    assert got["pivoted"]
    assert all(got["same_modules"])


def test_wrong_capsule_signature_names_the_routine():
    proc = _fresh_python(
        "import ctypes\n"
        "from scipy.linalg import cython_lapack\n"
        "capi = cython_lapack.__pyx_capi__\n"
        "name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(\n"
        "    ('PyCapsule_GetName', ctypes.pythonapi))(capi['dgbtrf'])\n"
        "pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(\n"
        "    ('PyCapsule_GetPointer', ctypes.pythonapi))(capi['dgbtrf'], name)\n"
        "new = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p,\n"
        "                        ctypes.c_void_p)(('PyCapsule_New', ctypes.pythonapi))\n"
        "wrong = b'void (long *)'  # outlives the capsule named by it\n"
        "capi['dgbtrf'] = new(pointer, wrong, None)\n"
        "try:\n"
        "    import statlight._kernels\n"
        "except ImportError as exc:\n"
        "    print('ImportError:', exc)\n")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.strip()
    assert out.startswith("ImportError:")
    assert "cython_lapack.dgbtrf" in out and "void (long *)" in out


def test_ztbsv_args_refuses_what_it_cannot_point_at():
    band = np.zeros((3, 8), dtype=complex, order="F")
    x = np.zeros(8, dtype=complex)
    for a, v in ((np.ascontiguousarray(band), x), (band.real.copy(order="F"), x),
                 (band, x[:7]), (band, np.zeros(16, dtype=complex)[::2]),
                 (band, x.real.copy())):
        with pytest.raises(ValueError):
            _kernels.ztbsv_args(a, v, lower=True)


def test_dgbtrf_refuses_a_band_too_narrow():
    with pytest.raises(ValueError):
        _kernels.dgbtrf(np.zeros((5, 8), order="F"), 2, 2)


def test_find_spec_before_the_import_keeps_the_submodule_attributes():
    proc = _fresh_python(
        "import importlib.util, sys\n"
        "import statlight._kernels\n"
        "registered = sys.modules['scipy.linalg.cython_blas']\n"
        "assert importlib.util.find_spec('scipy.linalg') is not None\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "import scipy.linalg\n"
        "print(scipy.linalg.cython_blas is registered,\n"
        "      scipy.linalg.cython_lapack is sys.modules['scipy.linalg.cython_lapack'])\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


def test_dgbtrf_factors_a_fortran_band_in_place_and_copies_any_other():
    rng = np.random.default_rng(3)
    ab = np.zeros((7, 12), order="F")
    ab[2:] = rng.normal(size=(5, 12))
    ab[4] += 8.0
    in_place, _, info = _kernels.dgbtrf(ab, 2, 2)
    assert info == 0 and in_place is ab
    c_order = np.ascontiguousarray(ab)
    kept = c_order.copy()
    lu, _, info = _kernels.dgbtrf(c_order, 2, 2)
    assert info == 0 and lu is not c_order
    np.testing.assert_array_equal(c_order, kept)
