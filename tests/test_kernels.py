"""The solver's LAPACK/BLAS kernels, scipy's f2py `dtbsv`, `ztbsv` and `dgbtrf`, as
`integrator` loads them. Each test runs in a fresh interpreter, because which
loader runs depends on what that interpreter has imported before."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# the same inputs through integrator's kernels and through scipy.linalg's
# blas and lapack modules, imported afterwards; ab has no diagonal dominance,
# so dgbtrf pivots
COMPARE = """
import importlib, json, sys
import numpy as np
from statlight import integrator
loaded = {name: sys.modules['scipy.linalg.' + name] for name in ('_fblas', '_flapack')}
imported_before = sorted({'scipy', 'scipy.linalg'} & set(sys.modules))
rng = np.random.default_rng(7)
m = 41
a = np.asfortranarray(rng.normal(size=(3, m)) + 1j * rng.normal(size=(3, m)))
a[2] += 4.0
x0 = rng.normal(size=m) + 1j * rng.normal(size=m)
solved = [integrator.ztbsv(2, a, x0, lower=1, diag=1), integrator.ztbsv(2, a, x0)]
ar = np.asfortranarray(a.real)
solved_real = [integrator.dtbsv(2, ar, x0.real, lower=1, diag=1),
               integrator.dtbsv(2, ar, x0.real)]
ab = np.zeros((7, m), order='F')
ab[2:] = rng.normal(size=(5, m))
lu, piv, info = integrator.dgbtrf(ab.copy(order='F'), 2, 2)

import scipy.linalg.blas, scipy.linalg.lapack
ref_lower = scipy.linalg.blas.ztbsv(2, a, x0, lower=1, diag=1)
ref_upper = scipy.linalg.blas.ztbsv(2, a, x0)
ref_real = [scipy.linalg.blas.dtbsv(2, ar, x0.real, lower=1, diag=1),
            scipy.linalg.blas.dtbsv(2, ar, x0.real)]
ref_lu, ref_piv, ref_info = scipy.linalg.lapack.dgbtrf(ab.copy(order='F'), 2, 2)
print(json.dumps({
    'imported_before': imported_before,
    'ztbsv': [solved[0].tobytes() == ref_lower.tobytes(),
              solved[1].tobytes() == ref_upper.tobytes()],
    'dtbsv': [got.tobytes() == ref.tobytes()
              for got, ref in zip(solved_real, ref_real)],
    'dgbtrf': [lu.tobytes() == ref_lu.tobytes(),
               piv.tolist() == ref_piv.tolist(), info == ref_info],
    'pivoted': piv.tolist() != list(range(m)),
    'same_modules': [module is importlib.import_module('scipy.linalg.' + name)
                     for name, module in loaded.items()],
    'same_routines': [scipy.linalg.blas.ztbsv is integrator.ztbsv,
                      scipy.linalg.blas.dtbsv is integrator.dtbsv,
                      scipy.linalg.lapack.dgbtrf is integrator.dgbtrf],
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
    # only the fallback imports scipy, and through it the scipy.linalg package
    assert got["imported_before"] == (
        ["scipy", "scipy.linalg"] if loader == "fallback" else [])
    assert got["ztbsv"] == [True, True]
    assert got["dtbsv"] == [True, True]
    assert got["dgbtrf"] == [True, True, True]
    assert got["pivoted"]
    assert got["same_modules"] == [True, True]
    assert got["same_routines"] == [True, True, True]
