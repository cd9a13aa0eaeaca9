"""`ztbsv` and `dgbtrf` from scipy's Cython BLAS/LAPACK API, without
importing the `scipy.linalg` package (see `integrator` for why).

`scipy.linalg.cython_blas` and `cython_lapack` export each routine in their
`__pyx_capi__` table as a PyCapsule holding its function pointer, named by
its C signature (LP64 `int`, every argument by reference). The two extension
files are loaded by path and registered in `sys.modules` under their dotted
names, where a later `import scipy.linalg` finds them and does not initialise
them again (`_SubmoduleAttributes` makes them its attributes, as a plain
import would); an install without the files takes the ordinary import. Each
capsule's signature is checked before its pointer is called through `ctypes`.
"""

from __future__ import annotations

import ctypes
import importlib
import importlib.abc
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

_ZTBSV = ("void (char *, char *, char *, int *, int *, __pyx_t_double_complex *, "
          "int *, __pyx_t_double_complex *, int *)")
_DGBTRF = ("void (int *, int *, int *, int *, "
           "__pyx_t_5scipy_6linalg_13cython_lapack_d *, int *, int *, int *)")


def _extension(name: str):
    """scipy.linalg.<name>, loaded from its file unless already imported."""
    dotted = f"scipy.linalg.{name}"
    if dotted not in sys.modules:
        # find_spec("scipy.linalg...") would import scipy.linalg itself
        scipy = importlib.util.find_spec("scipy")
        for root in (scipy.submodule_search_locations or ()) if scipy else ():
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                path = os.path.join(root, "linalg", name + suffix)
                if os.path.isfile(path):
                    spec = importlib.util.spec_from_file_location(dotted, path)
                    module = importlib.util.module_from_spec(spec)
                    sys.modules[dotted] = module
                    try:
                        spec.loader.exec_module(module)
                    except BaseException:
                        del sys.modules[dotted]
                        raise
                    return module
    return importlib.import_module(dotted)


class _SubmoduleAttributes(importlib.abc.MetaPathFinder):
    """Finds no module itself. When `scipy.linalg` is imported after its
    Cython modules were loaded by path, its loader first sets every
    registered `scipy.linalg.*` module as an attribute of the package, as
    the import system does for each submodule it loads itself. The finder
    leaves `sys.meta_path` when that loader runs, so a `find_spec` that
    imports nothing does not use it up."""

    def find_spec(self, fullname, path=None, target=None):
        if fullname != "scipy.linalg":
            return None
        spec = None
        for finder in sys.meta_path:
            if finder is not self and hasattr(finder, "find_spec"):
                spec = finder.find_spec(fullname, path, target)
                if spec is not None:
                    break
        if spec is not None and spec.loader is not None:
            exec_module = spec.loader.exec_module

            def exec_with_submodules(module):
                if self in sys.meta_path:
                    sys.meta_path.remove(self)
                for dotted, submodule in list(sys.modules.items()):
                    parent, _, child = dotted.rpartition(".")
                    if parent == fullname:
                        setattr(module, child, submodule)
                exec_module(module)

            spec.loader.exec_module = exec_with_submodules
        return spec


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                     ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _routine(module, routine: str, signature: str):
    """The C function `routine` of a Cython BLAS/LAPACK module, called with
    every argument an address."""
    capsule = module.__pyx_capi__[routine]
    name = _capsule_name(capsule)
    if name != signature.encode():
        raise ImportError(f"{module.__name__}.{routine} has signature "
                          f"{name!r}, expected {signature!r}")
    nargs = signature.count(",") + 1
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(
        _capsule_pointer(capsule, name))


ztbsv = _routine(_extension("cython_blas"), "ztbsv", _ZTBSV)
_dgbtrf = _routine(_extension("cython_lapack"), "dgbtrf", _DGBTRF)
if "scipy.linalg" not in sys.modules:
    sys.meta_path.insert(0, _SubmoduleAttributes())


def _pointer(target) -> ctypes.c_void_p:
    """The address of a ctypes scalar or a numpy array, as a pointer that
    keeps its target alive."""
    pointer = ctypes.c_void_p(target.ctypes.data if isinstance(target, np.ndarray)
                              else ctypes.addressof(target))
    pointer.target = target
    return pointer


def ztbsv_args(a: np.ndarray, x: np.ndarray, lower: bool) -> tuple:
    """Arguments for `ztbsv(*args)`, which overwrites x with A^-1 x.

    A is unit lower triangular when `lower`, else upper triangular, with k
    off-diagonals, held in LAPACK band layout in the (k + 1, n) complex
    Fortran array `a`. Each argument is a pointer that keeps `a`, `x` or its
    scalar alive, so the tuple is safe to keep and call as often as wanted.
    """
    kp1, n = a.shape
    if (a.dtype != np.complex128 or not a.flags.f_contiguous
            or x.dtype != np.complex128 or x.shape != (n,)
            or not x.flags.c_contiguous or not x.flags.writeable):
        raise ValueError("ztbsv needs a complex (k+1, n) Fortran band and a "
                         "writable contiguous complex vector of length n")
    uplo, trans, diag = (b"L", b"N", b"U") if lower else (b"U", b"N", b"N")
    return (*(_pointer(ctypes.c_char(c)) for c in (uplo, trans, diag)),
            _pointer(ctypes.c_int(n)), _pointer(ctypes.c_int(kp1 - 1)),
            _pointer(a), _pointer(ctypes.c_int(kp1)), _pointer(x),
            _pointer(ctypes.c_int(1)))


def dgbtrf(ab: np.ndarray, kl: int, ku: int):
    """LU-factor with partial pivoting the square band matrix held in LAPACK
    band storage in `ab` ((2 kl + ku + 1, n) float64), as
    `scipy.linalg.lapack.dgbtrf` does: returns (lu, piv, info) with piv
    0-based. `ab` itself is overwritten when it is a Fortran float64 array;
    any other array is copied first."""
    lu = np.asfortranarray(ab, dtype=np.float64)
    if lu.ndim != 2 or lu.shape[0] < 2 * kl + ku + 1 or min(kl, ku) < 0:
        raise ValueError(f"band storage of shape {lu.shape} cannot hold "
                         f"kl = {kl}, ku = {ku}")
    ldab, n = lu.shape
    piv = np.zeros(n, dtype=np.intc)
    order, lower, upper, lead, info = (
        ctypes.c_int(v) for v in (n, kl, ku, ldab, 0))
    _dgbtrf(*(_pointer(v) for v in (order, order, lower, upper, lu, lead,
                                    piv, info)))
    piv -= 1
    return lu, piv, info.value
