"""The three tridiagonal LAPACK routines the package calls, dgttrf, dgttrs
and dgtsv, loaded straight from scipy's f2py extension
scipy/linalg/_flapack.

Importing them through scipy.linalg.lapack runs all of scipy.linalg's
package init, which loads numpy.f2py, scipy._lib._array_api and
charset_normalizer and took about half of the package's start-up.  This
loads the same shared object, as blowuplab._flapack and never under a
scipy.* name, so every result is the same bit for bit.  _flapack is private
to scipy: a scipy without it is an ImportError that names the scipy version
and the directory searched, and there is no second path through
scipy.linalg.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from pathlib import Path
from types import ModuleType

import scipy


def _load_flapack(directory: Path) -> ModuleType:
    """Load the _flapack extension from directory, trying each suffix the
    interpreter accepts for an extension module."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"_flapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(f"{__package__}._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(
        f"blowuplab loads LAPACK from scipy's _flapack extension, and scipy "
        f"{scipy.__version__} has none in {directory}",
        name=f"{__package__}._flapack",
        path=str(directory),
    )


_flapack = _load_flapack(Path(scipy.__file__).parent / "linalg")
dgttrf = _flapack.dgttrf
dgttrs = _flapack.dgttrs
dgtsv = _flapack.dgtsv
