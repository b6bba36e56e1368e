"""The tridiagonal LAPACK routines loaded from scipy's _flapack extension."""

import numpy as np
import pytest
import scipy
from scipy.linalg import lapack

from blowuplab import _lapack

N = 401


def bits(values):
    """Each output as (dtype, shape, bytes), so equality is bit for bit."""
    return [
        (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
        for v in values
    ]


@pytest.fixture(scope="module")
def system():
    rng = np.random.default_rng(20261019)
    dl, du = rng.standard_normal(N - 1), rng.standard_normal(N - 1)
    d = rng.standard_normal(N)
    return dl, d, du, rng.standard_normal(N), np.asfortranarray(rng.standard_normal((N, 3)))


def test_dgttrf_bitwise(system):
    dl, d, du, *_ = system
    assert bits(_lapack.dgttrf(dl, d, du)) == bits(lapack.dgttrf(dl, d, du))


@pytest.mark.parametrize("rhs", ["one", "fortran-stack"])
def test_dgttrs_bitwise(system, rhs):
    dl, d, du, b1, bk = system
    b = b1 if rhs == "one" else bk
    *factors, info = lapack.dgttrf(dl, d, du)
    assert info == 0
    assert bits(_lapack.dgttrs(*factors, b)) == bits(lapack.dgttrs(*factors, b))


@pytest.mark.parametrize("rhs", ["one", "fortran-stack"])
def test_dgtsv_bitwise(system, rhs):
    dl, d, du, b1, bk = system
    b = b1 if rhs == "one" else bk
    assert bits(_lapack.dgtsv(dl, d, du, b)) == bits(lapack.dgtsv(dl, d, du, b))


def test_singular_info_matches():
    # [[1, 1, 0], [0, 0, 0], [0, 1, 1]] has a zero row; after the row swap
    # the elimination leaves U's last pivot zero, which LAPACK reports as 3
    dl = np.array([0.0, 1.0])
    d = np.array([1.0, 0.0, 1.0])
    du = np.array([1.0, 0.0])
    b = np.ones(3)
    ours, theirs = _lapack.dgttrf(dl, d, du), lapack.dgttrf(dl, d, du)
    assert ours[-1] == 3
    assert bits(ours) == bits(theirs)
    ours, theirs = _lapack.dgtsv(dl, d, du, b), lapack.dgtsv(dl, d, du, b)
    assert ours[-1] == 3
    assert bits(ours) == bits(theirs)


def test_missing_flapack_names_scipy_version_and_directory(tmp_path):
    with pytest.raises(ImportError) as caught:
        _lapack._load_flapack(tmp_path)
    message = str(caught.value)
    assert f"scipy {scipy.__version__}" in message
    assert str(tmp_path) in message
