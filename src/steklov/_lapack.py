"""The library's one route to LAPACK: numpy's linalg gufuncs, called directly.

np.linalg.cholesky, solve, eigh and eigvalsh each check and convert their
arguments in Python before calling a gufunc of numpy.linalg._umath_linalg;
on a 2 x 2 matrix that wrapper costs several times the LAPACK call itself.
Every matrix handed over here is already a float64 array with square
trailing axes, so each function below calls that same gufunc with the same
signature under np.linalg's own error policy: a LAPACK failure raises
LinAlgError with np.linalg's message, and no floating-point warning is
emitted. Values, vectors and errors are bit for bit np.linalg's.

The gufuncs are private to numpy (verified with numpy 2.4.6): a release that
renames their module fails this import, one that renames a gufunc fails its
first call, and tests/test_lapack.py and tests/test_tooling.py name the break.
"""

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg


def _not_positive_definite(err, flag):
    raise LinAlgError("Matrix is not positive definite")


def _singular(err, flag):
    raise LinAlgError("Singular matrix")


def _no_convergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _policy(handler):
    """np.linalg's error state for a gufunc call: an invalid value calls handler, the rest is ignored."""
    return np.errstate(call=handler, invalid="call", over="ignore", divide="ignore", under="ignore")


@_policy(_not_positive_definite)
def cholesky(a):
    """The lower Cholesky factor of each SPD matrix in a, as np.linalg.cholesky."""
    return _umath_linalg.cholesky_lo(a, signature="d->d")


@_policy(_singular)
def solve(a, b):
    """x with a x = b, as np.linalg.solve: b is one right side when 1-D, columns of right sides otherwise."""
    return (_umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve)(a, b, signature="dd->d")


@_policy(_no_convergence)
def eigh(a):
    """(eigenvalues ascending, eigenvectors as columns) of each symmetric matrix in a, read from its lower triangle."""
    return _umath_linalg.eigh_lo(a, signature="d->dd")


@_policy(_no_convergence)
def eigvalsh(a):
    """The eigenvalues, ascending, of each symmetric matrix in a, read from its lower triangle."""
    return _umath_linalg.eigvalsh_lo(a, signature="d->d")
