"""The one LAPACK entry: numpy's linalg gufuncs called directly, bit for bit np.linalg."""

import warnings

import numpy as np
import pytest

from steklov import _lapack

SIZES = range(1, 41)


def symmetric_stack(rng, n, spd=False):
    """A (3, n, n) stack of random symmetric matrices, positive definite when spd."""
    a = rng.standard_normal((3, n, n))
    return a @ a.transpose(0, 2, 1) + n * np.eye(n) if spd else a + a.transpose(0, 2, 1)


def assert_bitwise(got, want):
    assert type(got) is np.ndarray and got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_each_function_is_np_linalg_bit_for_bit(n):
    rng = np.random.default_rng(1000 + n)
    spd, sym = symmetric_stack(rng, n, spd=True), symmetric_stack(rng, n)
    for a in (spd, spd[0], sym, sym[1]):
        values, vectors = _lapack.eigh(a)
        want = np.linalg.eigh(a)
        assert_bitwise(values, want.eigenvalues)
        assert_bitwise(vectors, want.eigenvectors)
        assert_bitwise(_lapack.eigvalsh(a), np.linalg.eigvalsh(a))
    for a in (spd, spd[2]):
        assert_bitwise(_lapack.cholesky(a), np.linalg.cholesky(a))
    chol = np.linalg.cholesky(spd[0])
    for b in (rng.standard_normal(n), rng.standard_normal((n, 4)), rng.standard_normal((n, 1))):
        assert_bitwise(_lapack.solve(chol, b), np.linalg.solve(chol, b))
        assert_bitwise(_lapack.solve(chol.T, b), np.linalg.solve(chol.T, b))
    stacked = rng.standard_normal((3, n, 2))
    assert_bitwise(_lapack.solve(spd, stacked), np.linalg.solve(spd, stacked))


def outcome(fn, *args):
    """("raises", message) or ("returns", the bytes of each output), with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = fn(*args)
        except np.linalg.LinAlgError as e:
            return "raises", str(e)
    return "returns", [x.tobytes() for x in (out if isinstance(out, tuple) else (out,))]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 20, 40])
def test_failures_are_np_linalgs_and_emit_no_warning(n):
    # a non-SPD pivot and an exactly singular system raise LinAlgError with
    # np.linalg's message; a NaN entry stops LAPACK on most sizes, and where
    # it does not (n <= 2, or eigh at n = 40) the outputs are np.linalg's
    rng = np.random.default_rng(2000 + n)
    not_spd = symmetric_stack(rng, n, spd=True)
    not_spd[1, -1, -1] = -1e3 * n
    for name, *args in [("cholesky", not_spd), ("cholesky", np.zeros((n, n))),
                        ("solve", np.zeros((n, n)), np.ones(n)), ("solve", np.zeros((n, n)), np.ones((n, 2)))]:
        got = outcome(getattr(_lapack, name), *args)
        assert got[0] == "raises" and got == outcome(getattr(np.linalg, name), *args)
    sym = symmetric_stack(rng, n)
    for i, j in ((0, 0), (n - 1, n - 1), (n - 1, 0)):
        nan = sym.copy()
        nan[2, i, j] = nan[2, j, i] = np.nan
        for name, a in (("eigh", nan), ("eigvalsh", nan), ("eigvalsh", nan[2]), ("cholesky", nan @ nan)):
            assert outcome(getattr(_lapack, name), a) == outcome(getattr(np.linalg, name), a)
        if 3 <= n <= 20:  # a NaN in a dense symmetric matrix stops both eigensolvers at these sizes
            assert outcome(_lapack.eigh, nan) == outcome(_lapack.eigvalsh, nan) == (
                "raises", "Eigenvalues did not converge")


def test_empty_stacks_keep_their_shapes():
    for a in (np.zeros((0, 0)), np.zeros((3, 0, 0)), np.zeros((0, 2, 2))):
        assert_bitwise(_lapack.cholesky(a), np.linalg.cholesky(a))
        assert_bitwise(_lapack.eigvalsh(a), np.linalg.eigvalsh(a))
        for got, want in zip(_lapack.eigh(a), np.linalg.eigh(a)):
            assert_bitwise(got, want)
    for b in (np.zeros(0), np.zeros((0, 3))):
        assert_bitwise(_lapack.solve(np.zeros((0, 0)), b), np.linalg.solve(np.zeros((0, 0)), b))
