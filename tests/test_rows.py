"""Guard tests for the row-wise dot products that the batched checks rest on."""

import numpy as np
import pytest

from viability.rows import row_dot, row_norm


def _rows(rng, m, n):
    A = rng.standard_normal((m, n))
    A[::7] = 0.0  # zero rows against signed entries give signed zeros
    A[1::5, 0] = -0.0
    return A


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_row_dot_is_np_dot_on_contiguous_and_strided_rows(n):
    # If a NumPy or BLAS upgrade sends the stacked matmul's rows to another
    # kernel than np.dot, this fails before any bit-for-bit check does.
    rng = np.random.default_rng(n)
    m = 500
    A, B = _rows(rng, m, n), _rows(rng, m, n)
    wide = rng.standard_normal((m, n, 3))  # column j of each row is strided
    for X, Y in ((A, B), (wide[..., 1], B), (wide[..., 2], wide[..., 0]), (A.T.copy().T, B)):
        got = row_dot(X, Y)
        expect = np.array([np.dot(x, y) for x, y in zip(X, Y)])
        assert got.tobytes() == expect.tobytes()
        assert row_norm(X).tobytes() == np.array([np.linalg.norm(x) for x in X]).tobytes()
