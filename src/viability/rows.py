"""Row-wise dot products and lengths that give each row the bits of that row alone.

The checks evaluate many points at once but must match a point evaluated on
its own bit for bit. A stacked matmul hands each row to the BLAS dot that
np.dot uses on that row alone, with the row's own strides, so both helpers
reproduce np.dot and np.linalg.norm of a single row exactly. Reductions such
as (A * B).sum(-1) or np.linalg.norm(U, axis=1) take another summation order
and can differ in the last bit.
"""

from __future__ import annotations

import numpy as np


def row_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.dot(A[i], B[i]) for each row i, over the last axis.

    Rows keep their layout: a row of a strided view, such as the noise
    column b[..., k] of a batch, takes the strided dot that the same column
    of one point takes. A contiguous copy of a strided row can round
    differently from n = 4 up. np.dot takes a one-element vector as a
    scalar and multiplies, which keeps the sign of a zero product, so rows
    of length 1 multiply too.
    """
    if A.shape[-1] == 1:
        return A[..., 0] * B[..., 0]
    return (A[..., None, :] @ B[..., :, None])[..., 0, 0]


def row_norm(u: np.ndarray) -> np.ndarray:
    """np.linalg.norm of a point or of each row, over the last axis.

    The rows are made contiguous first, as a freshly computed vector is, so
    a row of a Fortran-ordered batch gets the bits of that point too.
    """
    u = np.ascontiguousarray(u)
    return np.sqrt(row_dot(u, u))
