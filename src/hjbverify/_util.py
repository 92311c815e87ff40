"""Shared array-shape helpers.

Public toolkit functions accept states and controls either as single points
(scalar or shape ``(n,)``) or as batches of shape ``(P, n)``.  Internally all
numerics run on batches; these helpers normalize on the way in and remember
whether to squeeze on the way out.
"""

from __future__ import annotations

import numpy as np


def as_point_batch(x, dim: int) -> tuple[np.ndarray, bool]:
    """Normalize ``x`` to shape (P, dim).

    Returns the batch and a flag that is True when the input was a single
    point (so callers can return scalars/vectors instead of batches).  For
    one-dimensional quantities a 1-D array of length P > 1 is a batch of P
    points (a length-1 array stays a single point).
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        if dim != 1:
            raise ValueError(f"scalar input for a {dim}-dimensional quantity")
        return arr.reshape(1, 1), True
    if arr.ndim == 1:
        if dim == 1 and arr.shape[0] != 1:
            return arr.reshape(-1, 1), False
        if arr.shape[0] != dim:
            raise ValueError(f"expected a point of dimension {dim}, got shape {arr.shape}")
        return arr.reshape(1, dim), True
    if arr.ndim == 2:
        if arr.shape[1] != dim:
            raise ValueError(f"expected batch shape (P, {dim}), got {arr.shape}")
        return arr, False
    raise ValueError(f"expected scalar, ({dim},) or (P, {dim}) input, got shape {arr.shape}")


def unbatch(values: np.ndarray, single: bool):
    """Undo :func:`as_point_batch` on an output batch."""
    if not single:
        return values
    out = values[0]
    if np.ndim(out) == 0:
        return float(out)
    return out


def batch_call(fn, *args, expect_shape: tuple[int, ...], label: str):
    """Call a user coefficient on a batch and validate the output shape.

    Tries the vectorized call first; if it raises or the result has the wrong
    shape, falls back to a row-by-row loop so scalar-only user callables still
    work (the built-in problems are all vectorized).  If the loop raises too,
    its exception is chained to the vectorized call's.
    """
    first = None
    try:
        out = np.asarray(fn(*args), dtype=float)
        if out.shape == expect_shape:
            return out
    except Exception as exc:
        first = exc
    # Fallback: evaluate one row at a time.  Array arguments are batches over
    # axis 0; scalars (the time t, where the callable takes one) pass through.
    # A scalar return must not be broadcast — it may be a scalar-only
    # callable's answer for the first row, not a constant.
    out, row_shape = np.empty(expect_shape), expect_shape[1:]
    try:
        for i in range(expect_shape[0]):
            row = np.asarray(fn(*[a if np.ndim(a) == 0 else np.asarray(a)[i] for a in args]),
                             dtype=float)
            if row.size != int(np.prod(row_shape)):
                raise ValueError(f"{label} returned shape {row.shape} for one row, "
                                 f"expected {row_shape}")
            out[i] = row.reshape(row_shape)
    except Exception as exc:
        raise exc from first
    return out
