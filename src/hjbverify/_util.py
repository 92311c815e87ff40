"""Shared array-shape helpers.

One shape rule holds across the toolkit: a batch of P points of dimension n
is a (P, n) array, and every batched function takes exactly that
(:func:`probe_batch`); nothing reshapes a flat array into a batch.  A single
point — a scalar (n = 1 only), an (n,) vector or a (1, n) row — is accepted
only where the API documents one (:func:`as_point`), and a multi-row input
there raises instead of being read as its first row.  A user callable is
called once per batch (:func:`batch_call`); one that takes a row at a time is
declared with :func:`hjbverify.rowwise`, never guessed.
"""

from __future__ import annotations

import operator

import numpy as np


def as_point(x, dim: int) -> np.ndarray:
    """A scalar (dim 1 only), a (dim,) vector or a (1, dim) row as a (1, dim) row;
    any other shape, a batch of several points included, raises ValueError."""
    arr = np.asarray(x, dtype=float)
    if arr.shape not in ((dim,), (1, dim)) and not (arr.ndim == 0 and dim == 1):
        raise ValueError(f"expected a single point of dimension {dim} (a scalar for dimension 1, "
                         f"shape ({dim},) or (1, {dim})), got shape {arr.shape}")
    return arr.reshape(1, dim)


def as_size(value, name: str) -> int:
    """``value`` as a Python int; a float or other non-integer raises TypeError."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def probe_batch(x, dim: int | None = None) -> np.ndarray:
    """``x`` as a (P, n) float batch of points: states, or controls of a control set.

    A scalar, a single point, or a batch whose width is not ``dim`` (when
    given) raises ValueError naming the expected shape; nothing is reshaped.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or (dim is not None and arr.shape[1] != dim):
        raise ValueError(f"expected a (P, {dim or 'n'}) batch of points, got shape {arr.shape}")
    return arr


def batch_call(fn, *args, expect_shape: tuple[int, ...], label: str):
    """Call a user callable once on a batch and check the shape of its result.

    The result must have ``expect_shape``; the one reshape taken is a (P,)
    result for an expected (P, 1).  Any other shape raises ValueError naming
    ``label`` and both shapes.  An exception raised by ``fn`` propagates
    unchanged: nothing is retried row by row.
    """
    out = np.asarray(fn(*args), dtype=float)
    if out.shape == expect_shape:
        return out
    if expect_shape[-1:] == (1,) and out.shape == expect_shape[:-1]:
        return out.reshape(expect_shape)
    raise ValueError(f"{label} returned shape {out.shape} for a batch, expected {expect_shape}; "
                     f"wrap a callable that takes one row at a time in hjbverify.rowwise")
