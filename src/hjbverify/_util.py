"""Shared array-shape helpers.

One shape rule holds across the toolkit: a batch of P points of dimension n
is a (P, n) array, and every batched function takes exactly that
(:func:`probe_batch`); nothing reshapes a flat array into a batch.  A single
point — a scalar (n = 1 only), an (n,) vector or a (1, n) row — is accepted
only where the API documents one (:func:`as_point`), and a multi-row input
there raises instead of being read as its first row.
"""

from __future__ import annotations

import logging
import operator

import numpy as np

log = logging.getLogger(__name__)

# Coefficient labels whose row-by-row fallback has been logged in this process.
_FALLBACK_LOGGED: set[str] = set()


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


class ProbeShapeError(ValueError):
    """A batched function got something other than a (P, n) batch of points."""


def probe_batch(x, dim: int | None = None) -> np.ndarray:
    """``x`` as a (P, n) float batch of points: states, or controls of a control set.

    A scalar, a single point, or a batch whose width is not ``dim`` (when
    given) raises :class:`ProbeShapeError` naming the expected shape; nothing
    is reshaped.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or (dim is not None and arr.shape[1] != dim):
        raise ProbeShapeError(f"expected a (P, {dim or 'n'}) batch of points, got shape {arr.shape}")
    return arr


def batch_call(fn, *args, expect_shape: tuple[int, ...], label: str):
    """Call a user coefficient on a batch and validate the output shape.

    Tries the vectorized call first; if it raises or the result has the wrong
    shape, falls back to a row-by-row loop so scalar-only user callables still
    work (the built-in problems are all vectorized).  The one reshape taken
    without a fallback: when the expected last axis has length 1 and only that
    axis is missing, e.g. a (P,) result for an expected (P, 1).  The first
    fallback of each ``label`` is logged as a warning.  If the loop raises
    too, its exception is chained to the vectorized call's.  A
    :class:`ProbeShapeError` raised inside ``fn`` is a wrong-shape batch, not
    a scalar-only callable: it is raised at once, without the fallback.
    """
    first = None
    try:
        out = np.asarray(fn(*args), dtype=float)
        if out.shape == expect_shape:
            return out
        if expect_shape[-1:] == (1,) and out.shape == expect_shape[:-1]:
            return out.reshape(expect_shape)
        reason = f"returned shape {out.shape}, expected {expect_shape}"
    except ProbeShapeError:
        raise
    except Exception as exc:
        first = exc
        reason = f"raised {type(exc).__name__}: {exc}"
    if label not in _FALLBACK_LOGGED:
        _FALLBACK_LOGGED.add(label)
        log.warning("%s: the batched call %s; evaluating it row by row "
                    "(slow; logged once per coefficient)", label, reason)
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
