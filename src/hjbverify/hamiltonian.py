"""Current-value Hamiltonians, their minimization, and duality gaps.

For the canonical (minimize) form of a problem the current-value Hamiltonian
and its minimized version are

    H_cv(t, x, p; z) = <F1(t, x, z), p> + l(t, x, z),
    H0(t, x, p)      = inf_{z in U} H_cv(t, x, p; z),

so ``H_cv - H0 >= 0`` is the pointwise duality gap that the verification
identity integrates along trajectories.  Maximization problems are negated
internally; the covector ``p`` is always interpreted in the canonical
orientation (the gradient of the *minimize*-sense value function).

Minimization strategy: a registered closed form wins; otherwise finite control
sets are enumerated (vectorized over evaluation points) and box sets are
scanned with a coarse per-axis grid at ``grid_resolution`` followed by
golden-section refinement down to an absolute control step of 1e-8.  Unbounded
axes are bracketed by geometric doubling from the finite corner; the upturn of
H_cv is checked, never assumed, and a missing upturn after 1000 doublings
raises (the Hamiltonian is not finite there).  The box scan runs in lockstep
over all evaluation points: each of its steps makes one H_cv call covering
every row still active, and every row gets bit for bit the result of a scan
of that row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import as_point_batch
from .problem import CoefficientError, ControlProblem, canonicalize

__all__ = [
    "HamiltonianEval",
    "current_value",
    "minimize",
    "duality_gap",
    "feedback_map",
]

_GOLDEN_STEP = 1e-8        # absolute control-step target of the refinement
_MAX_DOUBLINGS = 1000
_UPTURN_RUN = 3            # consecutive increases required to accept a bracket


@dataclass(frozen=True)
class HamiltonianEval:
    """Result of minimizing H_cv over U at one (t, x, p).

    ``gap_at(z)`` returns the *unclamped* H_cv(z) − value, which may be a few
    ulps negative when z is the minimizer; ``tol_gap`` is the resolution below
    which gaps are indistinguishable from zero.
    """

    value: float
    argmin: float | np.ndarray
    method: str                       # "closed_form" | "scan"
    gap_at: Callable
    tol_gap: float


def current_value(problem: ControlProblem, t: float, x, p, z) -> float:
    """H_cv(t, x, p; z) on the canonicalized problem.

    Raises ValueError when ``z`` is outside the admissible set U.
    """
    prob = canonicalize(problem)
    xb, _ = as_point_batch(x, prob.dimension)
    pb, _ = as_point_batch(p, prob.dimension)
    zb, _ = as_point_batch(z, prob.control_dimension)
    if not np.all(prob.control_set.contains(zb)):
        raise ValueError(
            f"control z={np.asarray(z)} lies outside the admissible set U "
            f"({_describe_set(prob.control_set)})"
        )
    return float(_h_cv(prob, t, xb, pb, zb)[0])


def minimize(problem: ControlProblem, t: float, x, p) -> HamiltonianEval:
    """Minimize H_cv over U at one point; closed form if registered, else scan.

    ``p`` is the costate in the canonical minimize orientation.  For a
    maximize-sense problem that is the *negated* gradient of the candidate
    value function; :func:`feedback_map` applies that flip automatically.
    """
    prob = canonicalize(problem)
    xb, _ = as_point_batch(x, prob.dimension)
    pb, _ = as_point_batch(p, prob.dimension)
    values, argmins, method = _minimize_batch(prob, t, xb, pb)
    value = float(values[0])
    zmin = argmins[0]
    zmin_out = float(zmin[0]) if prob.control_dimension == 1 else zmin.copy()
    tol_gap = 1e-9 * (1.0 + abs(value))

    def gap_at(z, _prob=prob, _t=t, _x=xb, _p=pb, _v=value):
        zb, _ = as_point_batch(z, _prob.control_dimension)
        return float(_h_cv(_prob, _t, _x, _p, zb)[0]) - _v

    return HamiltonianEval(value=value, argmin=zmin_out, method=method,
                           gap_at=gap_at, tol_gap=tol_gap)


def duality_gap(problem: ControlProblem, t: float, x, p, z) -> float:
    """Clamped pointwise gap H_cv(t,x,p;z) − H0(t,x,p) ≥ 0.

    Exactly 0.0 when z attains the minimum within ``tol_gap``; raw gaps below
    that resolution are indistinguishable from optimal and must not pollute
    downstream averages with roundoff noise.
    """
    ev = minimize(problem, t, x, p)
    raw = ev.gap_at(z)
    return raw if raw > ev.tol_gap else 0.0


def feedback_map(problem: ControlProblem, gradient_field) -> Callable:
    """Build the feedback (t, x) -> argmin_z H_cv(t, x, grad v(t, x); z).

    ``gradient_field`` is either a callable ``(t, x) -> covector`` for the
    problem's *declared* sense (the gradient of the candidate value function
    as the user knows it) or an object with a ``gradient_at`` method (a solved
    field).  For maximize-sense problems the sign flip to the canonical
    orientation happens here.  The returned callable accepts single states or
    (P, n) batches.
    """
    prob = canonicalize(problem)
    flip = -1.0 if problem.sense == "maximize" else 1.0
    grad = gradient_field.gradient_at if hasattr(gradient_field, "gradient_at") else gradient_field
    n, k = prob.dimension, prob.control_dimension

    def feedback(t, x):
        xb, single = as_point_batch(x, n)
        pb = flip * np.asarray(grad(t, xb), dtype=float).reshape(xb.shape[0], n)
        _, argmins, _ = _minimize_batch(prob, t, xb, pb)
        if single:
            return float(argmins[0, 0]) if k == 1 else argmins[0]
        return argmins

    return feedback


# ---------------------------------------------------------------------------
# Batched internals (shared with hjb and verify)
# ---------------------------------------------------------------------------


def _h_cv(prob: ControlProblem, t: float, xs: np.ndarray, ps: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Vectorized H_cv on a canonical problem; xs, ps (P, n), zs (P, k)."""
    f1 = prob.f1(t, xs, zs)
    ell = prob.cost_rate(t, xs, zs)
    return np.einsum("pn,pn->p", f1, ps) + ell


def _minimize_batch(prob: ControlProblem, t: float, xs: np.ndarray, ps: np.ndarray):
    """Minimize H_cv at each row of (xs, ps); returns (values, argmins, method).

    ``values`` has shape (P,), ``argmins`` (P, k).  The problem must already
    be canonical.
    """
    P = xs.shape[0]
    k = prob.control_dimension
    cf = prob.closed_form_hamiltonian
    if cf is not None:
        if prob.dimension == 1 and k == 1:
            vals, args = cf(t, xs[:, 0], ps[:, 0])
            vals = np.broadcast_to(np.asarray(vals, dtype=float), (P,)).copy()
            args = np.broadcast_to(np.asarray(args, dtype=float), (P,)).reshape(P, 1).copy()
        else:
            vals, args = cf(t, xs, ps)
            vals = np.asarray(vals, dtype=float).reshape(P)
            args = np.asarray(args, dtype=float).reshape(P, k)
        return vals, args, "closed_form"

    U = prob.control_set
    if U.kind == "finite":
        pts = U.points  # lexicographically sorted at construction
        all_vals = np.empty((pts.shape[0], P))
        for j, zj in enumerate(pts):
            zb = np.broadcast_to(zj, (P, k))
            all_vals[j] = _h_cv(prob, t, xs, ps, zb)
        vmin = all_vals.min(axis=0)
        tol = 1e-12 * (1.0 + np.abs(vmin))
        first = np.argmax(all_vals <= vmin + tol, axis=0)  # first lexicographic tie
        return vmin, pts[first], "scan"

    return (*_scan_box(prob, t, xs, ps), "scan")


def _h_or_inf(prob: ControlProblem, t: float, xs: np.ndarray, ps: np.ndarray, zs: np.ndarray):
    """:func:`_h_cv` with +inf at the rows whose coefficients fail (overflow far out).

    A batch that raises :class:`CoefficientError` is split in halves until
    the failing rows stand alone, so every other row keeps its value.
    """
    try:
        return _h_cv(prob, t, xs, ps, zs)
    except CoefficientError:
        if zs.shape[0] == 1:
            return np.array([math.inf])
        h = zs.shape[0] // 2
        return np.concatenate([_h_or_inf(prob, t, xs[:h], ps[:h], zs[:h]),
                               _h_or_inf(prob, t, xs[h:], ps[h:], zs[h:])])


def _scan_box(prob: ControlProblem, t: float, xs: np.ndarray, ps: np.ndarray):
    """Coarse grid + golden-section refinement over a (possibly unbounded) box.

    All rows step in lockstep: each step makes one H_cv call covering every
    row still active, and each row follows exactly the arithmetic of a scan
    run on that row alone.
    """
    U = prob.control_set
    P, k, res = xs.shape[0], U.dimension, U.grid_resolution
    if P == 0:
        return np.empty(0), np.empty((0, k))
    lo, hi = np.tile(U.lower, (P, 1)), np.tile(U.upper, (P, 1))
    base = np.where(np.isfinite(U.lower), U.lower, np.where(np.isfinite(U.upper), U.upper, 0.0))
    for j in range(k):
        for bound, direction in ((hi, +1.0), (lo, -1.0)):
            if not np.isfinite(bound[0, j]):
                bound[:, j] = _bracket(prob, t, xs, ps, base, j, direction)

    # Row i's grid is the lexicographic (meshgrid "ij") product of its axes.
    m = res ** k
    idx = np.indices((res,) * k).reshape(k, m)
    grid = np.stack([np.linspace(lo[:, j], hi[:, j], res, axis=1)[:, idx[j]] for j in range(k)], axis=-1)
    xg, pg = np.repeat(xs, m, axis=0), np.repeat(ps, m, axis=0)
    vals = _h_or_inf(prob, t, xg, pg, grid.reshape(P * m, k)).reshape(P, m)
    dead = ~np.isfinite(vals).any(axis=1)
    if dead.any():  # a row whose every grid point failed has no minimum: raise its error
        rep = np.repeat(dead, m)
        _h_cv(prob, t, xg[rep], pg[rep], grid[dead].reshape(-1, k))
    vmin = np.nanmin(vals, axis=1, keepdims=True)
    best = np.argmax(vals <= vmin + 1e-12 * (1.0 + np.abs(vmin)), axis=1)  # first in grid order
    z = grid[np.arange(P), best]
    cell = (hi - lo) / (res - 1)

    # Coordinate-wise golden-section refinement around the best cell, until a
    # row's round moves no coordinate by more than the control step.
    rows = np.arange(P)
    for _ in range(100):
        moved = np.zeros(rows.size)
        for j in range(k):
            zr = z[rows]
            a = np.maximum(lo[rows, j], zr[:, j] - cell[rows, j])
            b = np.minimum(hi[rows, j], zr[:, j] + cell[rows, j])
            zj = _golden(prob, t, xs[rows], ps[rows], zr, j, a, b)
            moved = np.fmax(moved, np.abs(zj - zr[:, j]))
            z[rows, j] = zj
        cell[rows] = np.maximum(cell[rows] / 4.0, _GOLDEN_STEP)
        rows = rows[moved > _GOLDEN_STEP]
        if rows.size == 0:
            break
    return _h_cv(prob, t, xs, ps, z), z


def _bracket(prob: ControlProblem, t: float, xs: np.ndarray, ps: np.ndarray,
             base: np.ndarray, axis: int, direction: float) -> np.ndarray:
    """Geometric doubling along one unbounded axis until H_cv turns upward.

    The doubling sequence from ``base`` is shared by all rows; each row stops
    at its own _UPTURN_RUN-th consecutive non-decrease, and the (P,) stops are
    returned.  Raises, naming the first row that never turns, after
    _MAX_DOUBLINGS (H0 = -inf there, i.e. the Hamiltonian is not finite).
    """
    start, rows = base[axis], np.arange(xs.shape[0])
    stops, z = np.empty(rows.size), np.tile(base, (rows.size, 1))
    prev = _h_or_inf(prob, t, xs, ps, z)
    increases = np.zeros(rows.size, dtype=int)
    step = 1.0
    for _ in range(_MAX_DOUBLINGS):
        value = start + direction * step
        z[:, axis] = value
        cur = _h_or_inf(prob, t, xs[rows], ps[rows], z[:rows.size])
        # Non-decrease counts toward the upturn: a flat H_cv (no control
        # dependence along this axis) attains its infimum anywhere, so any
        # finite bracket is valid; only a strict decrease resets the run.
        # Overflow far out (+inf, also after +inf) counts as an upturn.
        with np.errstate(invalid="ignore"):  # inf - inf after an overflow
            up = (cur == math.inf) | (cur >= prev - 1e-14 * (1.0 + np.abs(prev)))
        increases = np.where(up, increases + 1, 0)
        done = increases >= _UPTURN_RUN
        stops[rows[done]] = value
        rows, prev, increases = rows[~done], cur[~done], increases[~done]
        if rows.size == 0:
            return stops
        step *= 2.0
    i = rows[0]
    raise ValueError(
        f"Hamiltonian is not finite at t={t}, x={xs[i]}, p={ps[i]}: H_cv never "
        f"turned upward along the unbounded control axis {axis} ({_MAX_DOUBLINGS} "
        f"doublings from {start}, direction {direction:+.0f})"
    )


def _golden(prob: ControlProblem, t: float, xs: np.ndarray, ps: np.ndarray, z: np.ndarray,
            axis: int, a: np.ndarray, b: np.ndarray, tol: float = _GOLDEN_STEP) -> np.ndarray:
    """Golden-section minimum along ``axis`` of every row, to absolute width ``tol``.

    Row i searches [a[i], b[i]] with its other coordinates fixed at z[i]; the
    rows step in lockstep, each until its own bracket is narrow enough or
    stops shrinking (where the spacing of floats near z exceeds ``tol``).  The
    original endpoints compete with the interior estimate, so a minimum
    attained exactly on the boundary (an active box constraint) is returned
    exactly rather than displaced by half the final bracket width.
    """
    def fn(xl, pl, zl, v):
        if v.size == 0:  # no live row: call no coefficient on an empty batch
            return v
        zs = zl.copy()
        zs[:, axis] = v
        return _h_cv(prob, t, xl, pl, zs)

    a0, b0, a, b = a, b, a.copy(), b.copy()
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    # The loop works on the live rows only, compacted whenever one finishes;
    # a row's final bracket is written back to a, b as it leaves.
    rows = np.flatnonzero(b - a > tol)
    lo, hi, xl, pl, zl = a[rows], b[rows], xs[rows], ps[rows], z[rows]
    width = hi - lo
    x1, x2 = hi - invphi * width, lo + invphi * width
    f1, f2 = fn(xl, pl, zl, x1), fn(xl, pl, zl, x2)
    while rows.size:
        left = f1 <= f2
        hi, lo = np.where(left, x2, hi), np.where(left, lo, x1)
        w = hi - lo
        new = np.where(left, hi - invphi * w, lo + invphi * w)
        x1, x2 = np.where(left, new, x2), np.where(left, x1, new)
        fnew = fn(xl, pl, zl, new)
        f1, f2 = np.where(left, fnew, f2), np.where(left, f1, fnew)
        keep = (w > tol) & (w < width)  # far out, ulp(z) > tol stalls the bracket
        width = w
        if not keep.all():
            a[rows], b[rows] = lo, hi
            rows, lo, hi, x1, x2, f1, f2, width, xl, pl, zl = (
                v[keep] for v in (rows, lo, hi, x1, x2, f1, f2, width, xl, pl, zl))
    candidates = np.stack([0.5 * (a + b), a0, b0])
    values = fn(np.tile(xs, (3, 1)), np.tile(ps, (3, 1)), np.tile(z, (3, 1)),
                candidates.ravel()).reshape(3, -1)
    return candidates[np.argmin(values, axis=0), np.arange(a.size)]


def _clamped_gap(raw: np.ndarray, h0: np.ndarray) -> np.ndarray:
    """Clamp raw gaps below the roundoff resolution 1e-9·(1+|H0|) to exact 0."""
    tol = 1e-9 * (1.0 + np.abs(h0))
    return np.where(raw > tol, raw, 0.0)


def _describe_set(U) -> str:
    if U.kind == "box":
        return f"box[{U.lower}, {U.upper}]"
    return f"finite set of {U.points.shape[0]} points"
