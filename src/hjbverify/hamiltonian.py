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
raises (the Hamiltonian is not finite there).
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

    values = np.empty(P)
    argmins = np.empty((P, k))
    for i in range(P):
        values[i], argmins[i] = _scan_box(prob, t, xs[i], ps[i])
    return values, argmins, "scan"


def _scan_box(prob: ControlProblem, t: float, x_row: np.ndarray, p_row: np.ndarray):
    """Coarse grid + golden-section refinement over a (possibly unbounded) box."""
    U = prob.control_set
    k = U.dimension
    res = U.grid_resolution

    def h_many(zs: np.ndarray) -> np.ndarray:
        P = zs.shape[0]
        xb = np.broadcast_to(x_row, (P, x_row.shape[0]))
        pb = np.broadcast_to(p_row, (P, p_row.shape[0]))
        return _h_cv(prob, t, xb, pb, zs)

    def h_one(z: np.ndarray) -> float:
        return float(h_many(z.reshape(1, k))[0])

    lo = U.lower.copy()
    hi = U.upper.copy()
    base = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    for j in range(k):
        if not np.isfinite(hi[j]):
            hi[j] = _bracket(h_one, base, j, start=base[j], direction=+1.0)
        if not np.isfinite(lo[j]):
            lo[j] = _bracket(h_one, base, j, start=base[j], direction=-1.0)

    axes = [np.linspace(lo[j], hi[j], res) for j in range(k)]
    if k == 1:
        grid = axes[0].reshape(-1, 1)
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([g.ravel() for g in mesh], axis=1)
    try:
        vals = h_many(grid)
    except CoefficientError:
        # A bracketed box can reach overflow territory; degrade gracefully to
        # per-point probes with +inf at the offending controls.
        vals = np.empty(grid.shape[0])
        for i in range(grid.shape[0]):
            try:
                vals[i] = h_one(grid[i])
            except CoefficientError:
                vals[i] = math.inf
        if not np.any(np.isfinite(vals)):
            raise
    vmin = np.nanmin(vals)
    tol = 1e-12 * (1.0 + abs(vmin))
    best = int(np.argmax(vals <= vmin + tol))  # first in lexicographic grid order
    z = grid[best].copy()
    cell = (hi - lo) / (res - 1)

    # Coordinate-wise golden-section refinement around the best cell.
    for _ in range(100):
        moved = 0.0
        for j in range(k):
            a = max(lo[j], z[j] - cell[j])
            b = min(hi[j], z[j] + cell[j])
            zj = _golden(lambda v: h_one(_with(z, j, v)), a, b)
            moved = max(moved, abs(zj - z[j]))
            z[j] = zj
        cell = np.maximum(cell / 4.0, _GOLDEN_STEP)
        if moved <= _GOLDEN_STEP:
            break
    return h_one(z), z


def _with(z: np.ndarray, j: int, v: float) -> np.ndarray:
    out = z.copy()
    out[j] = v
    return out


def _bracket(h_one: Callable, base: np.ndarray, axis: int, start: float, direction: float) -> float:
    """Geometric doubling along one unbounded axis until H_cv turns upward.

    Requires _UPTURN_RUN consecutive increases; raises if the scan never turns
    (H0 = -inf there, i.e. the Hamiltonian is not finite).
    """
    def probe(value: float) -> float:
        try:
            return h_one(_with(base, axis, value))
        except CoefficientError:
            return math.inf  # overflow far out counts as an upturn

    prev = probe(start)
    step = 1.0
    increases = 0
    value = start
    for _ in range(_MAX_DOUBLINGS):
        value = start + direction * step
        cur = probe(value)
        # Non-decrease counts toward the upturn: a flat H_cv (no control
        # dependence along this axis) attains its infimum anywhere, so any
        # finite bracket is valid; only a strict decrease resets the run.
        if cur >= prev - 1e-14 * (1.0 + abs(prev)):
            increases += 1
        else:
            increases = 0
        if increases >= _UPTURN_RUN:
            return value
        prev = cur
        step *= 2.0
    raise ValueError(
        "Hamiltonian is not finite: H_cv never turned upward along the "
        f"unbounded control axis {axis} ({_MAX_DOUBLINGS} doublings from {start}, "
        f"direction {direction:+.0f})"
    )


def _golden(fn: Callable[[float], float], a: float, b: float, tol: float = _GOLDEN_STEP) -> float:
    """Golden-section minimum of ``fn`` on [a, b] to absolute width ``tol``.

    The original endpoints compete with the interior estimate, so a minimum
    attained exactly on the boundary (an active box constraint) is returned
    exactly rather than displaced by half the final bracket width.
    """
    a0, b0 = a, b
    if b - a > tol:
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        x1 = b - invphi * (b - a)
        x2 = a + invphi * (b - a)
        f1, f2 = fn(x1), fn(x2)
        while b - a > tol:
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - invphi * (b - a)
                f1 = fn(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + invphi * (b - a)
                f2 = fn(x2)
    candidates = (0.5 * (a + b), a0, b0)
    values = [fn(c) for c in candidates]
    return candidates[int(np.argmin(values))]


def _clamped_gap(raw: np.ndarray, h0: np.ndarray) -> np.ndarray:
    """Clamp raw gaps below the roundoff resolution 1e-9·(1+|H0|) to exact 0."""
    tol = 1e-9 * (1.0 + np.abs(h0))
    return np.where(raw > tol, raw, 0.0)


def _describe_set(U) -> str:
    if U.kind == "box":
        return f"box[{U.lower}, {U.upper}]"
    return f"finite set of {U.points.shape[0]} points"
