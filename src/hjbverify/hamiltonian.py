"""Current-value Hamiltonians, their minimization, and duality gaps.

For the canonical (minimize) form of a problem the current-value Hamiltonian
and its minimized version are

    H_cv(t, x, p; z) = <F1(t, x, z), p> + l(t, x, z),
    H0(t, x, p)      = inf_{z in U} H_cv(t, x, p; z),

so ``H_cv - H0 >= 0`` is the pointwise duality gap that the verification
identity integrates along trajectories.  Maximization problems are negated
internally; the covector ``p`` is always interpreted in the canonical
orientation (the gradient of the *minimize*-sense value function).

Shapes: :func:`current_value`, :func:`minimize` and :func:`duality_gap` take
one point each of x, p and z, and several rows raise ValueError.  The batched
internals call a registered closed form with their (P, n) ``xs`` and ``ps``.

Minimization strategy: a registered closed form wins; otherwise finite control
sets are enumerated (vectorized over evaluation points) and box sets are
scanned with a coarse grid of 33 points per axis, then refined by a K-point
section search (11 interior points per H_cv call, each call shrinking a
bracket 6-fold) down to an absolute control step of 1e-8: far fewer calls,
each with its fixed cost, than golden section, at about its cost per row on
large batches.  One section pass settles a single control axis; with several
axes the passes repeat in rounds of coordinate descent only while a round both
moves a coordinate by more than that step and lowers H_cv by more than
roundoff (a minimizer is located only to about sqrt(eps), where H_cv is flat
to roundoff, so further rounds would only wander).  Coordinate descent
contracts by about c² per round on a valley with control coupling c, so
strongly coupled controls can reach the cap of 100 rounds still descending:
their values are returned as they stand, and each minimization that leaves
rows at the cap logs one WARNING giving their number.  Unbounded axes are
bracketed by geometric doubling from the finite corner, up to 8 doublings per
H_cv call (one on a large batch); the upturn of H_cv is checked, never
assumed, and a missing upturn after 1000 doublings raises (the Hamiltonian is
not finite there).  A grid or bracket point whose coefficients overflow reads
+inf within its call.  The box scan runs in lockstep over all evaluation
points: each of its steps makes one H_cv call covering every row still
active, and every row gets bit for bit the result of a scan of that row alone.
The array work around a call is fixed: a bracket block decides the rise test
and the upturn runs of all its probes at once, in about 35 small array
operations however many doublings it holds, and drops its finished rows once;
a section pass takes about 18, on x, p (and, with several axes, z) rows
repeated once per point and repeated anew only when a row leaves.  A one-axis
scan ends after its one pass, with no round bookkeeping.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import as_point, batch_call, probe_batch
from .problem import CoefficientError, ControlProblem, canonicalize

__all__ = [
    "HamiltonianEval",
    "current_value",
    "minimize",
    "duality_gap",
    "feedback_map",
]

log = logging.getLogger(__name__)

_SCAN_POINTS = 33          # coarse box-scan grid points per control axis
_CONTROL_STEP = 1e-8       # absolute control-step target of the refinement
_SECTION_POINTS = 11       # interior points of one section-search pass
_CALL_POINTS = 1000        # H_cv points that cost about as much as one call's fixed overhead
_ROUND_GAIN = 8 * np.finfo(float).eps  # a round that lowers H_cv by less is roundoff
_MAX_ROUNDS = 100          # coordinate-descent rounds of the box scan (k > 1)
_MAX_DOUBLINGS = 1000
_BRACKET_BLOCK = 8         # most doublings one H_cv call of the bracket probes
_UPTURN_RUN = 3            # consecutive increases required to accept a bracket
_DOUBLINGS = np.concatenate([[0.0], np.ldexp(1.0, np.arange(_MAX_DOUBLINGS))])  # 0 and 2^0 .. 2^999


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
    """H_cv(t, x, p; z) on the canonicalized problem, at one point each of x, p and z.

    Raises ValueError when ``z`` is outside the admissible set U.
    """
    prob = canonicalize(problem)
    xb, pb = as_point(x, prob.dimension), as_point(p, prob.dimension)
    zb = as_point(z, prob.control_dimension)
    if not np.all(prob.control_set.contains(zb)):
        raise ValueError(
            f"control z={np.asarray(z)} lies outside the admissible set U "
            f"({_describe_set(prob.control_set)})"
        )
    return float(_h_cv(prob, t, xb, pb, zb)[0])


def minimize(problem: ControlProblem, t: float, x, p) -> HamiltonianEval:
    """Minimize H_cv over U at one point; closed form if registered, else scan.

    ``x``, ``p`` and the ``z`` of ``gap_at(z)`` are single points: a scalar
    when n = 1, an (n,) vector or a (1, n) row.  ``p`` is the costate in the
    canonical minimize orientation.  For a maximize-sense problem that is the
    *negated* gradient of the candidate value function; :func:`feedback_map`
    applies that flip automatically.
    """
    prob = canonicalize(problem)
    xb, pb = as_point(x, prob.dimension), as_point(p, prob.dimension)
    values, argmins = _minimize_batch(prob, t, xb, pb)
    method = "scan" if prob.closed_form_hamiltonian is None else "closed_form"
    value, zmin = float(values[0]), argmins[0]
    zmin_out = float(zmin[0]) if prob.control_dimension == 1 else zmin.copy()

    def gap_at(z, _prob=prob, _t=t, _x=xb, _p=pb, _v=value):
        return float(_h_cv(_prob, _t, _x, _p, as_point(z, _prob.control_dimension))[0]) - _v

    return HamiltonianEval(value=value, argmin=zmin_out, method=method,
                           gap_at=gap_at, tol_gap=float(_gap_resolution(value)))


def duality_gap(problem: ControlProblem, t: float, x, p, z) -> float:
    """Clamped pointwise gap H_cv(t,x,p;z) − H0(t,x,p) ≥ 0 at one point each of x, p and z.

    Exactly 0.0 when z attains the minimum within ``tol_gap``; raw gaps below
    that resolution are indistinguishable from optimal and must not pollute
    downstream averages with roundoff noise.
    """
    ev = minimize(problem, t, x, p)
    return float(_clamped_gap(ev.gap_at(z), ev.value))


def feedback_map(problem: ControlProblem, gradient_field) -> Callable:
    """Build the feedback (t, x) -> argmin_z H_cv(t, x, grad v(t, x); z).

    ``gradient_field`` is a batched callable ``(t, x) -> (P, n) covectors``
    for the problem's *declared* sense (another shape raises ValueError; wrap
    a one-point-at-a-time callable in :func:`~hjbverify.rowwise`), or an
    object with a ``gradient_at`` method (a solved field).  The
    canonical sign flip happens here.  The returned callable maps a (P, n)
    batch of states to (P, k) controls, and one state (a scalar when n = 1
    or an (n,) vector) to one control, a float when k = 1; a flat array of
    several states raises ValueError.
    """
    prob = canonicalize(problem)
    flip = -1.0 if problem.sense == "maximize" else 1.0
    grad = gradient_field.gradient_at if hasattr(gradient_field, "gradient_at") else gradient_field
    n, k = prob.dimension, prob.control_dimension

    def feedback(t, x):
        batch = np.ndim(x) == 2
        xb = probe_batch(x, n) if batch else as_point(x, n)
        pb = flip * batch_call(grad, t, xb, expect_shape=xb.shape, label="gradient_field")
        _, argmins = _minimize_batch(prob, t, xb, pb)
        if batch:
            return argmins
        return float(argmins[0, 0]) if k == 1 else argmins[0]

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
    """Minimize H_cv at each row of (xs, ps); returns (values, argmins).

    ``values`` has shape (P,), ``argmins`` (P, k).  The problem must already
    be canonical.  A closed form gets (xs, ps) as they are and must return
    the shapes :class:`~hjbverify.problem.ControlProblem` documents.
    """
    P = xs.shape[0]
    k = prob.control_dimension
    cf = prob.closed_form_hamiltonian
    if cf is not None:
        vals, args = cf(t, xs, ps)
        vals, args = np.asarray(vals, dtype=float), np.asarray(args, dtype=float)
        if vals.shape not in ((P,), (P, 1)) or args.shape not in ((P, k), (P,) if k == 1 else (P, k)):
            raise ValueError(f"closed_form_hamiltonian returned shapes {vals.shape} and {args.shape} "
                             f"at x and p of shape {xs.shape}: expected ({P},) or ({P}, 1) and ({P}, {k})")
        return vals.reshape(P), args.reshape(P, k)

    U = prob.control_set
    if U.kind == "finite":
        pts = U.points  # lexicographically sorted at construction
        if pts.shape[0] == 1:  # nothing to choose from: H0 is the one H_cv
            vals = _h_cv(prob, t, xs, ps, np.broadcast_to(pts[0], (P, k)))
            return vals, np.repeat(pts, P, axis=0)
        all_vals = np.empty((pts.shape[0], P))
        for j, zj in enumerate(pts):
            zb = np.broadcast_to(zj, (P, k))
            all_vals[j] = _h_cv(prob, t, xs, ps, zb)
        vmin = all_vals.min(axis=0)
        tol = 1e-12 * (1.0 + np.abs(vmin))
        first = np.argmax(all_vals <= vmin + tol, axis=0)  # first lexicographic tie
        return vmin, pts[first]

    return _scan_box(prob, t, xs, ps)


def _h_or_inf(prob: ControlProblem, t: float, xs: np.ndarray, ps: np.ndarray, zs: np.ndarray):
    """:func:`_h_cv` with +inf at the rows whose coefficients fail (overflow far out).

    One call: a failing coefficient's :class:`CoefficientError` carries its
    output, which is read but never written into (it may be an argument).
    """
    try:
        f1, bad = prob.f1(t, xs, zs), False
    except CoefficientError as exc:
        f1, bad = exc.values, ~np.isfinite(exc.values).all(axis=1)
    try:
        ell = prob.cost_rate(t, xs, zs)
    except CoefficientError as exc:
        bad = bad | ~np.isfinite(exc.values)
        ell = np.where(bad, 0.0, exc.values)  # so that no inf - inf warns below
    h = np.einsum("pn,pn->p", f1, ps) + ell
    return h if bad is False else np.where(bad, math.inf, h)


def _scan_box(prob: ControlProblem, t: float, xs: np.ndarray, ps: np.ndarray):
    """Coarse grid + K-point section refinement over a (possibly unbounded) box.

    All rows step in lockstep: each step makes one H_cv call covering every
    row still active, and each row follows exactly the arithmetic of a scan
    run on that row alone.
    """
    U = prob.control_set
    P, k, res = xs.shape[0], U.dimension, _SCAN_POINTS
    if P == 0:
        return np.empty(0), np.empty((0, k))
    lo, hi = np.empty((P, k)), np.empty((P, k))
    lo[:], hi[:] = U.lower, U.upper
    base = np.where(np.isfinite(U.lower), U.lower, np.where(np.isfinite(U.upper), U.upper, 0.0))
    for j in range(k):
        for bound, direction in ((hi, +1.0), (lo, -1.0)):
            if not np.isfinite(bound[0, j]):
                bound[:, j] = _bracket(prob, t, xs, ps, base, j, direction)

    # Row i's grid is the lexicographic (meshgrid "ij") product of its axes.
    m = res ** k
    idx = np.indices((res,) * k).reshape(k, m)
    grid = np.stack([np.linspace(lo[:, j], hi[:, j], res, axis=1)[:, idx[j]] for j in range(k)], axis=-1)
    xg, pg = xs.repeat(m, axis=0), ps.repeat(m, axis=0)
    vals = _h_or_inf(prob, t, xg, pg, grid.reshape(P * m, k)).reshape(P, m)
    dead = ~np.isfinite(vals).any(axis=1)
    if dead.any():  # a row whose every grid point failed has no minimum: raise its error
        rep = np.repeat(dead, m)
        _h_cv(prob, t, xg[rep], pg[rep], grid[dead].reshape(-1, k))
    vmin = np.fmin.reduce(vals, axis=1, keepdims=True)  # np.nanmin without its Python wrapper
    best = np.argmax(vals <= vmin + 1e-12 * (1.0 + np.abs(vmin)), axis=1)  # first in grid order
    z = grid[np.arange(P), best]
    h = vals[np.arange(P), best]
    cell = (hi - lo) / (res - 1)

    # Coordinate-wise section search around the best cell.  One pass settles
    # a single axis, so a one-axis scan ends there.  With several, a row goes
    # on to another round only while its last one both moved a coordinate by
    # more than the control step and lowered H_cv by more than roundoff; an
    # axis's next bracket shrinks by 4 but stays twice as wide as its last
    # move, so a coupled valley is followed, not cut off.
    rows = np.arange(P)
    for _ in range(_MAX_ROUNDS):
        before, step = h[rows], np.empty((rows.size, k))
        for j in range(k):
            zr = z[rows]
            a = np.maximum(lo[rows, j], zr[:, j] - cell[rows, j])
            b = np.minimum(hi[rows, j], zr[:, j] + cell[rows, j])
            zj, h[rows] = _section(prob, t, xs[rows], ps[rows], zr, j, a, b)
            step[:, j] = np.abs(zj - zr[:, j])
            z[rows, j] = zj
        if k == 1:
            return h, z
        cell[rows] = np.maximum(np.maximum(cell[rows] / 4.0, 2.0 * step), _CONTROL_STEP)
        after = h[rows]
        descent = before - after > _ROUND_GAIN * (1.0 + np.abs(after))
        rows = rows[(step.max(axis=1) > _CONTROL_STEP) & descent]
        if rows.size == 0:
            return h, z
    # The values stand as they are, but may be far from the minimum.
    log.warning(
        "box scan at t=%s: %d of %d rows were still descending after %d "
        "rounds of coordinate descent (strongly coupled controls); their "
        "H0 and argmin may be inaccurate", t, rows.size, P, _MAX_ROUNDS)
    return h, z


def _bracket(prob: ControlProblem, t: float, xs: np.ndarray, ps: np.ndarray,
             base: np.ndarray, axis: int, direction: float) -> np.ndarray:
    """Geometric doubling along one unbounded axis until H_cv turns upward.

    Returns the (P,) stops.  The sequence of ``base`` and its doublings is
    shared by all rows; each row stops at its own _UPTURN_RUN-th consecutive
    non-decrease, read value by value as one doubling per call would.  A call
    probes up to _BRACKET_BLOCK doublings while it stays within _CALL_POINTS
    points (a large batch probes one); a probe whose coefficients fail reads
    +inf.  The rise test and the upturn runs of a whole block are decided at
    once, and the rows that stopped leave once per block.  Raises, naming
    the first row that never turns, after _MAX_DOUBLINGS (H0 = -inf there:
    the Hamiltonian is not finite), and says so when that row's probes only
    overflowed, which may also mean a doubling stepped past a finite minimum.
    """
    start, rows, stops = base[axis], np.arange(xs.shape[0]), np.empty(xs.shape[0])
    xr, pr, run, prev, first = xs, ps, np.zeros(rows.size, dtype=int), None, 0
    while first < _DOUBLINGS.size:
        size = min(_BRACKET_BLOCK + (prev is None), max(1, _CALL_POINTS // rows.size))
        block = start + direction * _DOUBLINGS[first:first + size]
        first += block.size
        z = base[None].repeat(block.size * rows.size, axis=0)
        z[:, axis] = block.repeat(rows.size)
        cur = _h_or_inf(prob, t, xr[None].repeat(block.size, axis=0).reshape(-1, xr.shape[1]),
                        pr[None].repeat(block.size, axis=0).reshape(-1, pr.shape[1]),
                        z).reshape(block.size, -1)
        if prev is None:  # H_cv at the start only anchors the first comparison
            prev, cur, block = cur[0], cur[1:], block[1:]
        before = np.concatenate((prev[None], cur[:-1]))
        # Non-decrease counts toward the upturn: a flat H_cv (no control
        # dependence along this axis) attains its infimum anywhere, so any
        # finite bracket is valid; only a strict decrease resets the run.
        # Overflow far out (+inf, also after +inf) extends a run that began
        # with a finite non-decrease, but cannot start one: +inf also stands
        # for an evaluation that broke down (0·inf), which is no upturn.
        with np.errstate(invalid="ignore"):  # inf - inf after an overflow
            rise = np.isfinite(cur) & (cur >= before - 1e-14 * (1.0 + np.abs(before)))
        # The run at every probe of the block at once: a run is on from a rise
        # through the overflows after it (``run`` > 0 carries one in), and
        # counts the probes since it was last off.
        probe = np.arange(block.size)[:, None]
        on = (np.maximum.accumulate(np.where(rise, probe, np.where(run > 0, -1, -2)), axis=0)
              > np.maximum.accumulate(np.where(rise | (cur == math.inf), -2, probe), axis=0))
        runs = probe - np.maximum.accumulate(np.where(on, -1 - run, probe), axis=0)
        hit = runs >= _UPTURN_RUN
        if block.size:  # a first block of the start alone compares nothing
            prev, run = cur[-1], runs[-1]
        done = hit.any(axis=0)
        if done.any():  # a row stops at its first upturn of the block
            stops[rows[done]] = block[hit[:, done].argmax(axis=0)]
            keep = ~done
            rows, xr, pr, run, prev = rows[keep], xr[keep], pr[keep], run[keep], prev[keep]
            if rows.size == 0:
                return stops
    i, where = rows[0], (f"along the unbounded control axis {axis} ({_MAX_DOUBLINGS} "
                         f"doublings from {start}, direction {direction:+.0f})")
    if prev[0] == math.inf:  # +inf cannot be told from a breakdown (0·inf), so still raise
        raise ValueError(
            f"cannot bracket H0 at t={t}, x={xs[i]}, p={ps[i]}: the probes {where} "
            f"overflowed before any finite increase, so either the Hamiltonian is not "
            f"finite there or a doubling stepped past its minimum into overflow")
    raise ValueError(f"Hamiltonian is not finite at t={t}, x={xs[i]}, p={ps[i]}: "
                     f"H_cv never turned upward {where}")


def _section(prob: ControlProblem, t: float, xs: np.ndarray, ps: np.ndarray, z: np.ndarray,
             axis: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K-point section search along ``axis`` of every row, to absolute width _CONTROL_STEP.

    Returns the (P,) minimizing coordinates and the H_cv values there.  Row
    i searches [a[i], b[i]] with its other coordinates fixed at z[i].  A pass
    evaluates _SECTION_POINTS evenly spaced interior points of each live
    row's bracket in one H_cv call and keeps the two cells around the first
    minimizing point, until the bracket is narrow enough or stops shrinking
    (where the spacing of floats near z exceeds the control step).  The
    original endpoints compete with the final midpoint, so a minimum attained
    exactly on the boundary (an active box constraint) is returned exactly
    rather than displaced by half the final bracket width.
    """
    def fn(xr, pr, zr, v):  # H_cv at the (R, m) coordinates v of R rows repeated m times
        if zr is None:  # one control axis: v is the whole control
            zr = v.reshape(-1, 1)
        else:
            zr[:, axis] = v.ravel()
        return _h_cv(prob, t, xr, pr, zr).reshape(v.shape)

    a0, b0, a, b = a, b, a.copy(), b.copy()
    frac = np.arange(_SECTION_POINTS + 2) / (_SECTION_POINTS + 1)  # the ends and the K points
    inner, left, right = frac[1:-1], frac[:-2], frac[2:]
    # The loop works on the live rows only, repeated once per point and
    # compacted whenever one finishes; a row's final bracket is written back
    # to a, b as it leaves.
    rows = np.flatnonzero(b - a > _CONTROL_STEP)
    lo = a[rows]
    width = b[rows] - lo
    one_axis = z.shape[1] == 1
    xr, pr = xs[rows].repeat(_SECTION_POINTS, axis=0), ps[rows].repeat(_SECTION_POINTS, axis=0)
    zr = None if one_axis else z[rows].repeat(_SECTION_POINTS, axis=0)
    while rows.size:
        best = fn(xr, pr, zr, lo[:, None] + width[:, None] * inner).argmin(axis=1)
        lo, hi = lo + width * left[best], lo + width * right[best]  # the minimum's neighbours
        w = hi - lo
        keep = (w > _CONTROL_STEP) & (w < width)  # far out, ulp(z) > step stalls the bracket
        width = w
        if not keep.all():
            a[rows], b[rows] = lo, hi
            rows, lo, width = rows[keep], lo[keep], width[keep]
            live = keep.repeat(_SECTION_POINTS)
            xr, pr, zr = xr[live], pr[live], None if one_axis else zr[live]
    candidates = np.empty((a.size, 3))
    candidates[:, 0], candidates[:, 1], candidates[:, 2] = 0.5 * (a + b), a0, b0
    values = fn(xs.repeat(3, axis=0), ps.repeat(3, axis=0), None if one_axis else z.repeat(3, axis=0),
                candidates)
    pick = np.arange(a.size), values.argmin(axis=1)
    return candidates[pick], values[pick]


def _gap_resolution(h0):
    """The roundoff resolution (|H0| + 1)·1e-9 below which a gap is zero."""
    tol = np.abs(h0)
    tol += 1.0
    tol *= 1e-9
    return tol


def _clamped_gap(raw: np.ndarray, h0: np.ndarray) -> np.ndarray:
    """Clamp raw gaps at or below :func:`_gap_resolution` to exact 0."""
    return np.where(raw > _gap_resolution(h0), raw, 0.0)


def _describe_set(U) -> str:
    if U.kind == "box":
        return f"box[{U.lower}, {U.upper}]"
    return f"finite set of {U.points.shape[0]} points"
