"""Finite-difference solvers for 1-d semilinear HJB equations.

The canonical (minimize) terminal-value problem is

    dv/dt + (1/2) sigma^2(t,x) v_xx + F0(t,x) v_x + H0(t, x, v_x) = 0,
    v(T, .) = phi,

marched backward with an IMEX step: the linear part is implicit with
first-order upwinding of the F0 v_x term by sign(F0) (the resulting
tridiagonal matrix is an M-matrix, hence the scheme is monotone), while the
Hamiltonian source H0 is evaluated explicitly at the previous time level from
central-difference gradients.  Exit problems solve the same equation on the
domain with Dirichlet lateral data psi.

Maximization problems are solved in canonical form and flipped back, so the
returned field carries values/gradients in the problem's declared sense.

The discrete HJB residual R of a level uses the values of that level and of
its two neighbours in time; a :class:`ResidualReport` keeps its per-column
sup of |R| over the levels.  The march forms R of level k+1 once it has
solved level k, from rows it already holds; ``residual`` computes R of any
field row by row with the same row function and report.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import glob
import logging
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError  # the class scipy.linalg raises too

from ._util import as_size, probe_batch
from .hamiltonian import _minimize_batch
from .problem import ControlProblem, FiniteHorizon, canonicalize

__all__ = [
    "Grid1D",
    "SpaceTimeField",
    "ResidualReport",
    "ApproximationLadder",
    "GradientDiagnostics",
    "solve_parabolic",
    "solve_exit",
    "refine_ladder",
    "residual",
    "gradient_diagnostics",
    "field_from_callable",
]

log = logging.getLogger(__name__)

_SMOOTH_FLOOR = 1e-12  # relative |v_xx| below which a second difference counts as zero
_EXCLUSION_RADIUS = 3  # grid cells around a kink left out of a residual sup by default

_LADDER_NOTE = (
    "Ladder distances measure refinement self-consistency (a surrogate for "
    "approximation-by-smoothing arguments), not a proof of convergence to the "
    "true value function."
)


@dataclass(frozen=True)
class Grid1D:
    """Uniform space-time grid: nx nodes on [x_min, x_max], nt steps on [t0, t_final]."""

    x_min: float
    x_max: float
    nx: int
    nt: int
    t_final: float | None = None
    t0: float = 0.0

    def __post_init__(self):
        if not (self.x_min < self.x_max):
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        for name in ("nx", "nt"):
            object.__setattr__(self, name, as_size(getattr(self, name), name))
        if self.nx < 3:
            raise ValueError("nx must be at least 3")
        if self.nt < 1:
            raise ValueError("nt must be at least 1")
        if self.t_final is not None and not (self.t_final > self.t0):
            raise ValueError(f"need t_final > t0, got [{self.t0}, {self.t_final}]")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dt(self) -> float:
        if self.t_final is None:
            raise ValueError("grid has no time interval yet")
        return (self.t_final - self.t0) / self.nt

    # Field probes look the coordinates up at every Monte Carlo step, so they
    # are built once per grid and shared read-only.
    @functools.cached_property
    def xs(self) -> np.ndarray:
        xs = np.linspace(self.x_min, self.x_max, self.nx)
        xs.flags.writeable = False
        return xs

    @functools.cached_property
    def ts(self) -> np.ndarray:
        ts = self.t0 + self.dt * np.arange(self.nt + 1)
        ts.flags.writeable = False
        return ts

    @property
    def stability_ratio(self) -> float:
        return self.dt / self.dx**2

    def refined(self, factor: int = 2) -> "Grid1D":
        """Halve dx and dt (factor 2): nodes (nx-1)*factor+1, steps nt*factor."""
        return dataclasses.replace(self, nx=(self.nx - 1) * factor + 1, nt=self.nt * factor)


@dataclass(frozen=True)
class SpaceTimeField:
    """Values and spatial gradient of v on a Grid1D: a candidate (see
    :mod:`hjbverify.verify`) probed at (P, 1) batches of states.

    ``provenance`` is one of "solved", "closed_form", "loaded".  Probing
    between nodes uses linear interpolation in x and the value at the nearest
    time level from the *left* (piecewise-constant in t), matching the
    convention of the verification estimators.  The arrays of a field
    returned by ``solve_parabolic``/``solve_exit`` are read-only.
    """

    grid: Grid1D
    values: np.ndarray     # (nt+1, nx)
    gradient: np.ndarray   # (nt+1, nx)
    provenance: str

    def __post_init__(self):
        expected = (self.grid.nt + 1, self.grid.nx)
        if self.values.shape != expected or self.gradient.shape != expected:
            raise ValueError(f"field arrays must have shape {expected}")
        if self.provenance not in ("solved", "closed_form", "loaded"):
            raise ValueError(f"unknown provenance {self.provenance!r}")

    def _time_index(self, t: float) -> int:
        i = int(np.searchsorted(self.grid.ts, t + 1e-12, side="right")) - 1
        return min(max(i, 0), self.grid.nt)

    def value_at(self, t: float, x) -> np.ndarray:
        return self._interp(self.values, t, x)

    def gradient_at(self, t: float, x) -> np.ndarray:
        return self._interp(self.gradient, t, x)[:, None]

    def _interp(self, table: np.ndarray, t: float, x) -> np.ndarray:
        return np.interp(probe_batch(x, 1)[:, 0], self.grid.xs, table[self._time_index(t)])

    def to_csv(self, path: str) -> None:
        """Write rows ``t,x,v,dvdx`` (time-major) with exact float round-trip."""
        ts, xs = self.grid.ts, self.grid.xs
        with open(path, "w", newline="") as fh:
            fh.write("t,x,v,dvdx\n")
            for i in range(self.grid.nt + 1):
                for j in range(self.grid.nx):
                    fh.write(f"{float(ts[i])!r},{float(xs[j])!r},"
                             f"{float(self.values[i, j])!r},{float(self.gradient[i, j])!r}\n")

    @classmethod
    def from_csv(cls, path: str, provenance: str = "loaded") -> "SpaceTimeField":
        data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float)
        if data.ndim == 1:
            data = data.reshape(1, -1)
        if data.shape[1] != 4:
            raise ValueError("field CSV must have columns t,x,v,dvdx")
        t_col, x_col = data[:, 0], data[:, 1]
        nx = int(np.argmax(t_col > t_col[0])) or data.shape[0]
        if data.shape[0] % nx:
            raise ValueError("field CSV rows do not tile a rectangular grid")
        n_levels = data.shape[0] // nx
        xs = x_col[:nx]
        ts = t_col[::nx]
        grid = Grid1D(x_min=float(xs[0]), x_max=float(xs[-1]), nx=nx,
                      nt=n_levels - 1, t_final=float(ts[-1]), t0=float(ts[0]))
        if not (np.allclose(np.tile(xs, n_levels), x_col) and np.allclose(np.repeat(ts, nx), t_col)):
            raise ValueError("field CSV rows are not in time-major grid order")
        return cls(grid=grid, values=data[:, 2].reshape(n_levels, nx),
                   gradient=data[:, 3].reshape(n_levels, nx), provenance=provenance)


@dataclass(frozen=True)
class ResidualReport:
    """The discrete HJB residual R of a field, reduced over its time levels.

    ``column_sup`` holds, for every x-column, the sup of |R| over all levels
    (NaN only where every level's R is NaN); it is read-only and not masked,
    so it serves any exclusion radius.  ``sup_interior_residual`` is its sup
    over the kept columns (NaN when none is kept); ``excluded_nodes`` lists
    the others: both x-boundaries and each kink's neighborhood.
    """

    sup_interior_residual: float
    column_sup: np.ndarray         # (nx,)
    excluded_nodes: tuple[int, ...]


@dataclass(frozen=True)
class ApproximationLadder:
    """Successively refined solves with distances on the coarsest node set.

    Passes iff the value distances decrease strictly level-over-level and the
    final ratio is at most 0.75.  The ladder is evidence of refinement
    self-consistency only; see ``note``.
    """

    grids: tuple[Grid1D, ...]
    fields: tuple[SpaceTimeField, ...]
    v_distances: tuple[float, ...]
    gradient_distances: tuple[float, ...]
    passed: bool
    note: str = _LADDER_NOTE


@dataclass(frozen=True)
class GradientDiagnostics:
    """Weighted-gradient seminorm sample and kink blow-up exponents.

    ``weighted_gradient_sup`` samples sup (T-t)^{1/2} |v_x(t,x)| over the
    probes; ``blowup_exponents`` maps each kink to the log-log slope of
    |v_xx| against distance (None when the kink is outside the probed range);
    a slope of eta-1 < 0 quantifies the failure of C^2 regularity.
    """

    weighted_gradient_sup: float
    blowup_exponents: dict


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def solve_parabolic(
    problem: ControlProblem,
    grid: Grid1D,
    boundary=None,
) -> SpaceTimeField:
    """Backward IMEX solve of the HJB terminal-value problem on ``grid``.

    ``boundary`` is None for linear-extrapolation edges (second difference
    zero; needs nx >= 4), or Dirichlet data: a callable (t, x) -> value or an
    object with ``value_at`` (values in the problem's declared sense).
    """
    return _march(problem, grid, _parabolic_edges(problem, grid, boundary))[0]


def solve_exit(problem: ControlProblem, grid: Grid1D) -> SpaceTimeField:
    """Solve the exit-problem HJB on O with Dirichlet lateral data psi.

    The grid must cover exactly the closure of the domain; psi/phi
    compatibility at the parabolic corners was validated when the problem was
    constructed.
    """
    return _march(problem, grid, _exit_edges(problem, grid))[0]


def _solve(problem: ControlProblem, grid: Grid1D,
           boundary=None) -> tuple[SpaceTimeField, ResidualReport]:
    """``solve_exit`` for a problem with a domain (``boundary`` unused), else
    ``solve_parabolic``; with ``residual(field, problem)``'s report, from the
    march's column sup and level 0, the one row it leaves out."""
    edges = (_exit_edges(problem, grid) if problem.domain is not None
             else _parabolic_edges(problem, grid, boundary))
    field, column_sup = _march(problem, grid, edges)
    row = _field_row(canonicalize(problem), field, 0, problem.sense == "maximize")
    np.fmax(column_sup, np.abs(row), out=column_sup)
    return field, _report(column_sup, field.grid, problem, _EXCLUSION_RADIUS)


def _parabolic_edges(problem: ControlProblem, grid: Grid1D, boundary):
    _terminal_time(problem, "solve_parabolic")
    if problem.domain is not None:
        raise ValueError("solve_parabolic takes no problem with a domain; use solve_exit")
    if problem.dimension != 1:
        raise ValueError("the PDE solver is 1-d")
    if boundary is None and grid.nx < 4:
        raise ValueError(f"extrapolation edges need nx >= 4 (two interior nodes), got nx = {grid.nx}")
    return _dirichlet_fn(boundary, grid)


def _exit_edges(problem: ControlProblem, grid: Grid1D):
    if problem.domain is None:
        raise ValueError("solve_exit requires a problem with a domain")
    if problem.dimension != 1:
        raise ValueError("the PDE solver is 1-d")
    a, b = float(problem.domain.lower[0]), float(problem.domain.upper[0])
    scale = max(abs(a), abs(b), 1.0)
    if abs(grid.x_min - a) > 1e-9 * scale or abs(grid.x_max - b) > 1e-9 * scale:
        raise ValueError(
            f"grid [{grid.x_min}, {grid.x_max}] must coincide with the domain [{a}, {b}]"
        )
    ends = grid.xs[[0, -1]].reshape(2, 1)
    return lambda t: tuple(float(v) for v in problem.boundary(t, ends))


def _dirichlet_fn(boundary, grid: Grid1D) -> Callable[[float], tuple[float, float]] | None:
    """Edge data t -> (v(t, x_min), v(t, x_max)); None for extrapolation edges."""
    if boundary is None:
        return None
    if hasattr(boundary, "value_at"):
        ends = grid.xs[[0, -1]].reshape(2, 1)
        return lambda t: tuple(float(v) for v in boundary.value_at(t, ends))
    if not callable(boundary):
        raise TypeError("boundary must be None, a callable, or provide value_at")
    a, b = float(grid.xs[0]), float(grid.xs[-1])
    return lambda t: (float(boundary(t, a)), float(boundary(t, b)))


def _march(problem: ControlProblem, grid: Grid1D,
           dirichlet) -> tuple[SpaceTimeField, np.ndarray]:
    """The solved field and, per x-column, the sup of |R| over levels 1..nt
    (NaN where every level's R is NaN); :func:`_solve` adds level 0."""
    prob = canonicalize(problem)
    flip = -1.0 if problem.sense == "maximize" else 1.0
    T = prob.horizon.terminal_time
    if grid.t_final is None:
        grid = dataclasses.replace(grid, t_final=T)
    _require_end(grid, T)

    xcol = grid.xs.reshape(-1, 1)
    nx, nt = grid.nx, grid.nt
    dx, dt = grid.dx, grid.dt
    ts = grid.ts

    # The two tables a solve holds; every other array is one row long.
    v = np.empty((nt + 1, nx))
    v[nt] = prob.terminal(xcol)  # canonical terminal data; flipped back at the end
    gradient = np.empty((nt + 1, nx))
    col_sup = np.full(nx, np.nan)
    # sigma^2 and F0 at the level above the one being solved, for its R row.
    sigma2_prev, f0_prev = _coefficients(prob, float(ts[nt]), xcol)

    for i in range(nt - 1, -1, -1):
        t_impl = float(ts[i])
        t_prev = float(ts[i + 1])

        grad_prev = _central_gradient(v[i + 1], dx, out=gradient[i + 1])
        h0, _ = _minimize_batch(prob, t_prev, xcol, grad_prev.reshape(-1, 1))
        rhs = v[i + 1] + dt * h0

        sigma2, f0 = _coefficients(prob, t_impl, xcol)
        adiff = 0.5 * sigma2 / dx**2
        fp = np.maximum(f0, 0.0) / dx
        fm = np.minimum(f0, 0.0) / dx
        m_low = -dt * (adiff - fm)
        m_diag = 1.0 - dt * (-2.0 * adiff - fp + fm)
        m_up = -dt * (adiff + fp)

        # Interior unknowns j = 1..nx-2; edges are folded in below.  The
        # slices are views of this level's temporaries, solved in place.
        low = m_low[1:-1]
        diag = m_diag[1:-1]
        up = m_up[1:-1]
        r = rhs[1:-1]
        if dirichlet is not None:
            ga, gb = dirichlet(t_impl)
            ga, gb = flip * ga, flip * gb
            r[0] -= low[0] * ga
            r[-1] -= up[-1] * gb
        else:
            # v_0 = 2 v_1 - v_2 and symmetrically on the right (zero second
            # difference), eliminated to keep the system tridiagonal.
            diag[0] += 2.0 * low[0]
            up[0] -= low[0]
            diag[-1] += 2.0 * up[-1]
            low[-1] -= up[-1]

        interior = _solve_tridiagonal(low[1:], diag, up[:-1], r)

        v[i, 1:-1] = interior
        if dirichlet is not None:
            v[i, 0] = ga
            v[i, -1] = gb
        else:
            v[i, 0] = 2.0 * interior[0] - interior[1]
            v[i, -1] = 2.0 * interior[-1] - interior[-2]

        if not np.isfinite(v[i]).all():
            raise RuntimeError(
                f"HJB march produced non-finite values at t={t_impl:g} "
                f"(stability ratio dt/dx^2 = {grid.stability_ratio:.3g})"
            )

        # Level i+1 now has both time neighbours: its R row, as ``residual``
        # forms it.
        row = _residual_row(v.__getitem__, i + 1, grid, grad_prev, sigma2_prev, f0_prev, h0)
        np.fmax(col_sup, np.abs(row), out=col_sup)
        sigma2_prev, f0_prev = sigma2, f0

    # The rows written above are the canonical gradient: the declared one of a
    # minimize problem.  A maximize problem's is taken from the flipped values,
    # whose differences carry their own signed zeros.
    if flip < 0:
        np.negative(v, out=v)
        for i in range(nt + 1):
            _central_gradient(v[i], dx, out=gradient[i])
    else:
        _central_gradient(v[0], dx, out=gradient[0])
    # Read-only, so that the column sup returned with them cannot go stale.
    v.flags.writeable = gradient.flags.writeable = False
    return SpaceTimeField(grid=grid, values=v, gradient=gradient, provenance="solved"), col_sup


def _coefficients(prob: ControlProblem, t: float, xcol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma^2 = |B|^2 and F0 of a 1-d problem at the nodes ``xcol``, (nx,) each."""
    diff = prob.diff(t, xcol)
    return np.einsum("pnm,pnm->p", diff, diff), prob.f0(t, xcol)[:, 0]


def _terminal_time(problem: ControlProblem, caller: str) -> float:
    if not isinstance(problem.horizon, FiniteHorizon):
        raise ValueError(f"{caller} requires a finite-horizon problem")
    return problem.horizon.terminal_time


def _require_end(grid: Grid1D, T: float) -> None:
    if abs(grid.t_final - T) > 1e-12 * (1.0 + abs(T)):
        raise ValueError(f"grid must end at the problem horizon T={T}, got {grid.t_final}")


def _solve_tridiagonal(low: np.ndarray, diag: np.ndarray, up: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system (sub-, main and super-diagonal), overwriting
    the arguments.

    Calls LAPACK ``dgtsv`` as ``scipy.linalg.solve_banded((1, 1), ...)`` does,
    with the same bits but without its copies: the ``dgtsv`` that NumPy's wheel
    bundles (:func:`_numpy_dgtsv`), so a solve loads no SciPy, or else
    ``scipy.linalg.lapack.dgtsv``, imported by the first call.  The arrays must
    be writeable C-contiguous float64 with ``low.size == up.size ==
    diag.size - 1 == rhs.size - 1``, or ValueError is raised before LAPACK
    sees a pointer; a singular system raises LinAlgError.
    """
    for a in (low, diag, up, rhs):
        if a.dtype != np.float64 or not a.flags.carray:
            raise ValueError(f"the tridiagonal solve needs writeable C-contiguous float64 "
                             f"arrays, got {a.dtype} (C-contiguous {a.flags.c_contiguous}, "
                             f"writeable {a.flags.writeable}, aligned {a.flags.aligned})")
    if not low.size == up.size == diag.size - 1 == rhs.size - 1:
        raise ValueError(f"tridiagonal sizes do not match: low {low.size}, diag {diag.size}, "
                         f"up {up.size}, rhs {rhs.size}")
    if diag.size == 1:
        return rhs / diag  # dgtsv rejects the empty off-diagonals; SciPy divides too
    dgtsv = _numpy_dgtsv()
    if dgtsv is not None:
        x, info = rhs, dgtsv(low, diag, up, rhs)
    else:
        from scipy.linalg.lapack import dgtsv  # deferred: a run with no PDE never loads it
        x, info = dgtsv(low, diag, up, rhs, 1, 1, 1, 1)[3:]
    if info < 0:
        raise ValueError(f"dgtsv rejected argument {-info}")
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


@functools.cache
def _numpy_dgtsv() -> Callable | None:
    """``dgtsv(low, diag, up, rhs) -> info`` from the ``libscipy_openblas64_``
    that NumPy's Linux wheels ship in ``numpy.libs`` and have already mapped,
    or None where it or its symbol is absent (NumPy from conda, a distro or
    Accelerate).  The library is ILP64: every LAPACK integer is an int64.  N
    and INFO are made per call, as ctypes releases the GIL during the call.
    The caller checks dtypes, contiguity and sizes.
    """
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")))
    if not paths:
        return None
    try:
        fn = ctypes.CDLL(paths[0]).scipy_dgtsv_64_
    except (OSError, AttributeError):  # unloadable, or built without the symbol
        return None
    i64, f64 = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    fn.argtypes = [i64, i64, f64, f64, f64, f64, i64, i64]  # N, NRHS, DL, D, DU, B, LDB, INFO
    fn.restype = None
    nrhs = ctypes.c_int64(1)
    buf = ctypes.c_double.from_buffer  # the array's data pointer, holding the array

    def dgtsv(low, diag, up, rhs) -> int:
        n, info = ctypes.c_int64(diag.size), ctypes.c_int64()
        fn(n, nrhs, buf(low), buf(diag), buf(up), buf(rhs), n, info)
        return info.value

    return dgtsv


def _central_gradient(row: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """``np.gradient(row, dx)`` of a 1-d row, written into ``out`` if given: the
    same formulas, hence the same bits, without its per-call overhead."""
    out = np.empty_like(row) if out is None else out
    out[1:-1] = (row[2:] - row[:-2]) / (2.0 * dx)
    out[0] = (row[1] - row[0]) / dx
    out[-1] = (row[-1] - row[-2]) / dx
    return out


def field_from_callable(
    value_fn: Callable,
    grid: Grid1D,
    gradient_fn: Callable | None = None,
    provenance: str = "closed_form",
) -> SpaceTimeField:
    """Sample a closed-form value function onto a grid as a SpaceTimeField."""
    if grid.t_final is None:
        raise ValueError("grid needs t_final to sample a field")
    xs, ts = grid.xs, grid.ts
    values = np.stack([np.asarray(value_fn(float(t), xs), dtype=float) for t in ts])
    if gradient_fn is not None:
        gradient = np.stack([np.asarray(gradient_fn(float(t), xs), dtype=float) for t in ts])
    else:
        gradient = np.gradient(values, grid.dx, axis=1)
    return SpaceTimeField(grid=grid, values=values, gradient=gradient, provenance=provenance)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def residual(
    field: SpaceTimeField,
    problem: ControlProblem,
    exclusion_radius: int = _EXCLUSION_RADIUS,
) -> ResidualReport:
    """Discrete HJB residual of ``field`` (central differences, one-sided in
    time at the ends), excluding x-boundary columns and nodes within
    ``exclusion_radius`` grid cells of a registered kink from the sup.

    Every level is computed from the field's values alone: central
    gradients, sigma^2 and F0 at the nodes, and H0 minimized at each level.
    The problem must have a finite horizon, whose T the field's grid ends
    at.  The field is read a row at a time and each row is folded into the
    report's column sup, so this builds no (nt+1)×nx table.
    """
    if exclusion_radius < 0:
        raise ValueError(f"exclusion_radius must be non-negative, got {exclusion_radius}")
    _require_end(field.grid, _terminal_time(problem, "residual"))
    prob, maximize = canonicalize(problem), problem.sense == "maximize"
    column_sup = np.full(field.grid.nx, np.nan)
    for i in range(field.grid.nt + 1):
        np.fmax(column_sup, np.abs(_field_row(prob, field, i, maximize)), out=column_sup)
    return _report(column_sup, field.grid, problem, exclusion_radius)


def _report(column_sup: np.ndarray, grid: Grid1D, problem: ControlProblem,
            exclusion_radius: int) -> ResidualReport:
    """The report of ``column_sup``, which it holds read-only; both edges and
    the columns within ``exclusion_radius`` cells of a kink are excluded."""
    excluded = {0, grid.nx - 1}
    for kink in problem.kink_points:
        hits = np.where(np.abs(grid.xs - kink) <= exclusion_radius * grid.dx + 1e-12)[0]
        excluded.update(int(j) for j in hits)
    excluded = tuple(sorted(excluded))
    # fmax skips NaN as nanmax does, and a max is the same in any order.
    sup = np.fmax.reduce(np.delete(column_sup, excluded), initial=np.nan)
    column_sup.flags.writeable = False
    return ResidualReport(sup_interior_residual=float(sup), column_sup=column_sup,
                          excluded_nodes=excluded)


def _field_row(prob: ControlProblem, field: SpaceTimeField, i: int, maximize: bool) -> np.ndarray:
    """R at time level i of ``field`` for the canonical problem ``prob``, with
    the gradient, coefficients and H0 of that level computed here."""
    # Canonical values, negated as they are read for a maximize problem.
    level = (lambda j: -field.values[j]) if maximize else field.values.__getitem__
    grid = field.grid
    t = float(grid.ts[i])
    xcol = grid.xs.reshape(-1, 1)
    d1 = _central_gradient(level(i), grid.dx)
    sigma2, f0 = _coefficients(prob, t, xcol)
    h0, _ = _minimize_batch(prob, t, xcol, d1.reshape(-1, 1))
    return _residual_row(level, i, grid, d1, sigma2, f0, h0)


def _residual_row(level: Callable, i: int, grid: Grid1D, d1: np.ndarray,
                  sigma2: np.ndarray, f0: np.ndarray, h0: np.ndarray) -> np.ndarray:
    """R = v_t + sigma^2 v_xx / 2 + F0 v_x + H0 at time level i, given the
    level's gradient ``d1``, coefficients and H0; v_t and v_xx come from the
    canonical values ``level`` (a row per time index)."""
    # np.gradient(values, dt, axis=0) at one row: central inside, one-sided
    # at the ends.
    lo, hi = max(i - 1, 0), min(i + 1, grid.nt)
    dvdt = (level(hi) - level(lo)) / (2.0 * grid.dt if hi - lo == 2 else grid.dt)
    row = level(i)
    d2 = np.empty_like(row)
    d2[1:-1] = (row[2:] - 2.0 * row[1:-1] + row[:-2]) / grid.dx**2
    d2[0] = d2[1]
    d2[-1] = d2[-2]
    return dvdt + 0.5 * sigma2 * d2 + f0 * d1 + h0


def refine_ladder(
    problem: ControlProblem,
    base_grid: Grid1D,
    levels: int,
    boundary=None,
) -> ApproximationLadder:
    """Solve on ``levels`` grids (dx and dt halved each level) and compare
    consecutive fields on the coarsest node set (sup norms).

    ``boundary`` is the edge data of :func:`solve_parabolic`; exit problems
    take theirs from ``boundary_cost`` and reject it.
    """
    if levels < 3:
        raise ValueError("a meaningful ladder needs at least 3 levels")
    if problem.domain is not None and boundary is not None:
        raise ValueError("exit problems take their edge data from boundary_cost; "
                         "refine_ladder got a boundary as well")
    grids = [base_grid]
    for _ in range(levels - 1):
        grids.append(grids[-1].refined())
    fields = [solve_exit(problem, g) if problem.domain is not None
              else solve_parabolic(problem, g, boundary) for g in grids]

    v_dist = []
    g_dist = []
    for lev in range(levels - 1):
        c0, c1 = 2**lev, 2 ** (lev + 1)
        # Coarsest-node views of both levels:
        a_vals = fields[lev].values[::c0, ::c0]
        b_vals = fields[lev + 1].values[::c1, ::c1]
        a_grad = fields[lev].gradient[::c0, ::c0]
        b_grad = fields[lev + 1].gradient[::c1, ::c1]
        v_dist.append(float(np.max(np.abs(a_vals - b_vals))))
        g_dist.append(float(np.max(np.abs(a_grad[:, 1:-1] - b_grad[:, 1:-1]))))

    decreasing = all(v_dist[i + 1] < v_dist[i] for i in range(len(v_dist) - 1))
    ratio_ok = v_dist[-1] <= 0.75 * v_dist[-2]
    passed = bool(decreasing and ratio_ok)
    log.info("refinement ladder: v-distances %s, passed=%s; %s",
             ["%.3e" % d for d in v_dist], passed, _LADDER_NOTE)
    return ApproximationLadder(
        grids=tuple(f.grid for f in fields),  # materialized (t_final resolved)
        fields=tuple(fields),
        v_distances=tuple(v_dist), gradient_distances=tuple(g_dist),
        passed=passed,
    )


def gradient_diagnostics(source, problem: ControlProblem, probe_points=None) -> GradientDiagnostics:
    """Sample the weighted gradient sup (T-t)^{1/2} |v_x| and measure the
    second-difference blow-up exponent near each registered kink.

    ``source`` is a candidate under the contract of :mod:`hjbverify.verify`:
    a SpaceTimeField or a :class:`~hjbverify.verify.ClosedFormValue`.  The
    sup is taken over 32 equally spaced times in [0, T) and ``probe_points``,
    a (P, 1) batch of states (default: the field's interior nodes; required
    for a closed form, whose ``grid`` is None).  The blow-up exponent for a
    kink x0 is the slope of log |v_xx(0, x0 + h)| against log h, over 25
    log-spaced h in [1e-3, 1e-1] for a closed form and over the grid nodes
    right of x0 for a field (None when x0 lies left of the grid or fewer than
    four nodes lie right of it); second differences below the smoothness
    floor are treated as zero and a fully floored profile reports exponent
    0.0 (no blow-up).
    """
    T = _terminal_time(problem, "gradient_diagnostics")
    field = source.grid is not None
    if probe_points is None:
        if not field:
            raise ValueError("probe_points are required for closed-form sources")
        probe_points = source.grid.xs[1:-1].reshape(-1, 1)

    wsup = 0.0
    for t in np.linspace(0.0, T, 33)[:-1]:
        g = source.gradient_at(float(t), probe_points)
        wsup = max(wsup, float(np.sqrt(max(T - t, 0.0)) * np.max(np.abs(g))))

    blowup = _field_blowup if field else _callable_blowup
    exponents = {kink: blowup(source, kink) for kink in problem.kink_points}
    return GradientDiagnostics(weighted_gradient_sup=wsup, blowup_exponents=exponents)


def _callable_blowup(source, kink: float):
    h = np.logspace(-3.0, -1.0, 25)
    x = kink + h
    delta = h / 8.0
    probes = np.concatenate([x + delta, x, x - delta])[:, None]
    vp, v0, vm = source.value_at(0.0, probes).reshape(3, -1)
    return _fit_blowup(h, (vp - 2.0 * v0 + vm) / delta**2)


def _field_blowup(field: SpaceTimeField, kink: float):
    grid = field.grid
    xs = grid.xs
    row = field.values[field._time_index(0.0)]
    d2 = (row[2:] - 2.0 * row[1:-1] + row[:-2]) / grid.dx**2
    h = xs[1:-1] - kink
    mask = h > 0.5 * grid.dx
    if kink < grid.x_min or np.count_nonzero(mask) < 4:  # the grid does not probe the kink
        return None
    return _fit_blowup(h[mask], d2[mask])


def _fit_blowup(h: np.ndarray, d2: np.ndarray):
    mag = np.abs(d2)
    keep = mag > _SMOOTH_FLOOR * (1.0 + mag.max(initial=0.0))
    if not np.any(keep):
        return 0.0
    if np.count_nonzero(keep) < 2:
        return None
    slope = np.polyfit(np.log(h[keep]), np.log(mag[keep]), 1)[0]
    return float(slope)
