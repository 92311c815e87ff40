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
"""

from __future__ import annotations

import dataclasses
import functools
import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

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
    """Values and spatial gradient of v on a Grid1D.

    ``provenance`` is one of "solved", "closed_form", "loaded".  Probing
    between nodes uses linear interpolation in x and the value at the nearest
    time level from the *left* (piecewise-constant in t), matching the
    convention of the verification estimators.
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

    def value_at(self, t: float, x) -> np.ndarray | float:
        return self._interp(self.values, t, x)

    def gradient_at(self, t: float, x) -> np.ndarray | float:
        return self._interp(self.gradient, t, x)

    def _interp(self, table: np.ndarray, t: float, x):
        xq = np.asarray(x, dtype=float)
        single = xq.ndim == 0
        cols = xq.reshape(-1) if xq.ndim <= 1 else xq[:, 0]
        row = table[self._time_index(t)]
        out = np.interp(cols, self.grid.xs, row)
        return float(out[0]) if single else out

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
    """Sup of the discrete HJB residual over non-excluded interior nodes.

    ``residual`` is NaN at excluded columns (x-boundaries and kink
    neighborhoods); ``excluded_nodes`` lists the excluded x-indices.
    """

    sup_interior_residual: float
    residual: np.ndarray           # (nt+1, nx)
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
    smooth_floor: float


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
    zero), or Dirichlet data: a callable (t, x) -> value or an object with
    ``value_at`` (values in the problem's declared sense).
    """
    if not isinstance(problem.horizon, FiniteHorizon):
        raise ValueError("solve_parabolic requires a finite-horizon problem")
    if problem.dimension != 1:
        raise ValueError("the PDE solver is 1-d")
    return _march(problem, grid, _dirichlet_fn(boundary))


def solve_exit(problem: ControlProblem, grid: Grid1D) -> SpaceTimeField:
    """Solve the exit-problem HJB on O with Dirichlet lateral data psi.

    The grid must cover exactly the closure of the domain; psi/phi
    compatibility at the parabolic corners was validated when the problem was
    constructed.
    """
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

    def psi(t: float, x: float) -> float:
        return float(problem.boundary(t, np.array([[x]]))[0])

    return _march(problem, grid, psi)


def _dirichlet_fn(boundary) -> Callable[[float, float], float] | None:
    if boundary is None:
        return None
    if hasattr(boundary, "value_at"):
        return lambda t, x: float(np.atleast_1d(boundary.value_at(t, np.array([x])))[0])
    if callable(boundary):
        return lambda t, x: float(boundary(t, x))
    raise TypeError("boundary must be None, a callable, or provide value_at")


def _march(problem: ControlProblem, grid: Grid1D, dirichlet) -> SpaceTimeField:
    prob = canonicalize(problem)
    flip = -1.0 if problem.sense == "maximize" else 1.0
    T = prob.horizon.terminal_time
    if grid.t_final is None:
        grid = dataclasses.replace(grid, t_final=T)
    elif abs(grid.t_final - T) > 1e-12 * (1.0 + abs(T)):
        raise ValueError(f"grid must end at the problem horizon T={T}, got {grid.t_final}")

    xs = grid.xs
    xcol = xs.reshape(-1, 1)
    nx, nt = grid.nx, grid.nt
    dx, dt = grid.dx, grid.dt
    ts = grid.ts

    v = np.empty((nt + 1, nx))
    v[nt] = prob.terminal(xcol)  # canonical terminal data; flipped back at the end

    for i in range(nt - 1, -1, -1):
        t_impl = float(ts[i])
        t_prev = float(ts[i + 1])

        grad_prev = _central_gradient(v[i + 1], dx)
        h0, _, _ = _minimize_batch(prob, t_prev, xcol, grad_prev.reshape(-1, 1))
        rhs = v[i + 1] + dt * h0

        diff = prob.diff(t_impl, xcol)
        sigma2 = np.einsum("pnm,pnm->p", diff, diff)
        f0 = prob.f0(t_impl, xcol)[:, 0]
        adiff = 0.5 * sigma2 / dx**2
        fp = np.maximum(f0, 0.0) / dx
        fm = np.minimum(f0, 0.0) / dx
        m_low = -dt * (adiff - fm)
        m_diag = 1.0 - dt * (-2.0 * adiff - fp + fm)
        m_up = -dt * (adiff + fp)

        # Interior unknowns j = 1..nx-2; edges are folded in below.
        low = m_low[1:-1].copy()
        diag = m_diag[1:-1].copy()
        up = m_up[1:-1].copy()
        r = rhs[1:-1].copy()
        if dirichlet is not None:
            ga = flip * dirichlet(t_impl, float(xs[0]))
            gb = flip * dirichlet(t_impl, float(xs[-1]))
            r[0] -= low[0] * ga
            r[-1] -= up[-1] * gb
        else:
            # v_0 = 2 v_1 - v_2 and symmetrically on the right (zero second
            # difference), eliminated to keep the system tridiagonal.
            diag[0] += 2.0 * low[0]
            up[0] -= low[0]
            diag[-1] += 2.0 * up[-1]
            low[-1] -= up[-1]

        ab = np.zeros((3, nx - 2))
        ab[0, 1:] = up[:-1]
        ab[1, :] = diag
        ab[2, :-1] = low[1:]
        interior = solve_banded((1, 1), ab, r)

        v[i, 1:-1] = interior
        if dirichlet is not None:
            v[i, 0] = ga
            v[i, -1] = gb
        else:
            v[i, 0] = 2.0 * interior[0] - interior[1]
            v[i, -1] = 2.0 * interior[-1] - interior[-2]

        if not np.all(np.isfinite(v[i])):
            raise RuntimeError(
                f"HJB march produced non-finite values at t={t_impl:g} "
                f"(stability ratio dt/dx^2 = {grid.stability_ratio:.3g})"
            )

    values = flip * v
    gradient = np.stack([_central_gradient(row, dx) for row in values])
    return SpaceTimeField(grid=grid, values=values, gradient=gradient, provenance="solved")


def _central_gradient(row: np.ndarray, dx: float) -> np.ndarray:
    return np.gradient(row, dx)


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
        gradient = np.stack([_central_gradient(row, grid.dx) for row in values])
    return SpaceTimeField(grid=grid, values=values, gradient=gradient, provenance=provenance)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def residual(
    field: SpaceTimeField,
    problem: ControlProblem,
    exclusion_radius: int = 3,
) -> ResidualReport:
    """Discrete HJB residual of ``field`` (central differences, one-sided in
    time at the ends), excluding x-boundary columns and nodes within
    ``exclusion_radius`` grid cells of a registered kink."""
    prob = canonicalize(problem)
    flip = -1.0 if problem.sense == "maximize" else 1.0
    grid = field.grid
    xs, ts = grid.xs, grid.ts
    dx, dt = grid.dx, grid.dt
    vals = flip * field.values
    nt, nx = grid.nt, grid.nx
    xcol = xs.reshape(-1, 1)

    dvdt = np.gradient(vals, dt, axis=0)   # central interior, one-sided ends
    res = np.full_like(vals, np.nan)
    excluded = {0, nx - 1}
    for kink in problem.kink_points:
        hits = np.where(np.abs(xs - kink) <= exclusion_radius * dx + 1e-12)[0]
        excluded.update(int(j) for j in hits)
    keep = np.array(sorted(set(range(1, nx - 1)) - excluded), dtype=int)

    for i in range(nt + 1):
        t = float(ts[i])
        row = vals[i]
        d1 = _central_gradient(row, dx)
        d2 = np.empty_like(row)
        d2[1:-1] = (row[2:] - 2.0 * row[1:-1] + row[:-2]) / dx**2
        d2[0] = d2[1]
        d2[-1] = d2[-2]
        diff = prob.diff(t, xcol)
        sigma2 = np.einsum("pnm,pnm->p", diff, diff)
        f0 = prob.f0(t, xcol)[:, 0]
        h0, _, _ = _minimize_batch(prob, t, xcol, d1.reshape(-1, 1))
        full = dvdt[i] + 0.5 * sigma2 * d2 + f0 * d1 + h0
        res[i, keep] = full[keep]

    sup = float(np.nanmax(np.abs(res[:, keep]))) if keep.size else float("nan")
    return ResidualReport(sup_interior_residual=sup, residual=res,
                          excluded_nodes=tuple(sorted(excluded)))


def refine_ladder(
    problem: ControlProblem,
    base_grid: Grid1D,
    levels: int,
    boundary=None,
) -> ApproximationLadder:
    """Solve on ``levels`` grids (dx and dt halved each level) and compare
    consecutive fields on the coarsest node set (sup norms)."""
    if levels < 3:
        raise ValueError("a meaningful ladder needs at least 3 levels")
    grids = [base_grid]
    for _ in range(levels - 1):
        grids.append(grids[-1].refined())
    solver = solve_exit if problem.domain is not None else solve_parabolic
    fields = []
    for g in grids:
        fields.append(solver(problem, g) if solver is solve_exit else solver(problem, g, boundary))

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


def gradient_diagnostics(
    source,
    problem: ControlProblem,
    probe_times=None,
    probe_points=None,
    kink_offsets=None,
    kink_time: float = 0.0,
) -> GradientDiagnostics:
    """Sample the weighted gradient sup (T-t)^{1/2} |v_x| and measure the
    second-difference blow-up exponent near each registered kink.

    ``source`` is a SpaceTimeField or any object with value_at/gradient_at
    (e.g. a closed-form solution bundle).  The blow-up exponent for a kink
    x0 is the slope of log |v_xx(kink_time, x0 + h)| against log h over
    ``kink_offsets`` (default: two decades, h in [1e-3, 1e-1]); second
    differences below the smoothness floor are treated as zero and a fully
    floored profile reports exponent 0.0 (no blow-up).
    """
    T = problem.horizon.terminal_time
    if probe_times is None:
        probe_times = np.linspace(0.0, T, 33)[:-1]
    if probe_points is None:
        if isinstance(source, SpaceTimeField):
            probe_points = source.grid.xs[1:-1]
        else:
            raise ValueError("probe_points are required for closed-form sources")
    probe_points = np.asarray(probe_points, dtype=float)

    wsup = 0.0
    for t in np.asarray(probe_times, dtype=float):
        g = np.asarray(source.gradient_at(float(t), probe_points), dtype=float)
        wsup = max(wsup, float(np.sqrt(max(T - t, 0.0)) * np.max(np.abs(g))))

    if kink_offsets is None:
        kink_offsets = np.logspace(-3.0, -1.0, 25)
    kink_offsets = np.asarray(kink_offsets, dtype=float)

    floor = 1e-12
    exponents: dict = {}
    for kink in problem.kink_points:
        if isinstance(source, SpaceTimeField):
            exponents[kink] = _field_blowup(source, kink, kink_time, floor)
        else:
            exponents[kink] = _callable_blowup(source, kink, kink_time, kink_offsets, floor)
    return GradientDiagnostics(weighted_gradient_sup=wsup, blowup_exponents=exponents,
                               smooth_floor=floor)


def _callable_blowup(source, kink: float, t: float, offsets: np.ndarray, floor: float):
    d2 = np.empty_like(offsets)
    for idx, h in enumerate(offsets):
        x = kink + h
        delta = h / 8.0
        vp = float(np.atleast_1d(source.value_at(t, np.array([x + delta])))[0])
        v0 = float(np.atleast_1d(source.value_at(t, np.array([x])))[0])
        vm = float(np.atleast_1d(source.value_at(t, np.array([x - delta])))[0])
        d2[idx] = (vp - 2.0 * v0 + vm) / delta**2
    return _fit_blowup(offsets, d2, floor)


def _field_blowup(field: SpaceTimeField, kink: float, t: float, floor: float):
    grid = field.grid
    xs = grid.xs
    i = field._time_index(t)
    row = field.values[i]
    d2 = (row[2:] - 2.0 * row[1:-1] + row[:-2]) / grid.dx**2
    h = xs[1:-1] - kink
    mask = h > 0.5 * grid.dx
    if np.count_nonzero(mask) < 4:
        return None
    return _fit_blowup(h[mask], d2[mask], floor)


def _fit_blowup(h: np.ndarray, d2: np.ndarray, floor: float):
    mag = np.abs(d2)
    keep = mag > floor * (1.0 + mag.max(initial=0.0))
    if not np.any(keep):
        return 0.0
    if np.count_nonzero(keep) < 2:
        return None
    slope = np.polyfit(np.log(h[keep]), np.log(mag[keep]), 1)[0]
    return float(slope)
