"""Problem containers for stochastic optimal control.

A control problem is given by controlled dynamics

    dy(s) = [F0(s, y(s)) + F1(s, y(s), z(s))] ds + B(s, y(s)) dW(s),

a control set U, a cost criterion (finite horizon with terminal cost,
optionally stopped at the exit from an open domain O, or discounted infinite
horizon), and an optimization sense.  The rest of the toolkit works on the
*canonical* form (minimization); :func:`canonicalize` converts maximization
problems by negating the costs.

Shape contract
--------------
Coefficients are evaluated in batches: for ``P`` states, ``x`` has shape
``(P, n)`` and ``z`` shape ``(P, k)``; ``drift_uncontrolled(t, x)`` and
``drift_controlled(t, x, z)`` return ``(P, n)``, ``diffusion(t, x)`` returns
``(P, n, m)``, ``running_cost(t, x, z)`` returns ``(P,)``, terminal/boundary
costs return ``(P,)``.  Plain broadcasting code (``lambda t, x: -alpha * x``)
satisfies this.  Each callable is called once per batch and its result must
have that shape ((P,) is also taken for (P, 1)); any other shape raises
ValueError.  A callable written for one point at a time is declared with
:func:`rowwise`, which calls it once per row.
A closed-form Hamiltonian (see :class:`ControlProblem`) and the control-set and
domain methods take such batches too; no flat array is read as a batch.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._util import batch_call, probe_batch

__all__ = [
    "ControlSet",
    "Domain",
    "FiniteHorizon",
    "DiscountedInfinite",
    "ControlProblem",
    "HypothesisReport",
    "CoefficientError",
    "probe_hypotheses",
    "canonicalize",
    "rowwise",
]


class CoefficientError(ValueError):
    """A problem coefficient returned a non-finite value; ``values`` is its whole output."""

    def __init__(self, message: str, values: np.ndarray):
        super().__init__(message)
        self.values = values


def rowwise(fn: Callable) -> Callable:
    """Declare ``fn`` a callable that takes one point at a time.

    The returned callable takes a batch and calls ``fn`` once per row:
    scalar arguments (the time t) pass through, array arguments are indexed
    on axis 0, and the row results are stacked in row order.  The stacked
    result is checked like that of a batched callable, so a row result of
    the wrong shape raises rather than being broadcast.  Each call costs a
    Python call per row; a vectorized callable is much faster.
    """

    def batched(*args):
        n_rows = next(len(a) for a in args if np.ndim(a))
        return np.array([fn(*(a[i] if np.ndim(a) else a for a in args)) for i in range(n_rows)],
                        dtype=float)

    return batched


# ---------------------------------------------------------------------------
# Control sets
# ---------------------------------------------------------------------------

_CONTAINS_TOL = 1e-12  # membership tolerance of ControlSet.contains: absorbs roundoff


@dataclass(frozen=True)
class ControlSet:
    """Admissible control values U ⊂ R^k.

    Two kinds are supported:

    * ``"box"`` — per-axis interval bounds; axes may be unbounded
      (``+inf``/``-inf`` entries).
    * ``"finite"`` — an explicit list of points.

    The Hamiltonian minimizer scans a box set on a coarse grid of 33 points
    per axis before refining.
    """

    kind: str
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    points: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("box", "finite"):
            raise ValueError(f"unknown control-set kind {self.kind!r}")
        if self.kind == "box":
            lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
            hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
            if lo.shape != hi.shape or lo.ndim != 1:
                raise ValueError("box bounds must be 1-d arrays of equal length")
            if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
                raise ValueError("box bounds must not be NaN")
            if np.any(lo > hi):
                raise ValueError(f"box lower bound exceeds upper bound: {lo} > {hi}")
            empty = (lo == np.inf) | (hi == -np.inf)
            if empty.any():
                j = empty.argmax()
                raise ValueError(f"box axis {j} holds no real control: its bounds are [{lo[j]}, {hi[j]}]")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)
        else:
            pts = np.asarray(self.points, dtype=float)
            if pts.ndim != 2 or pts.shape[0] == 0:
                raise ValueError("finite control set needs a nonempty (npts, k) array")
            if not np.all(np.isfinite(pts)):
                raise ValueError("finite control set points must be finite")
            # Lexicographic order makes nearest-point ties and tie-breaking
            # in the Hamiltonian scan deterministic.
            order = np.lexsort(pts.T[::-1])
            object.__setattr__(self, "points", pts[order])

    @classmethod
    def box(cls, lower, upper) -> "ControlSet":
        return cls(kind="box", lower=lower, upper=upper)

    @classmethod
    def finite(cls, points) -> "ControlSet":
        return cls(kind="finite", points=points)

    @property
    def dimension(self) -> int:
        if self.kind == "box":
            return self.lower.shape[0]
        return self.points.shape[1]

    def contains(self, z) -> np.ndarray:
        """(P,) membership of a (P, k) batch of controls, within _CONTAINS_TOL."""
        zb, tol = probe_batch(z, self.dimension), _CONTAINS_TOL
        if self.kind == "box":
            return ((zb >= self.lower - tol) & (zb <= self.upper + tol)).all(axis=1)
        if self.points.shape[0] == 1:
            return ((zb - self.points[0]) ** 2).sum(axis=1) <= tol * tol
        d2 = np.min(np.sum((zb[:, None, :] - self.points[None]) ** 2, axis=2), axis=1)
        return d2 <= tol * tol

    def project(self, z) -> np.ndarray:
        """(P, k) nearest admissible controls of a (P, k) batch (clipped for boxes)."""
        zb = probe_batch(z, self.dimension)
        if self.kind == "box":
            return np.clip(zb, self.lower, self.upper)
        d2 = np.sum((zb[:, None, :] - self.points[None]) ** 2, axis=2)
        return self.points[np.argmin(d2, axis=1)]


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """Open axis-aligned domain O (interval in 1-d, box in general).

    ``signed_distance`` is negative strictly inside, zero on the boundary,
    positive outside.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("domain bounds must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("domain bounds must be finite")
        if np.any(lo >= hi):
            raise ValueError(f"degenerate domain: lower {lo} not below upper {hi}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def interval(cls, a: float, b: float) -> "Domain":
        return cls(lower=np.array([a]), upper=np.array([b]))

    @classmethod
    def box(cls, lower, upper) -> "Domain":
        return cls(lower=lower, upper=upper)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def signed_distance(self, x) -> np.ndarray:
        """(P,) max over axes of per-axis signed distance; negative inside."""
        xb = probe_batch(x, self.dimension)
        return np.max(np.maximum(self.lower - xb, xb - self.upper), axis=1)

    def contains(self, x) -> np.ndarray:
        """(P,) membership of a (P, n) batch in the open domain."""
        return self.signed_distance(x) < 0.0

    def project_to_boundary(self, x) -> np.ndarray:
        """(P, n) closest boundary points (componentwise clip, then push the
        nearest axis onto its face for interior points)."""
        xb = probe_batch(x, self.dimension)
        out = np.clip(xb, self.lower, self.upper)
        inside = self.contains(xb)
        if np.any(inside):
            sub = out[inside]
            to_low = sub - self.lower
            to_high = self.upper - sub
            axis = np.argmin(np.minimum(to_low, to_high), axis=1)
            rows = np.arange(sub.shape[0])
            use_low = to_low[rows, axis] <= to_high[rows, axis]
            sub[rows, axis] = np.where(use_low, self.lower[axis], self.upper[axis])
            out[inside] = sub
        return out

    def boundary_points(self) -> np.ndarray:
        """Declared boundary sample points: interval endpoints / box corners."""
        if self.dimension == 1:
            return np.array([[self.lower[0]], [self.upper[0]]])
        grids = np.meshgrid(*[(lo, hi) for lo, hi in zip(self.lower, self.upper)], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


# ---------------------------------------------------------------------------
# Horizons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteHorizon:
    """Fixed terminal time T with terminal cost φ(x)."""

    terminal_time: float
    terminal_cost: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not (np.isfinite(self.terminal_time) and self.terminal_time > 0):
            raise ValueError(f"terminal_time must be positive and finite, got {self.terminal_time}")


@dataclass(frozen=True)
class DiscountedInfinite:
    """Infinite horizon with discount rate λ > 0 and autonomous running cost.

    The running cost l1(x, z) is undiscounted; estimators apply the e^{−λs}
    weight (with exact per-step integration of the exponential).
    """

    rate: float
    running_cost: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"discount rate must be positive, got {self.rate}")


# ---------------------------------------------------------------------------
# The problem container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlProblem:
    """Full specification of a stochastic optimal control problem.

    The coefficients take batches under the module's shape contract; one
    written for a single point is passed as ``rowwise(fn)``.

    Optional extras used elsewhere in the toolkit:

    * ``boundary_cost`` ψ(t, x): required when ``domain`` is set (exit
      problems); must agree with the terminal cost on ∂O at time T.
    * ``closed_form_hamiltonian``: callable ``(t, x, p) -> (value, argmin)``
      in canonical (minimize) orientation; when set, the Hamiltonian
      minimizer and the PDE solvers use it instead of the numerical scan.
      ``x`` and ``p`` arrive as (P, n) arrays; the value must be (P,) or
      (P, 1) and the argmin (P, k), or (P,) when k = 1 (else ValueError).
    * ``kink_points``: states where the value function is known/suspected to
      lose C² regularity (1-d); residual reports exclude a neighborhood and
      gradient diagnostics measure the blow-up there.
    """

    dimension: int
    noise_dimension: int
    horizon: FiniteHorizon | DiscountedInfinite
    drift_uncontrolled: Callable
    drift_controlled: Callable
    diffusion: Callable
    control_set: ControlSet
    running_cost: Callable | None = None
    domain: Domain | None = None
    boundary_cost: Callable | None = None
    sense: str = "minimize"
    closed_form_hamiltonian: Callable | None = None
    kink_points: tuple = ()
    name: str = ""

    def __post_init__(self):
        if self.dimension < 1 or self.noise_dimension < 1:
            raise ValueError("state and noise dimensions must be at least 1")
        if self.sense not in ("minimize", "maximize"):
            raise ValueError(f"sense must be 'minimize' or 'maximize', got {self.sense!r}")
        if isinstance(self.horizon, FiniteHorizon):
            if self.running_cost is None:
                raise ValueError("finite-horizon problems require running_cost")
        elif isinstance(self.horizon, DiscountedInfinite):
            if self.domain is not None:
                raise ValueError("discounted infinite-horizon problems do not support exit domains")
            if self.running_cost is not None:
                raise ValueError(
                    "discounted problems carry their running cost on the horizon; "
                    "leave ControlProblem.running_cost unset"
                )
        else:
            raise ValueError(f"unknown horizon type {type(self.horizon).__name__}")
        if self.domain is not None:
            if self.domain.dimension != self.dimension:
                raise ValueError("domain dimension does not match state dimension")
            if self.boundary_cost is None:
                raise ValueError("exit problems require boundary_cost")
            self._check_compatibility()

    def _check_compatibility(self):
        """ψ(T, ·) must equal φ on the declared boundary points (tol 1e-12)."""
        T = self.horizon.terminal_time
        pts = self.domain.boundary_points()
        psi = batch_call(self.boundary_cost, T, pts, expect_shape=(pts.shape[0],), label="boundary_cost")
        phi = batch_call(self.horizon.terminal_cost, pts, expect_shape=(pts.shape[0],), label="terminal_cost")
        gap = np.max(np.abs(psi - phi))
        if not (gap <= 1e-12 * (1.0 + np.max(np.abs(phi)))):
            raise ValueError(
                "boundary cost is incompatible with the terminal cost on the domain "
                f"boundary: max |ψ(T,·) − φ| = {gap:.3e} at t = T = {T}"
            )

    # -- batched, shape-checked coefficient evaluation ----------------------

    @property
    def control_dimension(self) -> int:
        return self.control_set.dimension

    def f0(self, t: float, x: np.ndarray) -> np.ndarray:
        out = batch_call(self.drift_uncontrolled, t, x,
                         expect_shape=x.shape, label="drift_uncontrolled")
        _require_finite(out, "drift_uncontrolled", t, x)
        return out

    def f1(self, t: float, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        out = batch_call(self.drift_controlled, t, x, z,
                         expect_shape=x.shape, label="drift_controlled")
        _require_finite(out, "drift_controlled", t, x, z)
        return out

    def diff(self, t: float, x: np.ndarray) -> np.ndarray:
        out = batch_call(self.diffusion, t, x,
                         expect_shape=(x.shape[0], self.dimension, self.noise_dimension),
                         label="diffusion")
        _require_finite(out, "diffusion", t, x)
        return out

    def cost_rate(self, t: float, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        if isinstance(self.horizon, DiscountedInfinite):
            out = batch_call(self.horizon.running_cost, x, z,
                             expect_shape=(x.shape[0],), label="running_cost")
        else:
            out = batch_call(self.running_cost, t, x, z,
                             expect_shape=(x.shape[0],), label="running_cost")
        _require_finite(out, "running_cost", t, x, z)
        return out

    def terminal(self, x: np.ndarray) -> np.ndarray:
        if not isinstance(self.horizon, FiniteHorizon):
            raise ValueError("terminal cost is only defined for finite-horizon problems")
        out = batch_call(self.horizon.terminal_cost, x,
                         expect_shape=(x.shape[0],), label="terminal_cost")
        _require_finite(out, "terminal_cost", None, x)
        return out

    def boundary(self, t: float, x: np.ndarray) -> np.ndarray:
        out = batch_call(self.boundary_cost, t, x, expect_shape=(x.shape[0],), label="boundary_cost")
        _require_finite(out, "boundary_cost", t, x)
        return out


def _require_finite(values: np.ndarray, label: str, t, x, z=None):
    if np.isfinite(values).all():  # the method skips np.all's Python-level wrapper
        return
    i = np.argwhere(~np.isfinite(values))[0][0]  # the first failing row of the (P, n) batch
    msg = f"{label} returned a non-finite value at t={t}, x={np.array2string(x[i], precision=6)}"
    if z is not None:
        msg += f", z={np.array2string(z[i], precision=6)}"
    raise CoefficientError(msg, values)


# ---------------------------------------------------------------------------
# Canonicalization (maximize -> minimize)
# ---------------------------------------------------------------------------


def canonicalize(problem: ControlProblem) -> ControlProblem:
    """Return an equivalent problem with ``sense == "minimize"``.

    Costs are negated (running, terminal, boundary); dynamics, control set,
    domain and the registered closed-form Hamiltonian (already stored in
    canonical orientation) are shared unchanged.  Idempotent: canonical
    problems are returned as-is.
    """
    if problem.sense == "minimize":
        return problem

    def neg(fn):
        if fn is None:
            return None
        return lambda *args, _fn=fn: -np.asarray(_fn(*args), dtype=float)

    if isinstance(problem.horizon, FiniteHorizon):
        horizon = FiniteHorizon(problem.horizon.terminal_time, neg(problem.horizon.terminal_cost))
        running = neg(problem.running_cost)
    else:
        horizon = DiscountedInfinite(problem.horizon.rate, neg(problem.horizon.running_cost))
        running = None
    return dataclasses.replace(
        problem,
        sense="minimize",
        horizon=horizon,
        running_cost=running,
        boundary_cost=neg(problem.boundary_cost),
    )


# ---------------------------------------------------------------------------
# Hypothesis probing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    """Sampled estimates of the standing-assumption constants.

    ``lipschitz_*`` and ``girsanov_sup_estimate`` are sampled suprema (grow
    toward the true constants as samples accumulate); the ellipticity
    estimate is a sampled minimum eigenvalue of B Bᵀ (an upper bound for the
    nondegeneracy constant λ0, shrinking toward it).  ``girsanov_sup_estimate``
    is +inf when some sampled drift F1 is not in the range of B.
    """

    lipschitz_F0_estimate: float
    lipschitz_F1_estimate: float
    ellipticity_lambda0_estimate: float
    girsanov_sup_estimate: float
    samples_used: int


def probe_hypotheses(
    problem: ControlProblem,
    n_samples: int,
    seed: int,
    sample_region: Domain,
) -> HypothesisReport:
    """Estimate Lipschitz/ellipticity/Girsanov constants by sampling.

    Samples are drawn from per-quantity substreams of ``seed``, so for a fixed
    (seed, region) the first k samples of a k-sample probe coincide with those
    of any larger probe (nested sample sets; max-type estimates are monotone
    in ``n_samples``).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if sample_region.dimension != problem.dimension:
        raise ValueError("sample_region dimension does not match the problem")

    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]
    n = problem.dimension
    lo, hi = sample_region.lower, sample_region.upper

    if isinstance(problem.horizon, FiniteHorizon):
        ts = streams[0].uniform(0.0, problem.horizon.terminal_time, size=n_samples)
    else:
        ts = np.zeros(n_samples)
    x1 = lo + (hi - lo) * streams[1].random((n_samples, n))
    x2 = lo + (hi - lo) * streams[2].random((n_samples, n))
    zs = _sample_controls(problem.control_set, n_samples, streams[3])

    lip_f0 = 0.0
    lip_f1 = 0.0
    ell = np.inf
    gir = 0.0
    one_d = problem.dimension == 1
    # Coefficients take a scalar time argument, so samples are processed one
    # at a time (batches of one); cheap closed-form paths keep 1-d fast.
    for i in range(n_samples):
        t = float(ts[i])
        a, b = x1[i: i + 1], x2[i: i + 1]
        z = zs[i: i + 1]
        dx = float(np.linalg.norm(a - b))
        f1a = problem.f1(t, a, z)[0]
        if dx > 1e-12:
            f0a, f0b = problem.f0(t, a)[0], problem.f0(t, b)[0]
            lip_f0 = max(lip_f0, float(np.linalg.norm(f0a - f0b)) / dx)
            f1b = problem.f1(t, b, z)[0]
            lip_f1 = max(lip_f1, float(np.linalg.norm(f1a - f1b)) / dx)
        B = problem.diff(t, a)[0]
        if one_d:
            s2 = float(B[0] @ B[0])      # BBᵀ is a scalar
            ell = min(ell, s2)
            norm_b = np.sqrt(s2)
            norm_f1 = abs(float(f1a[0]))
            if norm_b > 0.0:
                gir = max(gir, norm_f1 / norm_b)
            elif norm_f1 > 1e-10 * (1.0 + norm_f1):
                gir = np.inf            # F1 not in the range of a vanished B
        else:
            sigma = B @ B.T
            ell = min(ell, float(np.min(np.linalg.eigvalsh(sigma))))
            xi = np.linalg.lstsq(B, f1a, rcond=None)[0]
            resid = float(np.linalg.norm(B @ xi - f1a))
            if resid > 1e-10 * (1.0 + float(np.linalg.norm(f1a))):
                gir = np.inf
            else:
                gir = max(gir, float(np.linalg.norm(xi)))
    return HypothesisReport(
        lipschitz_F0_estimate=lip_f0,
        lipschitz_F1_estimate=lip_f1,
        ellipticity_lambda0_estimate=max(ell, 0.0),
        girsanov_sup_estimate=gir,
        samples_used=n_samples,
    )


def _sample_controls(control_set: ControlSet, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    if control_set.kind == "finite":
        idx = rng.integers(0, control_set.points.shape[0], size=n_samples)
        return control_set.points[idx]
    lo = control_set.lower.copy()
    hi = control_set.upper.copy()
    # Truncate unbounded axes to a deterministic finite window for sampling.
    both = ~np.isfinite(lo) & ~np.isfinite(hi)
    lo[both], hi[both] = -10.0, 10.0
    up_only = np.isfinite(lo) & ~np.isfinite(hi)
    hi[up_only] = lo[up_only] + 10.0 * (1.0 + np.abs(lo[up_only]))
    low_only = ~np.isfinite(lo) & np.isfinite(hi)
    lo[low_only] = hi[low_only] - 10.0 * (1.0 + np.abs(hi[low_only]))
    return lo + (hi - lo) * rng.random((n_samples, control_set.dimension))
