"""Euler-Maruyama simulation of controlled diffusions.

Reproducibility contract
------------------------
Brownian increments are drawn from counter-based Philox streams keyed by
``(seed, global path index)``; the i-th step of a path consumes positions
``[i*m, (i+1)*m)`` of its stream, and Gaussians are produced by the inverse
normal CDF applied to 53-bit uniforms.  A path's noise therefore depends only
on (seed, path index, step index) — never on chunking, worker count, or what
other paths do — so simulating paths [0, P) in one call is bit-identical to
simulating any partition of them.  The Brownian-bridge exit rule draws its
own per-(path, step) uniforms from a separate substream (one uniform per step,
consumed whether or not the step needs it) to keep the two streams aligned.

Paths halt at their exit step: states are frozen afterwards, and the stored
state *at* the exit step is the raw Euler point (so the update recurrence can
be replayed exactly up to and including the exit step).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
from scipy.special import ndtri

from ._util import as_point_batch
from .problem import ControlProblem, DiscountedInfinite, Domain, FiniteHorizon

__all__ = [
    "SimConfig",
    "ConstantPolicy",
    "OpenLoopPolicy",
    "FeedbackPolicy",
    "ExitRecord",
    "PathBatch",
    "simulate",
    "simulate_chunks",
    "detect_exit",
    "gaussian_increments",
    "dump_paths_csv",
]

log = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1
_BRIDGE_TAG = 1 << 63  # high bit of the second key word marks the bridge substream


# ---------------------------------------------------------------------------
# Counter-based noise
# ---------------------------------------------------------------------------


def _path_uniforms(seed: int, path: int, count: int, tag: int = 0) -> np.ndarray:
    """53-bit uniforms in (0, 1) from the Philox stream keyed (seed, path)."""
    key = np.array([seed & _MASK64, (path + tag) & _MASK64], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(count)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def gaussian_increments(seed: int, n_paths: int, n_steps: int, m: int, dt: float,
                        path_offset: int = 0) -> np.ndarray:
    """Brownian increments ΔW of shape (n_paths, n_steps, m), via inverse CDF."""
    u = np.empty((n_paths, n_steps * m))
    for p in range(n_paths):
        u[p] = _path_uniforms(seed, path_offset + p, n_steps * m)
    return ndtri(u).reshape(n_paths, n_steps, m) * np.sqrt(dt)


def _bridge_uniforms(seed: int, n_paths: int, n_steps: int, path_offset: int = 0) -> np.ndarray:
    u = np.empty((n_paths, n_steps))
    for p in range(n_paths):
        u[p] = _path_uniforms(seed, path_offset + p, n_steps, tag=_BRIDGE_TAG)
    return u


# ---------------------------------------------------------------------------
# Configuration and policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo configuration.

    ``dt`` must resolve the horizon with at least 10 steps (checked when the
    horizon is known, at simulation time).  ``seed`` is reduced mod 2^64.
    """

    dt: float
    n_paths: int
    seed: int
    exit_rule: str = "grid_crossing"

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be at least 1, got {self.n_paths}")
        if self.exit_rule not in ("grid_crossing", "brownian_bridge"):
            raise ValueError(f"unknown exit rule {self.exit_rule!r}")
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)


class ConstantPolicy:
    """z(s) ≡ z."""

    def __init__(self, z):
        self.z = np.atleast_1d(np.asarray(z, dtype=float))

    def controls_at(self, t: float, x: np.ndarray, k: int) -> np.ndarray:
        if self.z.shape[0] != k:
            raise ValueError(f"constant control has dimension {self.z.shape[0]}, expected {k}")
        return np.broadcast_to(self.z, (x.shape[0], k))


class OpenLoopPolicy:
    """Deterministic piecewise-constant control path z(s).

    ``times`` (strictly increasing) and ``controls`` with one row per time;
    the control at t is the row of the last time ≤ t (the first row before
    ``times[0]``).
    """

    def __init__(self, times, controls):
        self.times = np.asarray(times, dtype=float)
        ctrl = np.asarray(controls, dtype=float)
        if ctrl.ndim == 1:
            ctrl = ctrl.reshape(-1, 1)
        if self.times.ndim != 1 or ctrl.shape[0] != self.times.shape[0]:
            raise ValueError("times and controls must have matching leading length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("open-loop times must be strictly increasing")
        self.controls = ctrl

    def controls_at(self, t: float, x: np.ndarray, k: int) -> np.ndarray:
        if self.controls.shape[1] != k:
            raise ValueError(f"open-loop controls have dimension {self.controls.shape[1]}, expected {k}")
        j = int(np.searchsorted(self.times, t, side="right")) - 1
        j = max(j, 0)
        return np.broadcast_to(self.controls[j], (x.shape[0], k))


class FeedbackPolicy:
    """z(s) = map(s, y(s)); the map may be batched or scalar-only."""

    def __init__(self, map: Callable):
        self.map = map

    def controls_at(self, t: float, x: np.ndarray, k: int) -> np.ndarray:
        P = x.shape[0]
        try:
            out = np.asarray(self.map(t, x), dtype=float)
        except Exception:
            out = None
        if out is not None:
            if out.shape == (P, k):
                return out
            if out.shape == (P,) and k == 1:
                return out.reshape(P, 1)
            if out.size == 1:
                return np.broadcast_to(out.reshape(()), (P, k)).copy()
        rows = np.empty((P, k))
        for i in range(P):
            rows[i] = np.atleast_1d(np.asarray(self.map(t, x[i]), dtype=float))
        return rows


def _as_policy(policy):
    if hasattr(policy, "controls_at"):
        return policy
    if callable(policy):
        return FeedbackPolicy(policy)
    raise TypeError(f"not a policy: {policy!r}")


# ---------------------------------------------------------------------------
# Path batches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExitRecord:
    """First exit of one path from the domain."""

    step: int
    time: float
    state: np.ndarray


@dataclass(frozen=True)
class PathBatch:
    """A batch of simulated paths on a shared uniform time grid.

    ``exit_step[p] == -1`` means path p never exited (likewise
    ``diverged_step``); ``states`` are frozen from the exit/divergence step
    onward.  ``path_offset`` is the global index of the first path (chunked
    simulations of the same seed tile the same global stream).
    """

    times: np.ndarray                 # (n_steps+1,)
    states: np.ndarray                # (P, n_steps+1, n)
    controls: np.ndarray              # (P, n_steps, k)
    brownian_increments: np.ndarray   # (P, n_steps, m)
    exit_step: np.ndarray             # (P,) int
    exit_time: np.ndarray             # (P,)
    exit_state: np.ndarray            # (P, n)
    diverged_step: np.ndarray         # (P,) int
    seed: int
    dt: float
    t0: float
    path_offset: int = 0

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1

    @property
    def exited(self) -> np.ndarray:
        return self.exit_step >= 0

    @property
    def n_diverged(self) -> int:
        return int(np.sum(self.diverged_step >= 0))

    def exit_record(self, p: int) -> ExitRecord | None:
        if self.exit_step[p] < 0:
            return None
        return ExitRecord(step=int(self.exit_step[p]), time=float(self.exit_time[p]),
                          state=self.exit_state[p].copy())

    def recompute_residual(self, problem: ControlProblem) -> float:
        """Max relative defect of the stored Euler recurrence.

        Replays states[i+1] = states[i] + (F0 + F1) dt + B ΔW from the stored
        controls and increments, over steps strictly before divergence and up
        to (including) the exit step; the batch must satisfy ≤ 1e-12.
        """
        worst = 0.0
        for i in range(self.n_steps):
            live = (self.exit_step < 0) | (i < self.exit_step)
            live &= (self.diverged_step < 0) | (i + 1 < self.diverged_step)
            if not np.any(live):
                break
            t = float(self.times[i])
            x = self.states[live, i]
            z = self.controls[live, i]
            drift = problem.f0(t, x) + problem.f1(t, x, z)
            diff = problem.diff(t, x)
            pred = x + drift * self.dt + np.einsum("pnm,pm->pn", diff, self.brownian_increments[live, i])
            err = np.abs(pred - self.states[live, i + 1]) / (1.0 + np.abs(self.states[live, i + 1]))
            worst = max(worst, float(np.max(err)))
        return worst


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def simulate(
    problem: ControlProblem,
    policy,
    t0: float,
    x0,
    config: SimConfig,
    until: float | None = None,
    path_range: tuple[int, int] | None = None,
) -> PathBatch:
    """Simulate ``config.n_paths`` Euler-Maruyama paths from (t0, x0).

    ``until`` overrides the end time (required for discounted problems, where
    it is the truncation time).  ``path_range=(lo, hi)`` simulates only the
    global path indices [lo, hi) — used for chunking; results for a given
    global index are identical no matter how the range is split.
    """
    policy = _as_policy(policy)
    if isinstance(problem.horizon, FiniteHorizon):
        end = float(until) if until is not None else problem.horizon.terminal_time
    else:
        if until is None:
            raise ValueError("discounted problems need an explicit truncation time `until`")
        end = float(until)
    if not end > t0:
        raise ValueError(f"end time {end} must exceed start time {t0}")
    span = end - t0
    if config.dt > span / 10.0 + 1e-12:
        raise ValueError(
            f"dt={config.dt} too coarse for horizon {span}: need dt <= horizon/10"
        )
    n_steps = max(1, int(round(span / config.dt)))
    dt = span / n_steps

    lo, hi = path_range if path_range is not None else (0, config.n_paths)
    if not (0 <= lo < hi <= config.n_paths):
        raise ValueError(f"bad path_range {path_range} for n_paths={config.n_paths}")
    P = hi - lo
    n, m, k = problem.dimension, problem.noise_dimension, problem.control_dimension

    x_start, _ = as_point_batch(x0, n)
    if x_start.shape[0] != 1:
        raise ValueError("x0 must be a single starting point")
    domain = problem.domain
    if domain is not None:
        if not (domain.signed_distance(x_start[0]) < 0.0):
            raise ValueError(f"initial state {x_start[0]} is not inside the domain")
        if config.exit_rule == "brownian_bridge" and n != 1:
            raise ValueError("the brownian_bridge exit rule is only defined for 1-d domains")

    dW = gaussian_increments(config.seed, P, n_steps, m, dt, path_offset=lo)
    bridge_u = None
    if domain is not None and config.exit_rule == "brownian_bridge":
        bridge_u = _bridge_uniforms(config.seed, P, n_steps, path_offset=lo)

    times = t0 + dt * np.arange(n_steps + 1)
    states = np.empty((P, n_steps + 1, n))
    controls = np.empty((P, n_steps, k))
    states[:, 0] = x_start[0]
    exit_step = np.full(P, -1, dtype=np.int64)
    exit_time = np.full(P, np.nan)
    exit_state = np.full((P, n), np.nan)
    diverged_step = np.full(P, -1, dtype=np.int64)
    active = np.ones(P, dtype=bool)
    n_projected = 0

    sd_prev = domain.signed_distance(states[:, 0]) if domain is not None else None
    for i in range(n_steps):
        t = float(times[i])
        x = states[:, i]
        z = np.asarray(policy.controls_at(t, x, k), dtype=float)
        ok = problem.control_set.contains(z)
        if not np.all(ok):
            n_projected += int(np.sum(~ok))
            z = np.where(ok[:, None], z, np.asarray(problem.control_set.project(z)))
        controls[:, i] = z

        drift = problem.f0(t, x) + problem.f1(t, x, z)
        diff = problem.diff(t, x)
        # Overflow here is not an error: non-finite states are flagged below.
        with np.errstate(over="ignore", invalid="ignore"):
            x_next = x + drift * dt + np.einsum("pnm,pm->pn", diff, dW[:, i])
        x_next = np.where(active[:, None], x_next, x)

        bad = active & ~np.all(np.isfinite(x_next), axis=1)
        if np.any(bad):
            diverged_step[bad] = i + 1
            active &= ~bad
            x_next[bad] = x[bad]

        if domain is not None and np.any(active):
            sd_next = domain.signed_distance(x_next)
            live = np.flatnonzero(active)
            sigma2 = u = None
            if bridge_u is not None:  # σ² = B Bᵀ, n = 1
                sigma2, u = np.einsum("pnm,pnm->p", diff[live], diff[live]), bridge_u[live, i]
            hit, where = _step_exits(domain, x[live], x_next[live], sd_prev[live], sd_next[live],
                                     dt, sigma2, u)
            exited = live[hit]
            exit_step[exited] = i + 1
            exit_time[exited] = times[i + 1]
            exit_state[exited] = where[hit]
            active[exited] = False
            sd_prev = sd_next

        states[:, i + 1] = x_next

    if np.all(diverged_step >= 0):
        raise RuntimeError(
            "all paths diverged (non-finite states); the dynamics or dt are pathological"
        )
    if n_projected:
        log.warning(
            "projected %d of %d control evaluations onto the admissible set U",
            n_projected, P * n_steps,
        )

    return PathBatch(
        times=times, states=states, controls=controls, brownian_increments=dW,
        exit_step=exit_step, exit_time=exit_time, exit_state=exit_state,
        diverged_step=diverged_step, seed=config.seed, dt=dt, t0=t0, path_offset=lo,
    )


def simulate_chunks(
    problem: ControlProblem,
    policy,
    t0: float,
    x0,
    config: SimConfig,
    until: float | None = None,
    chunk_size: int = 4096,
) -> Iterator[PathBatch]:
    """Yield PathBatches covering path indices [0, n_paths) in chunks.

    Bit-identical to one monolithic :func:`simulate` call (per-path keyed
    streams), with memory bounded by the chunk size.
    """
    lo = 0
    while lo < config.n_paths:
        hi = min(lo + chunk_size, config.n_paths)
        yield simulate(problem, policy, t0, x0, config, until=until, path_range=(lo, hi))
        lo = hi


# ---------------------------------------------------------------------------
# Exit detection
# ---------------------------------------------------------------------------


def _step_exits(domain: Domain, x_left: np.ndarray, x_right: np.ndarray,
                sd_left: np.ndarray, sd_right: np.ndarray, dt: float,
                sigma2: np.ndarray | None = None, u: np.ndarray | None = None):
    """The exit rule, applied to Euler steps ``x_left -> x_right`` (one per row).

    A step exits when ``x_right`` lies in the closure of the complement
    (grid crossing; the exit state is ``x_right`` projected onto the
    boundary).  Otherwise, when bridge uniforms ``u`` are given, a step that
    starts inside exits if ``u < exp(-2 d_l d_r / (σ² dt))`` with
    ``σ² = sigma2 > 0`` (Brownian bridge; the exit state is ``x_left``
    projected).  Returns the exit mask and the exit states (nan elsewhere).
    """
    crossed = sd_right >= 0.0
    fired = np.zeros_like(crossed)
    if u is not None:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            pcross = np.exp(-2.0 * sd_left * sd_right / (sigma2 * dt))
        fired = ~crossed & (sd_left < 0.0) & (sigma2 > 0.0) & (u < pcross)
    states = np.full(x_right.shape, np.nan)
    if np.any(crossed):
        states[crossed] = domain.project_to_boundary(x_right[crossed])
    if np.any(fired):
        states[fired] = domain.project_to_boundary(x_left[fired])
    return crossed | fired, states


def detect_exit(
    states_path: np.ndarray,
    domain: Domain,
    exit_rule: str,
    dt: float,
    rng_substream: np.random.Generator | None = None,
    t0: float = 0.0,
    diffusion=None,
) -> ExitRecord | None:
    """First-exit detection along one stored path.

    ``grid_crossing`` reports the first grid index outside the closure;
    ``brownian_bridge`` additionally samples within-step crossings with
    probability exp(-2 d_i d_{i+1} / (σ² dt)) (distances to the nearer
    boundary; σ² = B Bᵀ at the step's left endpoint, supplied via
    ``diffusion`` as a callable (t, x) -> σ² or a per-step array).  The bridge
    draws its uniforms as ``rng_substream.random(n_steps)``, one per step, and
    the rule is the simulator's own.  A ``np.random.Generator`` gives decisions
    statistically equivalent to the simulator's, not the same ones: the
    simulator draws path p's uniforms from its own Philox stream,
    ``_bridge_uniforms(seed, 1, n_steps, path_offset=p)[0]``, so a pathwise
    replay needs an object whose ``random(n_steps)`` returns those.
    """
    x = np.asarray(states_path, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    n_steps = x.shape[0] - 1
    sd = domain.signed_distance(x)
    if exit_rule == "grid_crossing":
        sigma2 = u = None
    elif exit_rule == "brownian_bridge":
        if x.shape[1] != 1:
            raise ValueError("the brownian_bridge exit rule is only defined for 1-d domains")
        if rng_substream is None or diffusion is None:
            raise ValueError("brownian_bridge detection needs rng_substream and diffusion")
        u = rng_substream.random(n_steps)
        if callable(diffusion):  # evaluated only where the step starts inside
            sigma2 = np.array([float(diffusion(t0 + i * dt, x[i])) if sd[i] < 0.0 else 0.0
                               for i in range(n_steps)])
        else:
            sigma2 = np.asarray(diffusion, dtype=float)
    else:
        raise ValueError(f"unknown exit rule {exit_rule!r}")

    hit, where = _step_exits(domain, x[:-1], x[1:], sd[:-1], sd[1:], dt, sigma2, u)
    if not np.any(hit):
        return None
    i = int(np.argmax(hit))
    return ExitRecord(step=i + 1, time=t0 + (i + 1) * dt, state=where[i])


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def dump_paths_csv(batch: PathBatch, path: str, stride: int = 1) -> None:
    """Write paths as CSV: ``path,step,t,x1..xn,z1..zk,exited``.

    One row per retained step (every ``stride``-th, starting at 0); the
    terminal row has no control (columns written as nan).  ``exited`` is 1
    from the exit step onward.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n = batch.states.shape[2]
    k = batch.controls.shape[2]
    header = ["path", "step", "t"] + [f"x{j+1}" for j in range(n)] + \
             [f"z{j+1}" for j in range(k)] + ["exited"]
    steps = np.arange(0, batch.n_steps + 1, stride)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for p in range(batch.n_paths):
            ex = batch.exit_step[p]
            for s in steps:
                row = [str(batch.path_offset + p), str(int(s)), _fmt(batch.times[s])]
                row += [_fmt(v) for v in batch.states[p, s]]
                if s < batch.n_steps:
                    row += [_fmt(v) for v in batch.controls[p, s]]
                else:
                    row += ["nan"] * k
                row.append("1" if (ex >= 0 and s >= ex) else "0")
                fh.write(",".join(row) + "\n")


def _fmt(v: float) -> str:
    # repr round-trips doubles exactly (shortest digits that parse back equal).
    return repr(float(v))
