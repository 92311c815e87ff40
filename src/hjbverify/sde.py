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

These stream positions are fixed; how they are drawn is not part of the
contract.  The step loop draws noise in blocks of steps, only for the paths
still live at the block's start: a path that has exited or diverged draws
nothing more, and positions it never reaches are simply never computed.

Paths halt at their exit step: the state *at* the exit step is the raw Euler
point (so the update recurrence can be replayed exactly up to and including
the exit step); a stopped path keeps its end state and last applied control.
The one step loop applies the exit rule (grid crossing or Brownian bridge)
as it advances and calls the policy and coefficients on live rows only; the
estimators run it with a summing integrand, :func:`simulate` a recording one.
A run on a finite horizon ends at its terminal time T; a discounted one ends
at its truncation time ``until``, which only discounted runs take.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from ._util import as_point, as_size, batch_call
from .problem import ControlProblem, DiscountedInfinite, Domain, FiniteHorizon

__all__ = [
    "SimConfig",
    "ConstantPolicy",
    "OpenLoopPolicy",
    "FeedbackPolicy",
    "PathBatch",
    "simulate",
    "simulate_chunks",
    "gaussian_increments",
    "dump_paths_csv",
]

log = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1
_TILE_DRAWS = 1 << 15  # draws per tile of _stream_uniforms (256 KiB, cache-sized)
_BRIDGE_TAG = 1 << 63  # high bit of the second key word marks the bridge substream


# ---------------------------------------------------------------------------
# Counter-based noise
# ---------------------------------------------------------------------------


def _stream_uniforms(seed: int, n_paths: int, path_offset: int, rows, start: int,
                     count: int, tag: int = 0) -> np.ndarray:
    """53-bit uniforms in (0, 1), (n_paths, count): positions [start, start+count)
    of the Philox streams keyed (seed, path + tag) of the global paths
    ``path_offset + rows`` (``rows`` defaults to 0 … n_paths-1).

    Philox4x64 turns one counter value into four outputs, so position ``start``
    is reached by setting the counter to ``start // 4`` (the generator
    increments it before its first block); a single generator is re-keyed for
    every path instead of building one per path, by rewriting the path word
    of one prebuilt state's key.  Each raw draw's top 53 bits k become the
    double k·2⁻⁵³ (``Generator.random``), shifted by :func:`_open_unit`.

    The result is the transpose of a C-ordered (count, n_paths) array, so one
    position of every path (one Euler step's draws) is contiguous in memory.
    Each path's stream is drawn into a row of a small tile, which is copied
    transposed into place.
    """
    rows = np.arange(n_paths) if rows is None else np.asarray(rows)
    if rows.shape != (n_paths,):
        raise ValueError(f"rows has shape {rows.shape}, expected ({n_paths},)")
    if n_paths == 0 or count == 0:
        return np.empty((n_paths, count))
    gen = np.random.Philox(0)
    draw = np.random.Generator(gen).random
    key = [seed & _MASK64, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [start // 4, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    base, skip = path_offset + tag, start % 4
    u = np.empty((count, n_paths))
    tile = np.empty((min(n_paths, max(1, _TILE_DRAWS // count)), count))
    keys = rows.tolist()
    for lo in range(0, n_paths, tile.shape[0]):
        block = keys[lo:lo + tile.shape[0]]
        for j, row in enumerate(block):
            key[1] = (base + row) & _MASK64
            gen.state = state  # the setter copies the values; the dict is reused
            if skip:
                gen.random_raw(skip)
            draw(out=tile[j])
        u[:, lo:lo + len(block)] = tile[:len(block)].T
    return _open_unit(u).T


def _open_unit(u: np.ndarray) -> np.ndarray:
    """Map uniforms k·2⁻⁵³ on [0, 1) to the midpoints (k + ½)·2⁻⁵³, in place.

    The sum rounds as ``(k + 0.5)·2⁻⁵³`` does.  Only k = 2⁵³ − 1 would round
    up to 1.0, where the inverse normal CDF is +inf; it is clamped to the
    largest double below 1, so every result lies in (0, 1).
    """
    u += 2.0**-54
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return u


def gaussian_increments(seed: int, n_paths: int, n_steps: int, m: int, dt: float,
                        path_offset: int = 0, rows=None, first_step: int = 0) -> np.ndarray:
    """Brownian increments ΔW of shape (n_paths, n_steps, m), via inverse CDF.

    Row j is global path ``path_offset + j``, or ``path_offset + rows[j]``
    when ``rows`` is given; the steps are [first_step, first_step + n_steps)
    of each path's stream, so any block of paths and steps equals the
    matching slice of the full draw.
    """
    from scipy.special import ndtri  # deferred: a run that draws no noise never maps scipy.special
    u = _stream_uniforms(seed, n_paths, path_offset, rows, first_step * m, n_steps * m)
    dw = ndtri(u, out=u).reshape(n_paths, n_steps, m)
    dw *= np.sqrt(dt)
    return dw


def _bridge_uniforms(seed: int, n_paths: int, n_steps: int, path_offset: int = 0,
                     rows=None, first_step: int = 0) -> np.ndarray:
    """The bridge rule's uniforms, (n_paths, n_steps); rows and steps as in
    :func:`gaussian_increments`."""
    return _stream_uniforms(seed, n_paths, path_offset, rows, first_step, n_steps,
                            tag=_BRIDGE_TAG)


# ---------------------------------------------------------------------------
# Configuration and policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo configuration.

    ``dt`` must resolve the horizon with at least 10 steps (checked when the
    horizon is known, at simulation time).  ``seed`` is an integer (a float
    raises), reduced mod 2^64.
    """

    dt: float
    n_paths: int
    seed: int
    exit_rule: str = "grid_crossing"

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        object.__setattr__(self, "n_paths", as_size(self.n_paths, "n_paths"))
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be at least 1, got {self.n_paths}")
        if self.exit_rule not in ("grid_crossing", "brownian_bridge"):
            raise ValueError(f"unknown exit rule {self.exit_rule!r}")
        object.__setattr__(self, "seed", as_size(self.seed, "seed") & _MASK64)


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
        if self.times.ndim != 1 or ctrl.ndim != 2 or ctrl.shape[0] != self.times.shape[0]:
            raise ValueError("controls must be a (len(times), k) array, one row per time")
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
    """z(s) = map(s, y(s)) for a batched map: (P, n) states to (P, k) controls.

    A (P,) result is taken for k = 1; any other shape raises ValueError.  A
    map that takes one state at a time is wrapped in :func:`~hjbverify.rowwise`.
    """

    def __init__(self, map: Callable):
        self.map = map

    def controls_at(self, t: float, x: np.ndarray, k: int) -> np.ndarray:
        return batch_call(self.map, t, x, expect_shape=(x.shape[0], k), label="policy")


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
class PathBatch:
    """A batch of simulated paths on a shared uniform time grid.

    ``exit_step[p] == -1`` means path p never exited (likewise
    ``diverged_step``).  ``end_state`` holds every path's state at the last
    time; the policy is called on live rows only, so a path stopped at step s
    (exit or divergence) stores ``end_state`` at steps ≥ s and repeats its
    last applied control ``controls[p, s-1]`` after it.
    ``path_offset`` is the global index of the first path (chunked
    simulations of the same seed tile the same global stream).  The exit
    data (``exit_step``, ``exit_time``, ``exit_state``) are those the step
    loop's exit rule found.

    The path tensors ``states``, ``controls`` and ``brownian_increments``
    exist only in batches from :func:`simulate`; a batch streamed by
    :func:`simulate_chunks` has them as ``None`` and carries its chunk's
    ``integrand`` instead.
    """

    times: np.ndarray                         # (n_steps+1,)
    states: np.ndarray | None                 # (P, n_steps+1, n)
    controls: np.ndarray | None               # (P, n_steps, k)
    brownian_increments: np.ndarray | None    # (P, n_steps, m)
    exit_step: np.ndarray                     # (P,) int
    exit_time: np.ndarray                     # (P,)
    exit_state: np.ndarray                    # (P, n)
    diverged_step: np.ndarray                 # (P,) int
    end_state: np.ndarray                     # (P, n)
    seed: int
    dt: float
    t0: float
    path_offset: int = 0
    integrand: object = None

    @property
    def n_paths(self) -> int:
        return self.exit_step.shape[0]

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1

    @property
    def exited(self) -> np.ndarray:
        return self.exit_step >= 0

    @property
    def n_diverged(self) -> int:
        return int(np.sum(self.diverged_step >= 0))


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

    The run ends at T for a finite horizon, which rejects ``until``, and at
    the truncation time ``until`` for a discounted one, which requires it.
    ``path_range=(lo, hi)`` simulates only the global path indices [lo, hi);
    results for a given global index are identical no matter how the range
    is split.  The batch stores the path tensors (memory O(paths × steps)),
    recorded on live rows only: the policy never sees a stopped path (see
    :class:`PathBatch`).
    """
    n, k = problem.dimension, problem.control_dimension
    tensors = []

    def record(P, times, dt):
        tensors[:] = np.empty((P, times.size, n)), np.empty((P, times.size - 1, k))

        def step(i, t, rows, x, z, f1):
            tensors[0][rows, i], tensors[1][rows, i] = x, z
        return step

    batch = _euler(problem, _as_policy(policy), t0, x0, config, until, path_range, record)
    (states, controls), n_steps = tensors, batch.n_steps
    stop = np.maximum(batch.exit_step, batch.diverged_step)  # at most one is set
    stop[stop < 0] = n_steps
    after = np.arange(n_steps + 1) >= stop[:, None]
    np.copyto(states, batch.end_state[:, None], where=after[:, :, None])
    last = np.take_along_axis(controls, stop[:, None, None] - 1, axis=1)
    np.copyto(controls, last, where=after[:, :-1, None])
    dW = gaussian_increments(config.seed, batch.n_paths, n_steps, problem.noise_dimension,
                             batch.dt, path_offset=batch.path_offset)
    return replace(batch, states=states, controls=controls, brownian_increments=dW,
                   integrand=None)


def simulate_chunks(
    problem: ControlProblem,
    policy,
    t0: float,
    x0,
    config: SimConfig,
    until: float | None = None,
    chunk_size: int = 4096,
    *,
    integrand,
) -> Iterator[PathBatch]:
    """Stream path indices [0, n_paths) through ``integrand``, one chunk at a time.

    Nothing is stored and memory is O(chunk).  At the start of each chunk
    ``integrand(n_paths, times, dt)`` is called, and the step callable it
    returns is invoked on every Euler step as ``step(i, t, rows, x, z, f1)``
    — the chunk-local indices of the paths live at ``t = times[i]``, their
    states, their (admissible) controls and ``problem.f1(t, x, z)`` — before
    those rows advance.  Each yielded :class:`PathBatch` carries the step
    callable as its ``integrand`` and the chunk's exit and end data, which
    are bit-identical to the matching rows of one :func:`simulate` call
    (per-path keyed streams).  ``until`` is as in :func:`simulate`.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    policy = _as_policy(policy)
    lo = 0
    while lo < config.n_paths:
        hi = min(lo + chunk_size, config.n_paths)
        yield _euler(problem, policy, t0, x0, config, until, (lo, hi), integrand)
        lo = hi


def _start_point(x0, n: int) -> np.ndarray:
    """``x0`` as a (1, n) row; anything but a single point raises, naming x0."""
    try:
        return as_point(x0, n)
    except ValueError as exc:
        raise ValueError(f"x0 must be a single starting point: {exc}") from None


def _end_time(problem: ControlProblem, until: float | None) -> float:
    """The end time of a run: T for a finite horizon, which rejects ``until``;
    the truncation time ``until`` for a discounted one, which requires it."""
    if isinstance(problem.horizon, FiniteHorizon):
        if until is not None:
            raise ValueError("finite-horizon problems run to their terminal time T; "
                             "`until` is the truncation time of discounted problems only")
        return problem.horizon.terminal_time
    if until is None:
        raise ValueError("discounted problems need an explicit truncation time `until`")
    return float(until)


# Noise is drawn in blocks of steps for the paths live at the block's start,
# at most _BLOCK_DRAWS draws (4 MiB) per block.  The spent block is released
# before the next is drawn, so one block per stream (Brownian increments and
# bridge uniforms) is alive at a time.  With a domain, the first block has
# _FIRST_BLOCK steps and each later one twice as many, so a path that exits
# early leaves few unused draws and a long-lived one re-keys its stream
# rarely.  Without a domain no path exits, so every block is as long as the
# cap allows from the start.  Block lengths are multiples of 4, so every
# block starts on a Philox counter boundary.
_FIRST_BLOCK = 16
_BLOCK_DRAWS = 1 << 19


def _euler(problem: ControlProblem, policy, t0: float, x0, config: SimConfig,
           until: float | None, path_range: tuple[int, int] | None, integrand) -> PathBatch:
    """The Euler-Maruyama step loop, run with ``integrand`` as in :func:`simulate_chunks`.

    Only live rows (not exited, not diverged) draw noise, call the policy
    and the coefficients and advance; the loop stops once none is live.
    Each step applies the exit rule, :func:`_step_exits`.
    """
    end = _end_time(problem, until)
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

    x_start = _start_point(x0, n)
    domain = problem.domain
    if domain is not None:
        if not (domain.signed_distance(x_start)[0] < 0.0):
            raise ValueError(f"initial state {x_start[0]} is not inside the domain")
        if config.exit_rule == "brownian_bridge" and n != 1:
            raise ValueError("the brownian_bridge exit rule is only defined for 1-d domains")
    bridge = domain is not None and config.exit_rule == "brownian_bridge"

    times = t0 + dt * np.arange(n_steps + 1)
    x = np.repeat(x_start, P, axis=0)  # a live row's entry is written back when it stops
    step = integrand(P, times, dt)
    exit_step = np.full(P, -1, dtype=np.int64)
    exit_time = np.full(P, np.nan)
    exit_state = np.full((P, n), np.nan)
    diverged_step = np.full(P, -1, dtype=np.int64)
    # The live rows, compacted whenever a path exits or diverges: chunk-local
    # indices, states, signed distances and rows in the current noise block.
    live, xl = np.arange(P), x.copy()
    sdl = domain.signed_distance(xl) if domain is not None else None
    n_projected = n_evaluated = 0
    block_start = block_end = 0
    block_len = _FIRST_BLOCK if domain is not None else n_steps

    for i in range(n_steps):
        if live.size == 0:
            break
        if i == block_end:
            cap = max(4, _BLOCK_DRAWS // (live.size * m) // 4 * 4)
            block_start, size = i, min(block_len, cap, n_steps - i)
            block_end, block_len = i + size, 2 * block_len
            dW = bridge_u = None  # release the spent blocks first
            dW = gaussian_increments(config.seed, live.size, size, m, dt,
                                     path_offset=lo, rows=live, first_step=i)
            if bridge:
                bridge_u = _bridge_uniforms(config.seed, live.size, size,
                                            path_offset=lo, rows=live, first_step=i)
            slot = np.arange(live.size)
        j = i - block_start
        # While every drawn row is live, a column view replaces the gather.
        rows = slice(None) if slot.size == dW.shape[0] else slot
        t = float(times[i])

        z = np.asarray(policy.controls_at(t, xl, k), dtype=float)
        ok = problem.control_set.contains(z)
        if not ok.all():
            z = np.where(ok[:, None], z, np.asarray(problem.control_set.project(z)))
            n_projected += live.size - int(np.count_nonzero(ok))
        n_evaluated += live.size

        f0 = problem.f0(t, xl)
        f1 = problem.f1(t, xl, z)
        drift = f0 + f1
        diff = problem.diff(t, xl)
        step(i, t, live, xl, z, f1)
        # Overflow here is not an error: non-finite states are flagged below.
        with np.errstate(over="ignore", invalid="ignore"):
            x_next = xl + drift * dt + np.einsum("pnm,pm->pn", diff, dW[rows, j])

        stop = None
        if not np.isfinite(x_next).all():
            stop = ~np.isfinite(x_next).all(axis=1)
            diverged_step[live[stop]] = i + 1
            x_next[stop] = xl[stop]        # frozen at the last finite state
        if domain is not None:
            sd_next = domain.signed_distance(x_next)
            sigma2 = u = None
            if bridge:  # σ² = B Bᵀ, n = 1
                sigma2, u = np.einsum("pnm,pnm->p", diff, diff), bridge_u[rows, j]
            hit, where = _step_exits(domain, xl, x_next, sdl, sd_next, dt, sigma2, u)
            if stop is not None:
                hit &= ~stop
            if hit.any():
                exited = live[hit]
                exit_step[exited] = i + 1
                exit_time[exited] = times[i + 1]
                exit_state[exited] = where[hit]
                stop = hit if stop is None else stop | hit
            sdl = sd_next
        xl = x_next
        if stop is not None:
            x[live[stop]] = xl[stop]
            go = ~stop
            live, xl, slot = live[go], xl[go], slot[go]
            if domain is not None:
                sdl = sdl[go]

    x[live] = xl
    if (diverged_step >= 0).all():
        raise RuntimeError(
            "all paths diverged (non-finite states); the dynamics or dt are pathological"
        )
    if n_projected:
        log.warning(
            "projected %d of %d control evaluations on live paths onto the admissible set U",
            n_projected, n_evaluated,
        )

    return PathBatch(
        times=times, states=None, controls=None, brownian_increments=None,
        exit_step=exit_step, exit_time=exit_time, exit_state=exit_state,
        diverged_step=diverged_step, end_state=x, seed=config.seed, dt=dt, t0=t0,
        path_offset=lo, integrand=step,
    )


# ---------------------------------------------------------------------------
# Exit detection
# ---------------------------------------------------------------------------


def _step_exits(domain: Domain, x_left: np.ndarray, x_right: np.ndarray,
                sd_left: np.ndarray, sd_right: np.ndarray, dt: float,
                sigma2: np.ndarray | None = None, u: np.ndarray | None = None):
    """The exit rule, applied by the step loop to its Euler steps
    ``x_left -> x_right`` (one per row).

    A step exits when ``x_right`` lies in the closure of the complement
    (grid crossing; the exit state is ``x_right`` projected onto the
    boundary).  Otherwise, when bridge uniforms ``u`` are given, a step that
    starts inside exits if ``u < exp(-2 d_l d_r / (σ² dt))`` with
    ``σ² = sigma2 > 0`` (Brownian bridge; the exit state is ``x_left``
    projected).  Returns the exit mask and the exit states (nan elsewhere),
    or ``None`` for the states when no row exits.
    """
    crossed = hit = sd_right >= 0.0
    fired = None
    if u is not None:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            pcross = np.exp(-2.0 * sd_left * sd_right / (sigma2 * dt))
        fired = ~crossed & (sd_left < 0.0) & (sigma2 > 0.0) & (u < pcross)
        hit = crossed | fired
    if not hit.any():  # the usual step: no exit state to build
        return hit, None
    states = np.full(x_right.shape, np.nan)
    if crossed.any():
        states[crossed] = domain.project_to_boundary(x_right[crossed])
    if fired is not None and fired.any():
        states[fired] = domain.project_to_boundary(x_left[fired])
    return hit, states


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def dump_paths_csv(batch: PathBatch, path: str) -> None:
    """Write paths as CSV: ``path,step,t,x1..xn,z1..zk,exited``.

    One row per path and step, 0 to ``n_steps``; the terminal row has no
    control (columns written as nan).  ``exited`` is 1
    from the exit step onward; a stopped path repeats its end state and its
    last applied control (see :class:`PathBatch`).
    """
    n = batch.states.shape[2]
    k = batch.controls.shape[2]
    header = ["path", "step", "t"] + [f"x{j+1}" for j in range(n)] + \
             [f"z{j+1}" for j in range(k)] + ["exited"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for p in range(batch.n_paths):
            ex = batch.exit_step[p]
            for s in range(batch.n_steps + 1):
                row = [str(batch.path_offset + p), str(s), _fmt(batch.times[s])]
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
