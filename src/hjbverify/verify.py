"""Monte Carlo verification of control policies via the fundamental identity.

For a candidate value function v and an admissible policy z, the identity

    J(t0, x0; z) = v(t0, x0) + E ∫_{t0}^{T ∧ τ} [H_cv(s, y, ∂x v; z) − H0(s, y, ∂x v)] ds

(written in the canonical minimize orientation) decomposes the policy's cost
into the candidate value plus the expected time integral of the pointwise
duality gap.  Both sides are estimated on *common random numbers*: the same
simulated paths feed the cost and the gap integral, so the identity defect is
a paired statistic whose Monte Carlo error is far smaller than either term's
own.

The gap integral is exactly the policy's suboptimality, which turns the
identity into a certificate: a gap statistically indistinguishable from zero
certifies optimality up to tolerance, and a significantly positive one
quantifies the loss.  :func:`certify` runs the check on either horizon: for
discounted infinite-horizon problems over a truncated window [t0, T1] (its
``until``) with the tail E[e^{−rate(T1−t0)} v(y(T1))] folded in explicitly.
:func:`estimate_cost` runs the same simulation without a candidate.

The identity uses a candidate v only through v and ∂ₓv.  The candidate
contract: ``value_at(t, x)`` and ``gradient_at(t, x)`` take a (P, n) batch of
states and return shapes (P,) and (P, n), in the problem's declared sense (a
scalar, a single point or a batch of the wrong width raises ValueError);
``grid`` is a field's :class:`~hjbverify.hjb.Grid1D`, or None for a closed
form (Δx = 0, no grid-escape check); ``provenance`` is a string,
"closed_form" for a closed form.  The two kinds of candidate are
:class:`~hjbverify.hjb.SpaceTimeField` (n = 1) and :class:`ClosedFormValue`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import batch_call, probe_batch
from .hamiltonian import _clamped_gap, _minimize_batch
from .problem import ControlProblem, DiscountedInfinite, canonicalize
from .sde import PathBatch, SimConfig, _end_time, _start_point, simulate_chunks

__all__ = [
    "CostEstimate",
    "IdentityReport",
    "Certificate",
    "ClosedFormValue",
    "estimate_cost",
    "certify",
    "VERDICT_OPTIMAL",
    "VERDICT_SUBOPTIMAL",
    "VERDICT_INCONCLUSIVE",
]

log = logging.getLogger(__name__)

_CHUNK = 4096                  # paths per streamed chunk of estimate_cost and certify
_MAX_DISCARD_FRACTION = 1e-3   # diverged-path budget before erroring out
_MAX_ESCAPE_FRACTION = 1e-3    # grid-escape budget for field-backed candidates

VERDICT_OPTIMAL = "optimal_within_tolerance"
VERDICT_SUBOPTIMAL = "suboptimal"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CostEstimate:
    """Sample mean and standard error of a per-path functional.

    ``std_error`` is the sample standard deviation divided by sqrt(n_paths);
    ``discarded_diverged`` counts paths dropped for non-finite states (more
    than 0.1% of the total is an error, never a silent bias).
    """

    mean: float
    std_error: float
    n_paths: int
    discarded_diverged: int


@dataclass(frozen=True)
class IdentityReport:
    """One fundamental-identity check: J = v + E∫ gap, with a paired defect.

    It is the ``evidence`` of a :class:`Certificate`.  ``cost`` and
    ``v_at_start`` are reported in the problem's declared sense;
    ``gap_integral`` is sense-independent and nonnegative up to Monte Carlo
    noise.  ``identity_defect`` is computed in the canonical minimize
    orientation, |Ĵ_min − v_min − ĝap|, estimated pathwise on common random
    numbers — for maximize problems the displayed accounting therefore reads
    v ≈ Ĵ + gap.  ``passed`` ⇔ identity_defect ≤ tolerance_used and, for a
    discounted problem, tail_bound ≤ tolerance_used.

    ``tail_magnitude``/``tail_bound`` are populated for discounted problems
    only: the truncation tail E[e^{−rate(T1−t0)} v] and its a-priori bound
    e^{−rate(T1−t0)}·sup|v| over the sampled end states.
    """

    v_at_start: float
    cost: CostEstimate
    gap_integral: CostEstimate
    identity_defect: float
    tolerance_used: float
    passed: bool
    notes: tuple[str, ...] = ()
    tail_magnitude: float | None = None
    tail_bound: float | None = None


@dataclass(frozen=True)
class Certificate:
    """Optimality verdict backed by an :class:`IdentityReport`.

    ``optimality_margin`` is the gap-integral mean — by the identity, exactly
    the policy's suboptimality J − v, and equal to J − V when the candidate v
    is the true value function.  Verdicts:

    * ``optimal_within_tolerance`` — identity passed and the margin is within
      3·SE plus the declared tolerance of zero;
    * ``suboptimal`` — identity passed and the margin exceeds that threshold;
    * ``inconclusive`` — the identity check itself failed (for instance a
      tolerance below the Monte Carlo noise), so no verdict is claimed.

    ``necessity_fraction``, when requested, is the fraction of simulated
    (path, step) points whose pointwise gap exceeds the deterministic
    allowance; for a truly optimal policy this must be ~0 — *conditional on
    the candidate v being the value function*.
    """

    verdict: str
    optimality_margin: float
    evidence: IdentityReport
    lower_bound_note: str
    necessity_fraction: float | None = None


@dataclass(frozen=True)
class ClosedFormValue:
    """A closed-form candidate under the candidate contract of this module.

    ``value_fn(t, x)`` and ``gradient_fn(t, x)`` get the (P, n) batch given
    to ``value_at``/``gradient_at`` and return (P,) and (P, n) in the
    problem's declared sense (a (P,) gradient is read as (P, 1)); any other
    shape raises ValueError, and a callable that takes one point at a time is
    wrapped in :func:`~hjbverify.rowwise`.  A scalar or a single point raises
    ValueError.  ``grid`` is None.
    """

    value_fn: Callable
    gradient_fn: Callable

    grid = None
    provenance = "closed_form"

    def value_at(self, t, x):
        x = probe_batch(x)
        return batch_call(self.value_fn, t, x, expect_shape=(x.shape[0],), label="value_fn")

    def gradient_at(self, t, x):
        x = probe_batch(x)
        return batch_call(self.gradient_fn, t, x, expect_shape=x.shape, label="gradient_fn")


# ---------------------------------------------------------------------------
# The Monte Carlo run
# ---------------------------------------------------------------------------


@dataclass
class _ChunkTerms:
    cost: np.ndarray               # (K,) canonical per-path cost, tail term included
    gap: np.ndarray                # (K,) per-path gap integral (zeros without a source)
    tail: np.ndarray               # (K,) canonical tail term e^{-rate T1} v(y(T1)) (zeros without one)
    n_discarded: int               # paths dropped for non-finite states
    n_escaped: int                 # retained paths some state of which left the field grid
    n_points: int                  # live (path, step) points seen by the gap scan
    n_violations: int              # points with gap > pointwise allowance
    v_end_max: float               # max |v| over sampled end states (tail bound)


def _orientation(problem: ControlProblem) -> tuple[float, float | None]:
    """The sign into the canonical minimize sense, and the discount rate (None if finite)."""
    flip = -1.0 if problem.sense == "maximize" else 1.0
    rate = problem.horizon.rate if isinstance(problem.horizon, DiscountedInfinite) else None
    return flip, rate


def _quadrature_weights(times: np.ndarray, dt: float, rate: float | None) -> np.ndarray:
    """Per-step weights: dt, or the exact integral of e^{−rate(s−t0)} per step."""
    if rate is None:
        return np.full(times.shape[0] - 1, dt)
    t = times - times[0]
    return (np.exp(-rate * t[:-1]) - np.exp(-rate * t[1:])) / rate


class _Integrand:
    """Running cost and gap integrals of one chunk, advanced on each Euler step.

    The step loop calls it with the live rows only, before they move
    (left-endpoint quadrature, exact discount weights per step), so both
    integrals stop at the exit step (τ ∧ T).  H_cv reuses the step's f1.
    Rows of paths that diverge later are accumulated too and dropped by
    :func:`_chunk_terms`; violations are counted per path for that reason.
    """

    def __init__(self, prob_min: ControlProblem, source, flip: float, weights: np.ndarray,
                 bounds: tuple[float, float] | None, point_tol: float, n_paths: int):
        self.prob, self.source, self.flip, self.w = prob_min, source, flip, weights
        self.bounds, self.point_tol = bounds, point_tol
        self.cost = np.zeros(n_paths)
        self.gap = np.zeros(n_paths)
        self.violations = np.zeros(n_paths, dtype=np.int64)
        self.escaped = np.zeros(n_paths, dtype=bool)

    def __call__(self, i: int, t: float, rows: np.ndarray, x: np.ndarray, z: np.ndarray,
                 f1: np.ndarray) -> None:
        if rows.size == self.cost.size:
            rows = slice(None)  # every path live: update in place, skip the gather/scatter
        ell = self.prob.cost_rate(t, x, z)
        self.cost[rows] += self.w[i] * ell
        if self.source is None:
            return
        if self.bounds is not None:
            self.escaped[rows] |= (x[:, 0] < self.bounds[0]) | (x[:, 0] > self.bounds[1])
        p = self.source.gradient_at(t, x)
        if self.flip != 1.0:
            p = self.flip * p
        hcv = np.einsum("pn,pn->p", f1, p) + ell
        h0, _ = _minimize_batch(self.prob, t, x, p)
        hcv -= h0
        g = _clamped_gap(hcv, h0)
        self.gap[rows] += self.w[i] * g
        self.violations[rows] += g > self.point_tol


def _chunk_terms(
    prob_min: ControlProblem,
    batch: PathBatch,
    source,
    flip: float,
    rate: float | None,
) -> _ChunkTerms:
    """Per-path terms of the retained (never diverged) rows of one streamed chunk.

    Takes the integrals the chunk's :class:`_Integrand` accumulated and adds
    the terminal or boundary payment for finite-horizon problems, the
    discounted tail when a candidate ``source`` is given.
    """
    acc = batch.integrand
    keep = batch.diverged_step < 0
    exit_step = batch.exit_step[keep]
    exit_state = batch.exit_state[keep]
    end_state = batch.end_state[keep]
    times = batch.times
    K, S = exit_step.shape[0], batch.n_steps
    cost = acc.cost[keep]
    tail = np.zeros(K)
    v_end_max = 0.0
    if rate is None:
        exited = exit_step >= 0
        for e in np.unique(exit_step[exited]):
            m = exit_step == e
            cost[m] += prob_min.boundary(float(times[e]), exit_state[m])
        if (~exited).any():
            cost[~exited] += prob_min.terminal(end_state[~exited])
    elif source is not None:
        t_end = float(times[-1])
        v_end = flip * source.value_at(t_end, end_state)
        if not np.all(np.isfinite(v_end)):
            raise ValueError(
                "the candidate value function is non-finite at sampled end "
                "states; the discounted tail term cannot be formed"
            )
        v_end_max = float(np.max(np.abs(v_end))) if K else 0.0
        tail = math.exp(-rate * (t_end - batch.t0)) * v_end
        cost += tail

    n_points = int(np.sum(np.where(exit_step >= 0, exit_step, S))) if source is not None else 0
    return _ChunkTerms(cost=cost, gap=acc.gap[keep], tail=tail,
                       n_discarded=batch.n_paths - K,
                       n_escaped=int(np.sum(acc.escaped[keep])),
                       n_points=n_points,
                       n_violations=int(np.sum(acc.violations[keep])),
                       v_end_max=v_end_max)


def _monte_carlo(
    problem: ControlProblem,
    source,
    policy,
    t0: float,
    x0,
    sim_config: SimConfig,
    until: float | None,
    c1: float = 0.0,
    c2: float = 0.0,
) -> tuple[_ChunkTerms, float, float]:
    """The one Monte Carlo run behind every estimator: its terms, the field's Δx and step dt.

    Each chunk of paths is streamed through an :class:`_Integrand` (with the
    gap scan iff a candidate ``source`` is given) and the chunks' terms are
    reduced in chunk order.  Raises when more than 0.1% of the paths diverged
    or, for a field-backed ``source``, left its grid.
    """
    prob = canonicalize(problem)
    flip, rate = _orientation(problem)
    grid = None if source is None else source.grid
    bounds = (grid.x_min, grid.x_max) if grid is not None else None
    dx = grid.dx if grid is not None else 0.0

    def integrand(n_paths, times, dt):
        return _Integrand(prob, source, flip, _quadrature_weights(times, dt, rate), bounds,
                          c1 * dx + c2 * math.sqrt(dt), n_paths)

    chunks: list[_ChunkTerms] = []
    for batch in simulate_chunks(problem, policy, t0, x0, sim_config, until=until,
                                 chunk_size=_CHUNK, integrand=integrand):
        chunks.append(_chunk_terms(prob, batch, source, flip, rate))
        dt = batch.dt
    run = _ChunkTerms(
        cost=np.concatenate([c.cost for c in chunks]),
        gap=np.concatenate([c.gap for c in chunks]),
        tail=np.concatenate([c.tail for c in chunks]),
        n_discarded=sum(c.n_discarded for c in chunks),
        n_escaped=sum(c.n_escaped for c in chunks),
        n_points=sum(c.n_points for c in chunks),
        n_violations=sum(c.n_violations for c in chunks),
        v_end_max=max(c.v_end_max for c in chunks),
    )

    total = sim_config.n_paths
    if run.n_discarded / total > _MAX_DISCARD_FRACTION:
        raise RuntimeError(
            f"{run.n_discarded} of {total} paths diverged (> 0.1%); decrease dt or "
            f"check the problem dynamics before trusting any estimate"
        )
    if run.n_escaped / total > _MAX_ESCAPE_FRACTION:
        raise RuntimeError(
            f"{run.n_escaped} of {total} paths left the candidate field's grid "
            f"[{bounds[0]}, {bounds[1]}] (> 0.1%); solve on a larger grid"
        )
    return run, dx, dt


def _estimate(values: np.ndarray, discarded: int, sign: float = 1.0) -> CostEstimate:
    """Sample mean (times ``sign``) and standard error of per-path values."""
    n = values.size
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return CostEstimate(mean=sign * float(np.mean(values)), std_error=se, n_paths=int(n),
                        discarded_diverged=discarded)


# ---------------------------------------------------------------------------
# Cost estimation
# ---------------------------------------------------------------------------


def estimate_cost(
    problem: ControlProblem,
    policy,
    t0: float,
    x0,
    sim_config: SimConfig,
    until: float | None = None,
) -> CostEstimate:
    """Monte Carlo estimate of the cost functional J(t0, x0; policy).

    Per path: left-endpoint quadrature of the running cost on the simulation
    grid up to T ∧ τ, plus the terminal cost at T for surviving paths or the
    boundary cost at (τ, y(τ)) for paths that exit the domain first;
    ``until`` is rejected.  Discounted problems need ``until``, the
    truncation time, and integrate e^{−rate(s−t0)}·l1 with exact per-step
    discount weights over [t0, until] — truncated, with no tail correction
    (:func:`certify` checks the tail-corrected identity over [t0, until]).

    Maximize-sense problems report the original-sign value.  Diverged paths
    are discarded and counted; a discarded fraction above 0.1% raises.
    """
    run, _, _ = _monte_carlo(problem, None, policy, t0, x0, sim_config, until)
    return _estimate(run.cost, run.n_discarded, sign=_orientation(problem)[0])


# ---------------------------------------------------------------------------
# The fundamental identity
# ---------------------------------------------------------------------------


def certify(
    problem: ControlProblem,
    source,
    policy,
    t0: float,
    x0,
    sim_config: SimConfig,
    *,
    until: float | None = None,
    c1: float = 1.0,
    c2: float = 1.0,
    tolerance: float | None = None,
    necessity_scan: bool = False,
    ladder=None,
) -> Certificate:
    """Check J = v + E∫ gap ds on common random numbers and certify the policy.

    ``source`` is the candidate value function under the candidate contract
    of this module: a solved :class:`~hjbverify.hjb.SpaceTimeField` (linear
    interpolation in x, piecewise-constant-from-the-left in t) or a
    :class:`ClosedFormValue`.  Cost and gap integral are
    evaluated along the *same* paths, so the defect |Ĵ − v − ĝap| is a paired
    statistic; the certificate's ``evidence`` reports it.

    Finite-horizon problems run to T and reject ``until``.  Discounted
    problems need ``until``, the truncation time T1: the per-path cost
    includes the exact per-step discount weights *and* the tail term
    e^{−rate(T1−t0)} v(y(T1)), so for bounded v the truncation error is at
    most e^{−rate(T1−t0)}·sup|v| — the realized tail magnitude and that bound
    are both reported, and a bound above the tolerance fails the identity
    with advice to raise T1.  A field whose time grid does not cover
    [t0, T] (or [t0, T1]) raises.

    The tolerance is 3·SE(paired defect) + c1·Δx + c2·sqrt(dt) — statistical
    noise plus declared discretization allowance (Δx = 0 for closed-form
    sources); an explicit ``tolerance`` replaces the whole formula.  States
    escaping a field-backed grid are flagged per path; more than 0.1% raises
    with advice to solve on a larger grid.

    If the identity check fails the verdict is ``inconclusive`` (never a
    false positive); otherwise the margin (gap mean) is compared against
    3·SE(gap) plus the allowance (or the explicit ``tolerance``).
    ``ladder`` may be an :class:`~hjbverify.hjb.ApproximationLadder` (or a
    bool): only a passed identity check together with a *passed* ladder, or
    with a closed-form source, justifies reading the candidate as a
    strong-solution proxy whose value lower-bounds every policy — the
    certificate's ``lower_bound_note`` records exactly what is claimed.
    With ``necessity_scan`` the fraction of (path, step) points
    whose pointwise gap exceeds the allowance is reported; for an optimal
    policy it must be ~0, conditional on the candidate being the true value
    function.  ``c1``, ``c2`` and ``tolerance`` must be finite and
    non-negative (ValueError naming the parameter): an infinite allowance
    would certify any policy.
    """
    for name, value in (("c1", c1), ("c2", c2), ("tolerance", tolerance)):
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
    flip, rate = _orientation(problem)
    end = _end_time(problem, until)
    grid = source.grid
    if grid is not None and not (grid.t0 <= t0 + 1e-12 * (1.0 + abs(t0))
                                 and grid.t_final >= end - 1e-12 * (1.0 + abs(end))):
        raise ValueError(f"the candidate field's time grid [{grid.t0}, {grid.t_final}] "
                         f"does not cover the run [{t0}, {end}]")
    v_orig = float(source.value_at(t0, _start_point(x0, problem.dimension))[0])

    run, dx, dt = _monte_carlo(problem, source, policy, t0, x0, sim_config, until, c1, c2)
    allowance = c1 * dx + c2 * math.sqrt(dt)
    notes: list[str] = []
    if run.n_escaped:
        notes.append(
            f"{run.n_escaped} of {sim_config.n_paths} paths left the field grid; "
            f"gradients were clamped to the nearest edge value"
        )

    tail_magnitude = None
    tail_bound = None
    if rate is not None:
        tail_magnitude = abs(float(np.mean(run.tail)))
        tail_bound = math.exp(-rate * (end - t0)) * run.v_end_max
        if run.v_end_max > 1e8:
            log.warning(
                "candidate value reaches |v| = %.3e on sampled end states; "
                "the boundedness assumption behind the tail bound looks shaky",
                run.v_end_max,
            )
        notes.append(
            f"truncation tail {tail_magnitude:.6e} <= bound {tail_bound:.6e} "
            f"= e^(-rate*T1) * sup|v| over sampled end states"
        )

    paired = _estimate(run.cost - run.gap, run.n_discarded)
    defect = abs(paired.mean - flip * v_orig)
    tol_used = float(tolerance) if tolerance is not None else 3.0 * paired.std_error + allowance
    passed = defect <= tol_used
    log.info(
        "identity defect %.3e vs tolerance %.3e (3*SE_paired=%.3e, c1*dx=%.3e, "
        "c2*sqrt(dt)=%.3e%s)",
        defect, tol_used, 3.0 * paired.std_error, c1 * dx, c2 * math.sqrt(dt),
        "; overridden" if tolerance is not None else "",
    )
    if rate is not None and tail_bound > tol_used:
        passed = False
        notes.append(
            "the truncation tail bound exceeds the tolerance: raise "
            "truncation_T1 until e^(-rate*T1)*sup|v| is negligible"
        )

    gap = _estimate(run.gap, run.n_discarded)
    report = IdentityReport(
        v_at_start=v_orig,
        cost=_estimate(run.cost, run.n_discarded, sign=flip),
        gap_integral=gap,
        identity_defect=defect,
        tolerance_used=tol_used,
        passed=passed,
        notes=tuple(notes),
        tail_magnitude=tail_magnitude,
        tail_bound=tail_bound,
    )
    margin_tol = 3.0 * gap.std_error + (float(tolerance) if tolerance is not None else allowance)
    if not passed:
        verdict = VERDICT_INCONCLUSIVE
    elif gap.mean <= margin_tol:
        verdict = VERDICT_OPTIMAL
    else:
        verdict = VERDICT_SUBOPTIMAL
    necessity = (run.n_violations / run.n_points) if run.n_points else 0.0
    return Certificate(
        verdict=verdict,
        optimality_margin=gap.mean,
        evidence=report,
        lower_bound_note=_lower_bound_note(source, ladder, passed),
        necessity_fraction=necessity if necessity_scan else None,
    )


def _lower_bound_note(source, ladder, passed: bool) -> str:
    if not passed:
        return (
            "v <= V not asserted: the identity check did not pass, so the "
            "candidate is not evidence of a lower bound on the cost."
        )
    ladder_passed = None
    if ladder is not None:
        ladder_passed = bool(getattr(ladder, "passed", ladder))
    if ladder_passed:
        return (
            "v <= V applies: the refinement ladder passed, so the candidate is "
            "treated as a strong-solution proxy and its value at (t0, x0) "
            "lower-bounds the cost of every admissible policy."
        )
    if ladder_passed is None and source.grid is None:
        return (
            "v <= V applies: the candidate is a closed-form solution, so its "
            "value at (t0, x0) lower-bounds the cost of every admissible policy."
        )
    if ladder_passed is None:
        return (
            "v <= V not asserted: no passed refinement ladder was supplied for "
            "the candidate field, so the margin is relative to v only."
        )
    return (
        "v <= V not asserted: the supplied refinement ladder failed, so the "
        "candidate cannot be read as a strong-solution proxy."
    )

