"""Simulation: reproducibility, Euler recurrence, exits, divergence."""

import logging
import math

import numpy as np
import pytest
from scipy.special import ndtri

from hjbverify import (
    ConstantPolicy,
    ControlProblem,
    ControlSet,
    Domain,
    FeedbackPolicy,
    FiniteHorizon,
    OpenLoopPolicy,
    SimConfig,
    advertising_feedback,
    dump_paths_csv,
    gaussian_increments,
    rowwise,
    simulate,
    simulate_chunks,
)
from hjbverify.sde import _bridge_uniforms, _open_unit, _step_exits, _stream_uniforms

ZERO = ConstantPolicy(0.0)


def _no_op(n_paths, times, dt):
    """An integrand that records nothing."""
    return lambda i, t, rows, x, z, f1: None


def _euler_defect(batch, problem) -> float:
    """Max relative defect of a stored batch's Euler recurrence.

    Replays states[i+1] = states[i] + (F0 + F1) dt + B ΔW from the stored
    controls and increments, over steps strictly before divergence and up
    to (including) the exit step.
    """
    worst = 0.0
    for i in range(batch.n_steps):
        live = (batch.exit_step < 0) | (i < batch.exit_step)
        live &= (batch.diverged_step < 0) | (i + 1 < batch.diverged_step)
        if not np.any(live):
            break
        t = float(batch.times[i])
        x = batch.states[live, i]
        z = batch.controls[live, i]
        drift = problem.f0(t, x) + problem.f1(t, x, z)
        diff = problem.diff(t, x)
        pred = x + drift * batch.dt + np.einsum("pnm,pm->pn", diff,
                                                batch.brownian_increments[live, i])
        nxt = batch.states[live, i + 1]
        worst = max(worst, float(np.max(np.abs(pred - nxt) / (1.0 + np.abs(nxt)))))
    return worst


def _drift_problem(f0, diffusion=None, horizon=1.0, terminal=None, **overrides):
    kwargs = dict(
        dimension=1,
        noise_dimension=1,
        horizon=FiniteHorizon(horizon, terminal or (lambda x: np.zeros(x.shape[0]))),
        drift_uncontrolled=f0,
        drift_controlled=lambda t, x, z: np.zeros_like(x),
        diffusion=diffusion or (lambda t, x: np.ones(x.shape + (1,))),
        running_cost=lambda t, x, z: np.zeros(x.shape[0]),
        control_set=ControlSet.finite([[0.0]]),
    )
    kwargs.update(overrides)
    return ControlProblem(**kwargs)


def _assert_stopped_tails(batch, stop):
    """A path stopped at step s stores its end state at steps >= s and
    repeats its last applied control, controls[p, s-1], at steps s..n_steps-1."""
    assert np.any(stop >= 0)
    for p in np.flatnonzero(stop >= 0):
        s = stop[p]
        assert np.all(batch.states[p, s:] == batch.end_state[p])
        assert np.all(batch.controls[p, s:] == batch.controls[p, s - 1])


# A control that moves with t and x, so a stored control shows where the
# policy was evaluated (the dynamics ignore it); arctan keeps t visible at
# near-overflow states.
MOVING = FeedbackPolicy(lambda t, x: t + np.arctan(x[:, 0]))
FREE = ControlSet.box([-np.inf], [np.inf])


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="dt"):
            SimConfig(dt=-0.1, n_paths=10, seed=0)
        with pytest.raises(ValueError, match="n_paths"):
            SimConfig(dt=0.1, n_paths=0, seed=0)
        with pytest.raises(ValueError, match="exit rule"):
            SimConfig(dt=0.1, n_paths=10, seed=0, exit_rule="levy")

    def test_n_paths_must_be_an_integer(self):
        with pytest.raises(TypeError, match="n_paths must be an integer"):
            SimConfig(dt=0.1, n_paths=3.0, seed=0)
        assert SimConfig(dt=0.1, n_paths=np.int64(3), seed=0).n_paths == 3

    @pytest.mark.parametrize("seed", [0.9, np.float64(7.5), 2.0])
    def test_float_seed_rejected(self, seed):
        with pytest.raises(TypeError, match="seed must be an integer"):
            SimConfig(dt=0.01, n_paths=4, seed=seed)

    def test_integer_seeds_reduce_mod_2_64(self):
        assert SimConfig(dt=0.01, n_paths=4, seed=np.int64(7)).seed == 7
        assert SimConfig(dt=0.01, n_paths=4, seed=-1).seed == 2**64 - 1
        assert SimConfig(dt=0.01, n_paths=4, seed=2**64 + 5).seed == 5

    def test_dt_must_resolve_horizon(self):
        prob = _drift_problem(lambda t, x: -x)
        with pytest.raises(ValueError, match="horizon/10"):
            simulate(prob, ZERO, 0.0, 1.0, SimConfig(dt=0.2, n_paths=4, seed=0))

    def test_finite_horizon_rejects_until(self):
        # A finite run ends at T: an earlier `until` would charge the
        # terminal cost at the wrong time.
        prob = _drift_problem(lambda t, x: np.zeros_like(x))
        with pytest.raises(ValueError, match="`until` is the truncation time of discounted"):
            simulate(prob, ZERO, 0.0, 0.0, SimConfig(dt=0.01, n_paths=4, seed=0), until=0.25)


class TestDeterministicDynamics:
    def test_exponential_decay(self):
        prob = _drift_problem(lambda t, x: -x,
                              diffusion=lambda t, x: np.zeros(x.shape + (1,)))
        batch = simulate(prob, ZERO, 0.0, 1.0, SimConfig(dt=1e-4, n_paths=2, seed=1))
        final = batch.states[:, -1, 0]
        assert np.all(np.abs(final - math.exp(-1.0)) <= 2e-4)

    def test_initial_state_exact(self):
        prob = _drift_problem(lambda t, x: -x)
        batch = simulate(prob, ZERO, 0.5, 1.7, SimConfig(dt=0.01, n_paths=5, seed=2))
        assert np.all(batch.states[:, 0, 0] == 1.7)
        assert batch.times[0] == 0.5


class TestReproducibility:
    def test_identical_runs_bitwise(self, adv_problem):
        cfg = SimConfig(dt=0.01, n_paths=16, seed=99)
        a = simulate(adv_problem, ConstantPolicy(0.3), 0.0, 2.0, cfg)
        b = simulate(adv_problem, ConstantPolicy(0.3), 0.0, 2.0, cfg)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.brownian_increments, b.brownian_increments)

    def test_path_range_tiles_global_stream(self, adv_problem):
        cfg = SimConfig(dt=0.01, n_paths=32, seed=7)
        full = simulate(adv_problem, ZERO, 0.0, 2.0, cfg)
        lo = simulate(adv_problem, ZERO, 0.0, 2.0, cfg, path_range=(0, 10))
        hi = simulate(adv_problem, ZERO, 0.0, 2.0, cfg, path_range=(10, 32))
        assert np.array_equal(full.states[:10], lo.states)
        assert np.array_equal(full.states[10:], hi.states)
        assert hi.path_offset == 10

    def test_chunked_equals_monolithic(self, adv_problem):
        # Without a domain every noise block is as long as the cap allows.
        cfg = SimConfig(dt=0.01, n_paths=25, seed=5)
        full = simulate(adv_problem, ZERO, 0.0, 2.0, cfg)
        chunks = list(simulate_chunks(adv_problem, ZERO, 0.0, 2.0, cfg, chunk_size=8,
                                      integrand=_no_op))
        assert [c.path_offset for c in chunks] == [0, 8, 16, 24]
        for name in ("exit_step", "diverged_step", "end_state"):
            assert np.array_equal(np.concatenate([getattr(c, name) for c in chunks]),
                                  getattr(full, name)), name
        assert np.array_equal(full.end_state, full.states[:, -1])

    def test_gaussian_increments_split_invariant(self):
        whole = gaussian_increments(seed=3, n_paths=6, n_steps=50, m=1, dt=0.01)
        part = gaussian_increments(seed=3, n_paths=3, n_steps=50, m=1, dt=0.01,
                                   path_offset=3)
        assert np.array_equal(whole[3:], part)

    @pytest.mark.parametrize("m", [1, 3])
    def test_blocks_for_a_subset_of_paths_are_slices_of_the_full_draw(self, m):
        full = gaussian_increments(seed=21, n_paths=12, n_steps=40, m=m, dt=0.01)
        full_u = _bridge_uniforms(21, 12, 40)
        rows = np.array([1, 4, 5, 9])
        for first, size in ((0, 16), (16, 20), (8, 4), (5, 7), (36, 4)):
            dw = gaussian_increments(seed=21, n_paths=4, n_steps=size, m=m, dt=0.01,
                                     path_offset=2, rows=rows - 2, first_step=first)
            assert np.array_equal(dw, full[rows, first:first + size])
            u = _bridge_uniforms(21, 4, size, path_offset=2, rows=rows - 2, first_step=first)
            assert np.array_equal(u, full_u[rows, first:first + size])

    @pytest.mark.parametrize("n_paths, n_steps", [(4, 0), (0, 5), (0, 0)])
    def test_an_empty_block_is_the_empty_slice_of_the_full_draw(self, n_paths, n_steps):
        dw = gaussian_increments(1, n_paths, n_steps, 1, 1e-3, first_step=3)
        assert dw.shape == (n_paths, n_steps, 1)
        assert _bridge_uniforms(1, n_paths, n_steps, first_step=3).shape == (n_paths, n_steps)

    @pytest.mark.parametrize("start", [0, 5, 7])
    def test_uniforms_are_the_midpoints_of_the_raw_philox_draws(self, start):
        # Position i of path r's stream is ((raw_i >> 11) + 0.5)·2⁻⁵³ with
        # raw the Philox4x64 output keyed (seed, r), counter from 0.
        rows = np.array([0, 3])
        u = _stream_uniforms(9, 2, 40, rows, start, 6)
        for j, r in enumerate(rows):
            gen = np.random.Philox(key=[9, 40 + r])
            raw = gen.random_raw(start + 6)[start:]
            want = ((raw >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53
            assert np.array_equal(u[j], want)

    def test_top_uniform_stays_below_one(self):
        # k = 2⁵³ − 1 gives k + ½ = 2⁵³ − ½, which rounds to 2⁵³: a "uniform"
        # of exactly 1.0, an infinite Gaussian and a path counted as diverged.
        u = _open_unit(np.array([1.0 - 2.0**-53, 0.0, 0.5]))
        assert u[0] == np.nextafter(1.0, 0.0) and u[1] == 2.0**-54 and u[2] == 0.5 + 2.0**-54
        assert np.all(np.isfinite(ndtri(u)))

    def test_streamed_batches_store_no_path_tensors(self, exit_time_problem):
        cfg = SimConfig(dt=0.01, n_paths=30, seed=4, exit_rule="brownian_bridge")
        seen = []

        def integrand(n_paths, times, dt):
            seen.append(n_paths)
            return _no_op(n_paths, times, dt)

        chunks = list(simulate_chunks(exit_time_problem, ZERO, 0.0, 0.5, cfg, chunk_size=16,
                                      integrand=integrand))
        full = simulate(exit_time_problem, ZERO, 0.0, 0.5, cfg)
        assert seen == [16, 14]
        assert all(c.states is None and c.controls is None and c.brownian_increments is None
                   for c in chunks)
        assert [c.n_paths for c in chunks] == [16, 14] and chunks[0].n_steps == full.n_steps
        for name in ("exit_step", "exit_time", "exit_state", "diverged_step", "end_state"):
            assert np.array_equal(np.concatenate([getattr(c, name) for c in chunks]),
                                  getattr(full, name), equal_nan=True), name
        assert np.array_equal(full.end_state, full.states[:, -1])

    def test_increment_moments(self):
        dw = gaussian_increments(seed=0, n_paths=200, n_steps=100, m=1, dt=0.01)
        assert abs(dw.mean()) < 3e-3  # 4 sigma for 20000 N(0, 0.01) samples
        assert abs(dw.var() - 0.01) < 5e-4


class TestEulerRecurrence:
    def test_recompute_residual_tiny(self, adv_problem):
        batch = simulate(adv_problem, ConstantPolicy(0.2), 0.0, 2.0,
                         SimConfig(dt=0.01, n_paths=8, seed=4))
        assert _euler_defect(batch, adv_problem) <= 1e-12

    def test_feedback_controls_causal(self, adv_params, adv_problem):
        policy = FeedbackPolicy(
            lambda t, x: advertising_feedback(adv_params, t, x[:, 0]).reshape(-1, 1))
        batch = simulate(adv_problem, policy, 0.0, 2.0, SimConfig(dt=0.01, n_paths=4, seed=6))
        for i in (0, 10, 50):
            expected = policy.controls_at(batch.times[i], batch.states[:, i], 1)
            assert np.array_equal(batch.controls[:, i], expected)

    def test_open_loop_schedule(self):
        prob = _drift_problem(lambda t, x: np.zeros_like(x),
                              control_set=ControlSet.box([0.0], [2.0]))
        policy = OpenLoopPolicy(times=[0.0, 0.5], controls=[[1.0], [2.0]])
        batch = simulate(prob, policy, 0.0, 0.0, SimConfig(dt=0.05, n_paths=2, seed=8))
        assert np.all(batch.controls[:, :10, 0] == 1.0)
        assert np.all(batch.controls[:, 10:, 0] == 2.0)

    def test_open_loop_controls_need_one_row_per_time(self):
        with pytest.raises(ValueError, match=r"\(len\(times\), k\) array"):
            OpenLoopPolicy(times=[0.0, 0.5], controls=[1.0, 2.0])

    @pytest.mark.parametrize("x0", [[0.1, 0.2], [[0.1], [0.2]], np.zeros((1, 1, 1))])
    def test_x0_must_be_one_starting_point(self, adv_problem, x0):
        with pytest.raises(ValueError, match=r"x0 must be a single starting point: "
                                             r"expected a single point of dimension 1"):
            simulate(adv_problem, ZERO, 0.0, x0, SimConfig(dt=0.1, n_paths=2, seed=0))


class TestFeedbackPolicy:
    def test_rowwise_map_gets_one_state_per_call(self):
        def one_state(t, x):
            if np.ndim(x) != 1:
                raise TypeError("one state at a time")
            return 2.0 * x[0]

        xs = np.array([[1.0], [-0.5], [3.0]])
        policy = FeedbackPolicy(rowwise(one_state))
        first = policy.controls_at(0.0, xs, 1)
        again = policy.controls_at(0.1, xs, 1)
        assert np.array_equal(first, 2.0 * xs) and np.array_equal(again, first)
        # Unwrapped, the map's own error comes out as it was raised.
        with pytest.raises(TypeError, match="^one state at a time$"):
            FeedbackPolicy(one_state).controls_at(0.0, xs, 1)

    def test_first_row_answer_is_not_broadcast(self):
        # On a batch, x[0] is the first row: a size-1 result for P > 1 is
        # not read as every row's control.
        xs = np.array([[1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match=r"policy returned shape \(1,\) for a batch, "
                                             r"expected \(3, 1\); .*hjbverify\.rowwise"):
            FeedbackPolicy(lambda t, x: 2.0 * x[0]).controls_at(0.0, xs, 1)
        out = FeedbackPolicy(rowwise(lambda t, x: 2.0 * x[0])).controls_at(0.0, xs, 1)
        assert np.array_equal(out, 2.0 * xs)

    def test_flat_result_for_one_control_needs_no_fallback(self, caplog):
        calls = []

        def flat(t, x):
            calls.append(x.shape)
            return -x[:, 0]

        xs = np.array([[1.0], [-0.5], [3.0]])
        with caplog.at_level(logging.WARNING, logger="hjbverify"):
            out = FeedbackPolicy(flat).controls_at(0.0, xs, 1)
        assert out.shape == (3, 1) and np.array_equal(out, -xs)
        assert calls == [(3, 1)] and not caplog.records

    def test_flat_result_for_two_controls_is_evaluated_per_row(self):
        # Only a missing last axis of length 1 is reshaped: (P,) is not (P, 2).
        xs = np.array([[1.0], [2.0]])
        with pytest.raises(ValueError, match=r"policy returned shape \(2,\) for a batch, "
                                             r"expected \(2, 2\)"):
            FeedbackPolicy(lambda t, x: x[:, 0]).controls_at(0.0, xs, 2)
        policy = FeedbackPolicy(rowwise(lambda t, x: np.full(2, x[0])))
        assert np.array_equal(policy.controls_at(0.0, xs, 2), [[1.0, 1.0], [2.0, 2.0]])


class TestControlAdmissibility:
    def test_out_of_set_controls_projected_with_warning(self, caplog):
        prob = _drift_problem(lambda t, x: np.zeros_like(x),
                              control_set=ControlSet.box([0.0], [1.0]))
        with caplog.at_level(logging.WARNING):
            batch = simulate(prob, ConstantPolicy(5.0), 0.0, 0.0,
                             SimConfig(dt=0.1, n_paths=2, seed=0))
        assert np.all(batch.controls == 1.0)
        assert any("projected" in rec.message for rec in caplog.records)


class TestDivergence:
    # Coefficients that overflow raise CoefficientError at the callable, so
    # divergence here is driven by the state update: a finite near-max drift
    # pushes x past the float range in a few steps once a threshold is hit.

    def test_divergence_flagged_not_dropped(self):
        prob = _drift_problem(lambda t, x: np.where(x > 0.5, 1.7e308, 0.0),
                              horizon=10.0, control_set=FREE)
        batch = simulate(prob, MOVING, 0.0, 0.0, SimConfig(dt=0.5, n_paths=8, seed=1))
        assert 0 < batch.n_diverged < 8
        p = int(np.argmax(batch.diverged_step >= 0))
        d = batch.diverged_step[p]
        frozen = batch.states[p, d:, 0]
        assert np.all(frozen == frozen[0])  # held at the last finite state
        assert np.all(np.isfinite(batch.states[p]))
        _assert_stopped_tails(batch, batch.diverged_step)

    def test_all_diverged_raises(self):
        prob = _drift_problem(lambda t, x: np.full_like(x, 1.7e308),
                              diffusion=lambda t, x: np.zeros(x.shape + (1,)),
                              horizon=10.0)
        with pytest.raises(RuntimeError, match="all paths diverged"):
            simulate(prob, ZERO, 0.0, 0.0, SimConfig(dt=0.5, n_paths=3, seed=2))


class TestExitDetection:
    def test_states_inside_before_exit(self, exit_time_problem):
        batch = simulate(exit_time_problem, ZERO, 0.0, 0.5,
                         SimConfig(dt=1e-3, n_paths=64, seed=3))
        O = exit_time_problem.domain
        for p in range(batch.n_paths):
            e = batch.exit_step[p]
            if e >= 0:
                pre = batch.states[p, :e, 0]
                assert np.all(O.signed_distance(pre.reshape(-1, 1)) < 0)
                assert batch.exit_state[p, 0] in (0.0, 1.0)
                assert batch.exit_time[p] == pytest.approx(batch.times[e])

    def test_exit_freezes_path(self):
        # dy = dW on (0, 1), as in exit_time_problem, with a free control.
        prob = _drift_problem(lambda t, x: np.zeros_like(x), horizon=3.0, control_set=FREE,
                              domain=Domain.interval(0.0, 1.0),
                              boundary_cost=lambda t, x: np.zeros(x.shape[0]))
        for rule in ("grid_crossing", "brownian_bridge"):
            batch = simulate(prob, MOVING, 0.0, 0.5,
                             SimConfig(dt=1e-3, n_paths=64, seed=3, exit_rule=rule))
            p = int(np.argmax(batch.exit_step >= 0))
            e = batch.exit_step[p]
            tail = batch.states[p, e:, 0]
            assert np.all(tail == tail[0])
            _assert_stopped_tails(batch, batch.exit_step)
            assert _euler_defect(batch, prob) <= 1e-12

    @pytest.mark.parametrize("rule", ["grid_crossing", "brownian_bridge"])
    def test_domain_only_policy_is_called_inside_the_domain(self, exit_time_problem, rule):
        # An exited path's end state is the raw Euler point, outside (0, 1)
        # under grid crossing: the policy must never be evaluated there.
        outside = []

        def inside_only(t, x):
            x = np.asarray(x, dtype=float)
            if np.any((x <= 0.0) | (x >= 1.0)):
                outside.append(x)
                raise ValueError("the policy is defined on (0, 1) only")
            return np.zeros(x.shape[0])

        policy = FeedbackPolicy(inside_only)
        cfg = SimConfig(dt=0.01, n_paths=50, seed=1, exit_rule=rule)
        batch = simulate(exit_time_problem, policy, 0.0, 0.5, cfg)
        streamed = list(simulate_chunks(exit_time_problem, policy, 0.0, 0.5, cfg, chunk_size=16,
                                        integrand=_no_op))
        assert not outside
        assert np.sum(batch.exited) > 40
        for name in ("exit_step", "exit_state", "end_state"):
            assert np.array_equal(np.concatenate([getattr(c, name) for c in streamed]),
                                  getattr(batch, name), equal_nan=True), name

    def test_symmetric_exit_fractions(self, exit_time_problem):
        batch = simulate(exit_time_problem, ZERO, 0.0, 0.5,
                         SimConfig(dt=1e-3, n_paths=4000, seed=10))
        exited = batch.exit_step >= 0
        assert np.mean(exited) > 0.99  # nearly every path leaves (0,1) by t=3
        right = batch.exit_state[exited, 0] == 1.0
        se = math.sqrt(0.25 / exited.sum())
        assert abs(np.mean(right) - 0.5) <= 3 * se + 1e-3

    def test_mean_exit_time_matches_dynkin(self, exit_time_problem):
        # E[tau] for dy = dW from x in (0,1) is x(1-x) = 0.25 at x = 0.5.
        dt = 1e-3
        batch = simulate(exit_time_problem, ZERO, 0.0, 0.5,
                         SimConfig(dt=dt, n_paths=4000, seed=11))
        exited = batch.exit_step >= 0
        taus = batch.exit_time[exited]
        se = taus.std(ddof=1) / math.sqrt(taus.size)
        assert abs(taus.mean() - 0.25) <= max(3 * se, 2 * math.sqrt(dt))

    def test_bridge_detects_near_miss(self):
        # Hug the boundary: crossing probability exp(-2 d d'/sigma^2 dt) ~ 1.
        O = Domain.interval(0.0, 1.0)
        x = np.array([0.4, 1e-6, 1e-6, 0.5]).reshape(-1, 1)
        sd = O.signed_distance(x)
        u = np.random.default_rng(1).random(3)
        hit, where = _step_exits(O, x[:-1], x[1:], sd[:-1], sd[1:], 0.01, np.ones(3), u)
        assert hit.any() and where[np.argmax(hit), 0] == 0.0
        hit, _ = _step_exits(O, x[:-1], x[1:], sd[:-1], sd[1:], 0.01)
        assert not hit.any()

    def test_bridge_exit_state_is_projected_from_the_left_endpoint(self):
        # The bridge fires on the step 0.02 -> 0.6 (u = 0.1 < exp(-1.6)), so
        # the path left near 0, where it was at the start of the step.
        O = Domain.interval(0.0, 1.0)
        x = np.array([0.5, 0.02, 0.6]).reshape(-1, 1)
        sd = O.signed_distance(x)
        hit, where = _step_exits(O, x[:-1], x[1:], sd[:-1], sd[1:], 0.01, np.ones(2),
                                 np.array([0.9, 0.1]))
        assert hit.tolist() == [False, True]  # step 2
        assert where[1, 0] == 0.0

    @pytest.mark.parametrize("rule", ["grid_crossing", "brownian_bridge"])
    def test_step_exits_replays_the_simulator(self, exit_time_problem, rule):
        # Fed the simulator's own bridge uniforms, the exit rule on the
        # stored paths finds every exit at the same step, time and state.
        batch = simulate(exit_time_problem, ZERO, 0.0, 0.5,
                         SimConfig(dt=0.02, n_paths=64, seed=9, exit_rule=rule))
        domain = exit_time_problem.domain
        bridge = rule == "brownian_bridge"
        bridge_fired = 0
        for p in range(batch.n_paths):
            x = batch.states[p]
            sd = domain.signed_distance(x)
            u = _bridge_uniforms(batch.seed, 1, batch.n_steps, path_offset=p)[0]
            hit, where = _step_exits(domain, x[:-1], x[1:], sd[:-1], sd[1:], batch.dt,
                                     np.ones(batch.n_steps) if bridge else None,
                                     u if bridge else None)
            if batch.exit_step[p] < 0:
                assert not hit.any()
                continue
            step = int(np.argmax(hit)) + 1
            assert step == batch.exit_step[p]
            assert batch.times[step] == batch.exit_time[p]
            assert np.array_equal(where[step - 1], batch.exit_state[p])
            bridge_fired += bool(domain.contains(x[step:step + 1])[0])
        assert np.sum(batch.exited) > batch.n_paths // 2
        assert (bridge_fired > 0) == bridge


class TestCsvDump:
    def test_header_and_determinism(self, tmp_path, adv_problem):
        batch = simulate(adv_problem, ConstantPolicy(0.1), 0.0, 2.0,
                         SimConfig(dt=0.05, n_paths=3, seed=12))
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dump_paths_csv(batch, str(f1))
        dump_paths_csv(batch, str(f2))
        lines = f1.read_text().splitlines()
        assert lines[0] == "path,step,t,x1,z1,exited"
        assert len(lines) == 1 + 3 * (batch.n_steps + 1)
        assert f1.read_bytes() == f2.read_bytes()

    def test_values_roundtrip_exactly(self, tmp_path, adv_problem):
        batch = simulate(adv_problem, ConstantPolicy(0.1), 0.0, 2.0,
                         SimConfig(dt=0.05, n_paths=2, seed=13))
        f = tmp_path / "paths.csv"
        dump_paths_csv(batch, str(f))
        row = f.read_text().splitlines()[1].split(",")
        assert float(row[3]) == batch.states[0, 0, 0]
