"""Simulation: reproducibility, Euler recurrence, exits, divergence."""

import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hjbverify import (
    ConstantPolicy,
    ControlProblem,
    ControlSet,
    Domain,
    FeedbackPolicy,
    FiniteHorizon,
    OpenLoopPolicy,
    SimConfig,
    detect_exit,
    dump_paths_csv,
    gaussian_increments,
    simulate,
    simulate_chunks,
)
from hjbverify.sde import _bridge_uniforms

ZERO = ConstantPolicy(0.0)


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


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="dt"):
            SimConfig(dt=-0.1, n_paths=10, seed=0)
        with pytest.raises(ValueError, match="n_paths"):
            SimConfig(dt=0.1, n_paths=0, seed=0)
        with pytest.raises(ValueError, match="exit rule"):
            SimConfig(dt=0.1, n_paths=10, seed=0, exit_rule="levy")

    def test_dt_must_resolve_horizon(self):
        prob = _drift_problem(lambda t, x: -x)
        with pytest.raises(ValueError, match="horizon/10"):
            simulate(prob, ZERO, 0.0, 1.0, SimConfig(dt=0.2, n_paths=4, seed=0))


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
        cfg = SimConfig(dt=0.01, n_paths=25, seed=5)
        full = simulate(adv_problem, ZERO, 0.0, 2.0, cfg)
        chunks = list(simulate_chunks(adv_problem, ZERO, 0.0, 2.0, cfg, chunk_size=8))
        stitched = np.concatenate([c.states for c in chunks], axis=0)
        assert np.array_equal(full.states, stitched)

    def test_gaussian_increments_split_invariant(self):
        whole = gaussian_increments(seed=3, n_paths=6, n_steps=50, m=1, dt=0.01)
        part = gaussian_increments(seed=3, n_paths=3, n_steps=50, m=1, dt=0.01,
                                   path_offset=3)
        assert np.array_equal(whole[3:], part)

    def test_increment_moments(self):
        dw = gaussian_increments(seed=0, n_paths=200, n_steps=100, m=1, dt=0.01)
        assert abs(dw.mean()) < 3e-3  # 4 sigma for 20000 N(0, 0.01) samples
        assert abs(dw.var() - 0.01) < 5e-4


class TestEulerRecurrence:
    def test_recompute_residual_tiny(self, adv_problem):
        batch = simulate(adv_problem, ConstantPolicy(0.2), 0.0, 2.0,
                         SimConfig(dt=0.01, n_paths=8, seed=4))
        assert batch.recompute_residual(adv_problem) <= 1e-12

    def test_feedback_controls_causal(self, adv_problem, adv_solution):
        policy = FeedbackPolicy(lambda t, x: adv_solution.feedback(t, x[:, 0]).reshape(-1, 1))
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
                              horizon=10.0)
        batch = simulate(prob, ZERO, 0.0, 0.0, SimConfig(dt=0.5, n_paths=8, seed=1))
        assert 0 < batch.n_diverged < 8
        p = int(np.argmax(batch.diverged_step >= 0))
        d = batch.diverged_step[p]
        frozen = batch.states[p, d:, 0]
        assert np.all(frozen == frozen[0])  # held at the last finite state
        assert np.all(np.isfinite(batch.states[p]))

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
                rec = batch.exit_record(p)
                assert rec.state[0] in (0.0, 1.0)
                assert rec.time == pytest.approx(batch.times[e])

    def test_exit_freezes_path(self, exit_time_problem):
        batch = simulate(exit_time_problem, ZERO, 0.0, 0.5,
                         SimConfig(dt=1e-3, n_paths=64, seed=3))
        p = int(np.argmax(batch.exit_step >= 0))
        e = batch.exit_step[p]
        tail = batch.states[p, e:, 0]
        assert np.all(tail == tail[0])

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

    def test_bridge_consumes_one_uniform_per_step(self):
        # A path that stays strictly inside: bridge decisions use exactly
        # n_steps uniforms, so a fixed generator state is fully determined.
        O = Domain.interval(0.0, 1.0)
        path = np.full(11, 0.5)
        rng1 = np.random.default_rng(0)
        assert detect_exit(path, O, "brownian_bridge", 0.01, rng_substream=rng1,
                           diffusion=lambda t, x: 1.0) is None
        rng2 = np.random.default_rng(0)
        rng2.random(10)
        assert rng1.random() == rng2.random()

    def test_bridge_detects_near_miss(self):
        # Hug the boundary: crossing probability exp(-2 d d'/sigma^2 dt) ~ 1.
        O = Domain.interval(0.0, 1.0)
        path = np.array([0.4, 1e-6, 1e-6, 0.5])
        rec = detect_exit(path, O, "brownian_bridge", 0.01,
                          rng_substream=np.random.default_rng(1),
                          diffusion=lambda t, x: 1.0)
        assert rec is not None and rec.state[0] == 0.0
        assert detect_exit(path, O, "grid_crossing", 0.01) is None

    def test_bridge_exit_state_is_projected_from_the_left_endpoint(self):
        # The bridge fires on the step 0.02 -> 0.6 (u = 0.1 < exp(-1.6)), so
        # the path left near 0, where it was at the start of the step.
        O = Domain.interval(0.0, 1.0)
        rec = detect_exit(np.array([0.5, 0.02, 0.6]), O, "brownian_bridge", 0.01,
                          rng_substream=SimpleNamespace(random=lambda n: np.array([0.9, 0.1])),
                          diffusion=lambda t, x: 1.0)
        assert (rec.step, rec.time, rec.state[0]) == (2, 0.02, 0.0)

    @pytest.mark.parametrize("rule", ["grid_crossing", "brownian_bridge"])
    def test_detect_exit_replays_the_simulator(self, exit_time_problem, rule):
        # Fed the simulator's own bridge uniforms, detection on the stored
        # paths finds every exit at the same step, time and state.
        batch = simulate(exit_time_problem, ZERO, 0.0, 0.5,
                         SimConfig(dt=0.02, n_paths=64, seed=9, exit_rule=rule))
        domain = exit_time_problem.domain
        bridge_fired = 0
        for p in range(batch.n_paths):
            u = _bridge_uniforms(batch.seed, 1, batch.n_steps, path_offset=p)[0]
            rec = detect_exit(batch.states[p], domain, rule, batch.dt,
                              rng_substream=SimpleNamespace(random=lambda n, u=u: u[:n]),
                              t0=batch.t0, diffusion=np.ones(batch.n_steps))
            if batch.exit_step[p] < 0:
                assert rec is None
                continue
            assert rec.step == batch.exit_step[p] and rec.time == batch.exit_time[p]
            assert np.array_equal(rec.state, batch.exit_state[p])
            bridge_fired += bool(domain.contains(batch.states[p, rec.step]))
        assert np.sum(batch.exited) > batch.n_paths // 2
        assert (bridge_fired > 0) == (rule == "brownian_bridge")

    def test_bridge_needs_rng_and_diffusion(self):
        O = Domain.interval(0.0, 1.0)
        with pytest.raises(ValueError, match="rng_substream and diffusion"):
            detect_exit(np.full(5, 0.5), O, "brownian_bridge", 0.01)


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
