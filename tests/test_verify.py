"""Cost estimation, the fundamental identity, and optimality certificates."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hjbverify import (
    VERDICT_INCONCLUSIVE,
    AdvertisingParams,
    VERDICT_OPTIMAL,
    VERDICT_SUBOPTIMAL,
    ClosedFormValue,
    ConstantPolicy,
    ControlProblem,
    ControlSet,
    Domain,
    FeedbackPolicy,
    FiniteHorizon,
    Grid1D,
    SimConfig,
    advertising_feedback,
    advertising_gradient,
    advertising_solution,
    advertising_value,
    certify,
    discounted_demo_solution,
    estimate_cost,
    field_from_callable,
    make_discounted_demo,
    make_exit_demo,
    probe_hypotheses,
    rowwise,
    simulate,
    solve_exit,
)
from hjbverify import sde, verify
from hjbverify.hamiltonian import _clamped_gap, _minimize_batch
from hjbverify.problem import DiscountedInfinite, canonicalize

ZERO = ConstantPolicy(0.0)

# Lognormal moment: J(0, 2; z=0) = E[X_T^{1.5}] = 2^{1.5} e^{gamma T} for
# dX = -X dt + 0.5 X dW, gamma = 1.5*(-1) + 1.5*0.5*0.25/2 = -1.40625.
ZERO_POLICY_VALUE = 0.6931358764069737
FEEDBACK_VALUE = 0.8494687193651894  # a(0) * 2^{1.5}


def _feedback_policy(params):
    return FeedbackPolicy(lambda t, x: advertising_feedback(params, t, x[:, 0]).reshape(-1, 1))


def _terminal_state_problem():
    """dX = dW with cost X_T: per-path cost equals the final state."""
    return ControlProblem(
        dimension=1, noise_dimension=1,
        horizon=FiniteHorizon(1.0, lambda x: x[:, 0]),
        drift_uncontrolled=lambda t, x: np.zeros_like(x),
        drift_controlled=lambda t, x, z: np.zeros_like(x),
        diffusion=lambda t, x: np.ones(x.shape + (1,)),
        running_cost=lambda t, x, z: np.zeros(x.shape[0]),
        control_set=ControlSet.finite([[0.0]]),
    )


class TestEstimateCost:
    def test_mean_and_se_match_per_path_costs(self):
        prob = _terminal_state_problem()
        cfg = SimConfig(dt=0.02, n_paths=300, seed=5)
        est = estimate_cost(prob, ZERO, 0.0, 0.3, cfg)
        batch = simulate(prob, ZERO, 0.0, 0.3, cfg)
        costs = batch.states[:, -1, 0]
        assert est.mean == np.mean(costs)
        assert est.std_error == np.std(costs, ddof=1) / math.sqrt(costs.size)
        assert est.n_paths == 300
        assert est.discarded_diverged == 0

    def test_pure_running_cost_is_exact(self):
        prob = ControlProblem(
            dimension=1, noise_dimension=1,
            horizon=FiniteHorizon(1.0, lambda x: np.zeros(x.shape[0])),
            drift_uncontrolled=lambda t, x: np.zeros_like(x),
            drift_controlled=lambda t, x, z: np.zeros_like(x),
            diffusion=lambda t, x: np.ones(x.shape + (1,)),
            running_cost=lambda t, x, z: np.ones(x.shape[0]),
            control_set=ControlSet.finite([[0.0]]),
        )
        est = estimate_cost(prob, ZERO, 0.0, 0.0, SimConfig(dt=0.01, n_paths=8, seed=0))
        assert est.mean == pytest.approx(1.0, abs=1e-12)  # left sum of 1*dt
        assert est.std_error == 0.0

    def test_constant_exit_demo_exact(self, exit_constant_problem):
        est = estimate_cost(exit_constant_problem, ZERO, 0.0, 0.5,
                            SimConfig(dt=1e-3, n_paths=64, seed=1))
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_zero_policy_advertising_lognormal(self, adv_problem):
        est = estimate_cost(adv_problem, ZERO, 0.0, 2.0,
                            SimConfig(dt=2e-3, n_paths=4000, seed=42))
        assert abs(est.mean - ZERO_POLICY_VALUE) <= 3 * est.std_error + 1e-2
        assert est.std_error > 0

    def test_excess_divergence_raises(self):
        prob = ControlProblem(
            dimension=1, noise_dimension=1,
            horizon=FiniteHorizon(10.0, lambda x: np.zeros(x.shape[0])),
            drift_uncontrolled=lambda t, x: np.where(x > 0.5, 1.7e308, 0.0),
            drift_controlled=lambda t, x, z: np.zeros_like(x),
            diffusion=lambda t, x: np.ones(x.shape + (1,)),
            running_cost=lambda t, x, z: np.zeros(x.shape[0]),
            control_set=ControlSet.finite([[0.0]]),
        )
        cfg = SimConfig(dt=0.5, n_paths=8, seed=1)
        zero = ClosedFormValue(lambda t, x: np.zeros(x.shape[0]), lambda t, x: np.zeros_like(x))
        # Cost and identity estimators share one run, hence one divergence budget.
        for estimate in (lambda: estimate_cost(prob, ZERO, 0.0, 0.0, cfg),
                         lambda: certify(prob, zero, ZERO, 0.0, 0.0, cfg)):
            with pytest.raises(RuntimeError, match="decrease dt"):
                estimate()

    def test_x0_must_be_one_starting_point(self, adv_problem, adv_solution):
        # certify probes the candidate at x0 before it simulates: both name x0.
        cfg = SimConfig(dt=0.1, n_paths=2, seed=0)
        for run in (lambda: estimate_cost(adv_problem, ZERO, 0.0, [0.1, 0.2], cfg),
                    lambda: certify(adv_problem, adv_solution, ZERO, 0.0, [0.1, 0.2], cfg)):
            with pytest.raises(ValueError, match=r"x0 must be a single starting point: .*"
                                                 r"got shape \(2,\)"):
                run()

    @pytest.mark.parametrize("chunk_size", [0, -3])
    def test_chunk_size_below_one_rejected(self, chunk_size):
        cfg = SimConfig(dt=0.02, n_paths=10, seed=0)
        with pytest.raises(ValueError, match="chunk_size must be at least 1"):
            next(sde.simulate_chunks(_terminal_state_problem(), ZERO, 0.0, 0.3, cfg,
                                     chunk_size=chunk_size, integrand=None))


class TestFundamentalIdentity:
    def test_feedback_on_closed_form(self, adv_params, adv_problem, adv_solution):
        cfg = SimConfig(dt=2e-3, n_paths=2000, seed=7)
        rep = certify(adv_problem, adv_solution,
                      _feedback_policy(adv_params), 0.0, 2.0, cfg).evidence
        assert rep.passed
        assert rep.v_at_start == pytest.approx(FEEDBACK_VALUE, rel=1e-12)
        # The feedback control attains the Hamiltonian infimum pointwise, so
        # the clamped gap vanishes identically along every path.
        assert rep.gap_integral.mean == 0.0
        assert rep.gap_integral.std_error == 0.0
        assert rep.identity_defect <= rep.tolerance_used
        assert rep.tolerance_used >= math.sqrt(cfg.dt)  # c2 sqrt(dt); dx = 0
        assert rep.cost.n_paths == 2000
        assert rep.notes == ()
        assert rep.tail_magnitude is None and rep.tail_bound is None

    def test_zero_policy_gap_is_the_shortfall(self, adv_problem, adv_solution):
        cfg = SimConfig(dt=2e-3, n_paths=2000, seed=7)
        rep = certify(adv_problem, adv_solution, ZERO, 0.0, 2.0, cfg).evidence
        assert rep.passed
        g = rep.gap_integral
        assert g.mean > 10 * g.std_error
        # Maximize sense: the zero policy earns less than the optimal value,
        # and the gap integral accounts for the difference.
        assert rep.cost.mean < rep.v_at_start
        assert abs((rep.v_at_start - rep.cost.mean) - g.mean) <= rep.tolerance_used

    def test_explicit_tolerance_replaces_formula(self, adv_problem, adv_solution):
        cfg = SimConfig(dt=0.01, n_paths=100, seed=9)
        rep = certify(adv_problem, adv_solution, ZERO, 0.0, 2.0, cfg,
                      tolerance=1e-12).evidence
        assert rep.tolerance_used == 1e-12
        assert not rep.passed

    @pytest.mark.parametrize("name, value", [
        ("c1", math.nan), ("c2", math.inf), ("c2", -1.0),
        ("tolerance", math.inf), ("tolerance", -1.0), ("tolerance", math.nan)])
    def test_allowance_must_be_finite_and_non_negative(self, adv_problem, adv_solution, name, value):
        # An infinite allowance certified any policy; NaN or a negative one
        # silently made every verdict inconclusive.
        cfg = SimConfig(dt=0.01, n_paths=4, seed=0)
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number >= 0, got "):
            certify(adv_problem, adv_solution, ZERO, 0.0, 2.0, cfg, **{name: value})

    def test_discounted_horizon_rejected(self):
        prob = make_discounted_demo(1.0, 1.0)
        sol = discounted_demo_solution(1.0, 1.0)
        with pytest.raises(ValueError, match="explicit truncation time `until`"):
            certify(prob, sol, ZERO, 0.0, 0.0, SimConfig(dt=0.01, n_paths=4, seed=0))

    def test_escaping_field_grid_raises(self, adv_params, adv_problem):
        narrow = field_from_callable(
            lambda t, xs: advertising_value(adv_params, t, xs),
            Grid1D(1.5, 2.5, 21, 20, t_final=1.0))
        with pytest.raises(RuntimeError, match="larger grid"):
            certify(adv_problem, narrow, ZERO, 0.0, 2.0,
                    SimConfig(dt=0.01, n_paths=200, seed=3))

    def test_field_must_cover_the_run(self, adv_params, adv_problem, exit_time_problem):
        # A field solved to 0.5 would be clamped to its last level on (0.5, 3].
        short = solve_exit(make_exit_demo("expected_exit_time", horizon=0.5),
                           Grid1D(0.0, 1.0, 41, 100))
        cfg = SimConfig(dt=0.01, n_paths=400, seed=0)
        with pytest.raises(ValueError, match=r"\[0.0, 0.5\] does not cover the run \[0.0, 3.0\]"):
            certify(exit_time_problem, short, ZERO, 0.0, 0.5, cfg)
        late = field_from_callable(lambda t, xs: advertising_value(adv_params, t, xs),
                                   Grid1D(0.05, 8.0, 160, 10, t_final=1.0, t0=0.5))
        with pytest.raises(ValueError, match="does not cover"):
            certify(adv_problem, late, ZERO, 0.0, 2.0, cfg)
        certify(adv_problem, late, ZERO, 0.5, 2.0, cfg)


class TestCertify:
    def test_optimal_feedback(self, adv_params, adv_problem, adv_solution):
        cfg = SimConfig(dt=2e-3, n_paths=2000, seed=11)
        cert = certify(adv_problem, adv_solution, _feedback_policy(adv_params),
                       0.0, 2.0, cfg, necessity_scan=True)
        assert cert.verdict == VERDICT_OPTIMAL
        assert cert.optimality_margin == 0.0
        assert cert.necessity_fraction == 0.0
        assert "closed-form" in cert.lower_bound_note
        assert cert.evidence.passed

    def test_suboptimal_zero_policy(self, adv_problem, adv_solution):
        cfg = SimConfig(dt=2e-3, n_paths=2000, seed=11)
        cert = certify(adv_problem, adv_solution, ZERO, 0.0, 2.0, cfg,
                       necessity_scan=True)
        assert cert.verdict == VERDICT_SUBOPTIMAL
        assert cert.optimality_margin > 0.1
        assert cert.necessity_fraction > 0.5
        assert cert.evidence.passed

    def test_no_false_positive_when_identity_fails(self, adv_problem, adv_solution):
        # An unreachable tolerance fails the identity; the verdict must fall
        # back to inconclusive rather than reading the gap as suboptimality.
        cfg = SimConfig(dt=0.01, n_paths=100, seed=13)
        cert = certify(adv_problem, adv_solution, ZERO, 0.0, 2.0, cfg,
                       tolerance=1e-15)
        assert cert.verdict == VERDICT_INCONCLUSIVE
        assert not cert.evidence.passed

    def test_necessity_fraction_none_without_scan(self, adv_problem, adv_solution):
        cfg = SimConfig(dt=0.05, n_paths=50, seed=1)
        cert = certify(adv_problem, adv_solution, ZERO, 0.0, 2.0, cfg)
        assert cert.necessity_fraction is None

    def test_lower_bound_note_variants(self, adv_params, adv_problem, adv_solution):
        cfg = SimConfig(dt=0.05, n_paths=50, seed=1)
        args = (adv_problem, adv_solution, ZERO, 0.0, 2.0, cfg)
        assert "ladder passed" in certify(*args, ladder=True).lower_bound_note
        assert "ladder failed" in certify(*args, ladder=False).lower_bound_note
        assert "closed-form" in certify(*args).lower_bound_note
        field = field_from_callable(
            lambda t, xs: advertising_value(adv_params, t, xs),
            Grid1D(0.05, 8.0, 160, 20, t_final=1.0), provenance="solved")
        cert = certify(adv_problem, field, ZERO, 0.0, 2.0, cfg)
        assert "not asserted" in cert.lower_bound_note

    def test_lower_bound_needs_a_passed_identity(self, adv_params, adv_problem):
        # Half the true value is no solution: the identity fails, and neither a
        # closed form nor a passed ladder turns it into a lower bound.
        half = ClosedFormValue(
            lambda t, x: 0.5 * advertising_value(adv_params, t, x[:, 0]),
            lambda t, x: 0.5 * advertising_gradient(adv_params, t, x[:, 0]))
        cfg = SimConfig(dt=2e-3, n_paths=2000, seed=3)
        for ladder in (None, True):
            cert = certify(adv_problem, half, _feedback_policy(adv_params), 0.0, 2.0, cfg,
                           ladder=ladder)
            assert cert.verdict == VERDICT_INCONCLUSIVE
            assert "not asserted: the identity check did not pass" in cert.lower_bound_note

    def test_sampled_field_is_not_read_as_a_closed_form(self, exit_time_problem):
        # field_from_callable keeps provenance "closed_form" by default, but
        # the candidate is a linear interpolant with Δx = 0.1 in its
        # allowance: only a candidate without a grid is a closed form.
        field = field_from_callable(lambda t, xs: xs * (1 - xs), Grid1D(0, 1, 11, 30, t_final=3.0))
        cert = certify(exit_time_problem, field, ZERO, 0.0, 0.5,
                       SimConfig(dt=0.05, n_paths=50, seed=1))
        assert "not asserted" in cert.lower_bound_note


class TestDiscountedVerify:
    def test_constant_demo_identity(self):
        prob = make_discounted_demo(0.5, 2.0)
        sol = discounted_demo_solution(0.5, 2.0)
        rep = certify(prob, sol, ZERO, 0.0, 0.0, SimConfig(dt=0.01, n_paths=64, seed=3),
                      until=20.0).evidence
        assert rep.passed
        assert rep.v_at_start == 4.0
        assert rep.identity_defect <= 1e-10
        assert rep.gap_integral.mean == 0.0
        # v is the constant 4, so the realized tail mean equals the bound
        # e^{-rate T1} sup|v| up to roundoff.
        assert rep.tail_bound == pytest.approx(math.exp(-10.0) * 4.0, rel=1e-12)
        assert rep.tail_magnitude == pytest.approx(rep.tail_bound, rel=1e-12)
        assert any("truncation tail" in n for n in rep.notes)

    def test_short_truncation_fails_with_advice(self):
        prob = make_discounted_demo(0.5, 2.0)
        sol = discounted_demo_solution(0.5, 2.0)
        rep = certify(prob, sol, ZERO, 0.0, 0.0, SimConfig(dt=0.01, n_paths=16, seed=3),
                      until=2.0, tolerance=1e-6).evidence
        assert rep.identity_defect <= 1e-6    # the identity itself is exact
        assert not rep.passed                 # but the tail bound dwarfs it
        assert rep.tail_bound > 1e-6
        assert any("raise" in n and "truncation_T1" in n for n in rep.notes)

    def test_requires_discounted_horizon(self, adv_problem, adv_solution):
        with pytest.raises(ValueError, match="`until` is the truncation time of discounted"):
            certify(adv_problem, adv_solution, ZERO, 0.0, 2.0,
                    SimConfig(dt=0.01, n_paths=4, seed=0), until=10.0)

    def test_estimate_cost_rejects_until_on_a_finite_horizon(self, adv_problem):
        # The run ends at T; a shorter window would charge the terminal cost early.
        with pytest.raises(ValueError, match="`until` is the truncation time of discounted"):
            estimate_cost(adv_problem, ZERO, 0.0, 2.0,
                          SimConfig(dt=0.01, n_paths=4, seed=0), until=0.25)

    def test_estimate_cost_needs_until(self):
        prob = make_discounted_demo(0.5, 2.0)
        with pytest.raises(ValueError, match="truncation"):
            estimate_cost(prob, ZERO, 0.0, 0.0, SimConfig(dt=0.01, n_paths=4, seed=0))

    def test_estimate_cost_truncated_value(self):
        prob = make_discounted_demo(0.5, 2.0)
        est = estimate_cost(prob, ZERO, 0.0, 0.0,
                            SimConfig(dt=0.01, n_paths=8, seed=0), until=20.0)
        assert est.mean == pytest.approx(4.0 * (1.0 - math.exp(-10.0)), abs=1e-9)
        assert est.std_error == 0.0


SIGMA_2D = 0.5


def _lq_2d(closed_form: bool = True) -> ControlProblem:
    """dX = z dt + σ dW in R², cost ∫|z|² ds + |X_T|² on [0, 1], z unconstrained.

    H0(p) = min_z z·p + |z|² = −|p|²/4 at z = −p/2, so v = a(t)|x|² +
    2σ² log(1 + T − t) with a = 1/(1 + T − t), and the feedback is z = −a x.
    """
    def hamiltonian(t, x, p):
        return -0.25 * np.einsum("pn,pn->p", p, p), -0.5 * p

    return ControlProblem(
        dimension=2, noise_dimension=2,
        horizon=FiniteHorizon(1.0, lambda x: np.einsum("pn,pn->p", x, x)),
        drift_uncontrolled=lambda t, x: np.zeros_like(x),
        drift_controlled=lambda t, x, z: z,
        diffusion=lambda t, x: np.tile(SIGMA_2D * np.eye(2), (x.shape[0], 1, 1)),
        running_cost=lambda t, x, z: np.einsum("pk,pk->p", z, z),
        control_set=ControlSet.box([-np.inf, -np.inf], [np.inf, np.inf]),
        closed_form_hamiltonian=hamiltonian if closed_form else None,
    )


LQ_2D_VALUE = ClosedFormValue(
    lambda t, x: np.einsum("pn,pn->p", x, x) / (2.0 - t) + 2.0 * SIGMA_2D**2 * np.log(2.0 - t),
    lambda t, x: 2.0 * x / (2.0 - t),
)
LQ_2D_FEEDBACK = FeedbackPolicy(lambda t, x: -x / (2.0 - t))
LQ_2D_X0 = [1.0, -0.5]


class TestTwoDimensionalLQ:
    def test_feedback_is_optimal(self):
        cert = certify(_lq_2d(), LQ_2D_VALUE, LQ_2D_FEEDBACK, 0.0, LQ_2D_X0,
                       SimConfig(dt=1e-2, n_paths=4000, seed=21), necessity_scan=True)
        assert cert.verdict == VERDICT_OPTIMAL
        assert cert.optimality_margin == 0.0
        assert cert.necessity_fraction == 0.0
        assert cert.evidence.v_at_start == pytest.approx(1.25 / 2.0 + 0.5 * math.log(2.0))

    def test_zero_policy_is_suboptimal(self):
        cfg = SimConfig(dt=1e-2, n_paths=4000, seed=21)
        cert = certify(_lq_2d(), LQ_2D_VALUE, ConstantPolicy([0.0, 0.0]), 0.0, LQ_2D_X0, cfg)
        assert cert.verdict == VERDICT_SUBOPTIMAL
        # J(zero) = |x0|² + 2σ²T, so the margin J − v is 1.25 + 0.5 − v(0, x0),
        # up to the O(dt) bias of the left-endpoint quadrature.
        margin = 1.75 - (1.25 / 2.0 + 0.5 * math.log(2.0))
        se = cert.evidence.gap_integral.std_error
        assert abs(cert.optimality_margin - margin) <= 3.0 * se + 2.0 * cfg.dt

    def test_feedback_is_optimal_under_the_box_scan(self):
        cert = certify(_lq_2d(closed_form=False), LQ_2D_VALUE, LQ_2D_FEEDBACK, 0.0, LQ_2D_X0,
                       SimConfig(dt=0.02, n_paths=200, seed=21), necessity_scan=True)
        # The scan's H0 is never below the true minimum H_cv(feedback), so the
        # clamped gap is still exactly zero.
        assert cert.verdict == VERDICT_OPTIMAL
        assert cert.optimality_margin == 0.0
        assert cert.necessity_fraction == 0.0

    def test_hypotheses_in_the_plane(self):
        region = Domain.box([-1.0, -1.0], [1.0, 1.0])
        assert region.boundary_points().tolist() == [[-1.0, -1.0], [-1.0, 1.0],
                                                     [1.0, -1.0], [1.0, 1.0]]
        rep = probe_hypotheses(_lq_2d(), n_samples=50, seed=0, sample_region=region)
        assert rep.ellipticity_lambda0_estimate == pytest.approx(SIGMA_2D**2, rel=1e-12)
        assert rep.lipschitz_F0_estimate == 0.0 and rep.lipschitz_F1_estimate == 0.0
        assert np.isfinite(rep.girsanov_sup_estimate)


class TestClosedFormValue:
    def test_batch_and_scalar_probes(self):
        cf = ClosedFormValue(value_fn=lambda t, x: x[:, 0] ** 2 + t,
                             gradient_fn=lambda t, x: 2.0 * x)
        assert cf.value_at(0.5, np.array([[1.5]]))[0] == 2.75
        np.testing.assert_allclose(cf.value_at(0.0, np.array([[1.0], [2.0]])),
                                   [1.0, 4.0])
        np.testing.assert_allclose(cf.gradient_at(0.0, np.array([[3.0]])), [[6.0]])
        assert cf.provenance == "closed_form"
        for single in (1.5, np.array([1.5])):
            with pytest.raises(ValueError, match=r"\(P, n\) batch"):
                cf.value_at(0.5, single)

    def test_a_scalar_only_value_fn_is_declared_rowwise(self):
        xs = np.array([[1.0], [2.0]])
        scalar_only = ClosedFormValue(value_fn=lambda t, x: x[0].item() ** 2 + t,
                                      gradient_fn=lambda t, x: 2.0 * x)
        with pytest.raises(ValueError, match=r"value_fn returned shape \(\) for a batch, "
                                             r"expected \(2,\); .*hjbverify\.rowwise"):
            scalar_only.value_at(0.5, xs)
        declared = dataclasses.replace(scalar_only, value_fn=rowwise(scalar_only.value_fn))
        assert declared.value_at(0.5, xs).tolist() == [1.5, 4.5]


def _candidates():
    """One candidate of each kind, with its grid (None for a closed form) and provenance."""
    exit_grid = Grid1D(0.0, 1.0, 21, 20)
    return {
        "advertising": (advertising_solution(AdvertisingParams()), None, "closed_form"),
        "discounted": (discounted_demo_solution(0.5, 2.0), None, "closed_form"),
        "solved": (solve_exit(make_exit_demo("expected_exit_time"), exit_grid),
                   dataclasses.replace(exit_grid, t_final=3.0), "solved"),
        "sampled": (_exit_field(), Grid1D(0.0, 1.0, 41, 30, t_final=3.0), "closed_form"),
    }


class TestCandidateContract:
    """value_at/gradient_at take a (P, n) batch and return (P,) and (P, n);
    ``grid`` tells a field from a closed form."""

    @pytest.mark.parametrize("kind", ["advertising", "discounted", "solved", "sampled"])
    def test_shapes_grid_and_provenance(self, kind):
        source, grid, provenance = _candidates()[kind]
        x = np.array([[0.2], [0.5], [0.7]])
        for t in (0.0, 0.4):
            value, gradient = source.value_at(t, x), source.gradient_at(t, x)
            assert value.shape == (3,) and value.dtype == float
            assert gradient.shape == (3, 1) and gradient.dtype == float
        assert source.grid == grid
        assert source.provenance == provenance

    @pytest.mark.parametrize("kind", ["advertising", "discounted", "solved", "sampled"])
    @pytest.mark.parametrize("x", [0.5, np.array([0.5]), np.array([0.2, 0.5, 0.7]),
                                   np.zeros((2, 2, 2))],
                             ids=["scalar", "point", "flat", "three_axes"])
    def test_unbatched_states_raise(self, kind, x):
        source = _candidates()[kind][0]
        for probe in (source.value_at, source.gradient_at):
            with pytest.raises(ValueError, match=r"batch of points, got shape"):
                probe(0.0, x)

    @pytest.mark.parametrize("kind", ["solved", "sampled"])
    def test_a_field_rejects_a_wider_batch(self, kind):
        # A field used to read column 0 of such a batch without a word.  A
        # closed form has no width of its own (its callables decide: see the
        # 2-d LQ candidate); a field is 1-d.
        source = _candidates()[kind][0]
        for probe in (source.value_at, source.gradient_at):
            with pytest.raises(ValueError, match=r"\(P, 1\) batch of points, got shape \(2, 2\)"):
                probe(0.0, np.array([[0.25, 0.75], [0.5, 0.9]]))


# ---------------------------------------------------------------------------
# The streamed step loop against a re-walk of stored paths
# ---------------------------------------------------------------------------


def _rewalk(problem, source, batch, c1=1.0, c2=1.0, with_tail=False):
    """Per-path cost, gap integral, points, violations and tail of a stored batch.

    The two-pass formula: walk the stored states and controls step by step,
    on the retained (never diverged) paths, with the coefficients evaluated
    afresh — nothing shared with the streamed loop but the primitives.
    """
    prob = canonicalize(problem)
    flip = -1.0 if problem.sense == "maximize" else 1.0
    rate = problem.horizon.rate if isinstance(problem.horizon, DiscountedInfinite) else None
    grid = None if source is None else source.grid
    point_tol = c1 * (grid.dx if grid is not None else 0.0) + c2 * math.sqrt(batch.dt)
    keep = batch.diverged_step < 0
    states, controls = batch.states[keep], batch.controls[keep]
    exit_step, exit_state = batch.exit_step[keep], batch.exit_state[keep]
    K, S = states.shape[0], batch.n_steps
    if rate is None:
        w = np.full(S, batch.dt)
    else:
        s = batch.times - batch.t0
        w = (np.exp(-rate * s[:-1]) - np.exp(-rate * s[1:])) / rate
    stop = np.where(exit_step >= 0, exit_step, S)
    cost, gap = np.zeros(K), np.zeros(K)
    points = violations = 0
    for i in range(S):
        live = stop > i
        t = float(batch.times[i])
        x, z = states[live, i], controls[live, i]
        if x.shape[0] == 0:
            break
        ell = prob.cost_rate(t, x, z)
        cost[live] += w[i] * ell
        if source is None:
            continue
        p = flip * source.gradient_at(t, x)
        hcv = np.einsum("pn,pn->p", prob.f1(t, x, z), p) + ell
        h0, _ = _minimize_batch(prob, t, x, p)
        g = _clamped_gap(hcv - h0, h0)
        gap[live] += w[i] * g
        points += x.shape[0]
        violations += int(np.sum(g > point_tol))
    tail = None
    if rate is None:
        exited = exit_step >= 0
        pay = np.zeros(K)
        for e in np.unique(exit_step[exited]):
            pay[exit_step == e] = prob.boundary(float(batch.times[e]), exit_state[exit_step == e])
        cost[exited] += pay[exited]
        if (~exited).any():
            cost[~exited] += prob.terminal(states[~exited, S])
    elif with_tail:
        t_end = float(batch.times[-1])
        v_end = flip * source.value_at(t_end, states[:, S])
        tail = math.exp(-rate * (t_end - batch.t0)) * v_end
    return cost, gap, points, violations, tail


def _mean_se(arr):
    return float(np.mean(arr)), float(np.std(arr, ddof=1) / math.sqrt(arr.size))


def _assert_report_matches(rep, problem, cost, gap, tail=None):
    flip = -1.0 if problem.sense == "maximize" else 1.0
    if tail is not None:
        cost = cost + tail
        assert rep.tail_magnitude == abs(float(np.mean(tail)))
    mean_c, se_c = _mean_se(cost)
    mean_g, se_g = _mean_se(gap)
    mean_d, _ = _mean_se(cost - gap)
    assert (rep.cost.mean, rep.cost.std_error) == (flip * mean_c, se_c)
    assert (rep.gap_integral.mean, rep.gap_integral.std_error) == (mean_g, se_g)
    assert rep.identity_defect == abs(mean_d - flip * rep.v_at_start)
    assert rep.cost.n_paths == cost.size


def _exit_field():
    # v = x(1 - x) solves the expected-exit-time problem; sampled on a grid,
    # so the run is field-backed (grid bounds, c1·dx in the allowance).
    return field_from_callable(lambda t, xs: xs * (1.0 - xs), Grid1D(0.0, 1.0, 41, 30, t_final=3.0))


def _diverging_problem():
    """dX = z dt + dW; past x = 10 the drift jumps to ~max float, so a rare path overflows."""
    return ControlProblem(
        dimension=1, noise_dimension=1,
        horizon=FiniteHorizon(10.0, lambda x: np.tanh(x[:, 0])),
        drift_uncontrolled=lambda t, x: np.where(x > 10.0, 1.7e308, 0.0),
        drift_controlled=lambda t, x, z: z,
        diffusion=lambda t, x: np.ones(x.shape + (1,)),
        running_cost=lambda t, x, z: z[:, 0] ** 2 + np.tanh(x[:, 0]),
        control_set=ControlSet.finite([[-0.5], [0.0], [0.5]]),
    )


def _discounted_quadratic():
    """Discounted, box controls (numerical H0), x-dependent cost and candidate."""
    return ControlProblem(
        dimension=1, noise_dimension=1,
        horizon=DiscountedInfinite(0.7, lambda x, z: x[:, 0] ** 2 + z[:, 0] ** 2),
        drift_uncontrolled=lambda t, x: -0.5 * x,
        drift_controlled=lambda t, x, z: z,
        diffusion=lambda t, x: np.full(x.shape + (1,), 0.4),
        running_cost=None,
        control_set=ControlSet.box([-1.0], [1.0]),
    )


class TestStreamedLoopMatchesRewalk:
    """Fused estimates equal the re-walk of a stored batch, bit for bit."""

    @pytest.fixture(autouse=True)
    def _small_chunks(self, monkeypatch):
        # Chunks of 16 paths, so that every run streams several chunks.
        monkeypatch.setattr(verify, "_CHUNK", 16)

    def _certify_case(self, problem, source, policy, x0, cfg):
        cert = certify(problem, source, policy, 0.0, x0, cfg, necessity_scan=True)
        est = estimate_cost(problem, policy, 0.0, x0, cfg)
        batch = simulate(problem, policy, 0.0, x0, cfg)
        cost, gap, points, violations, _ = _rewalk(problem, source, batch)
        _assert_report_matches(cert.evidence, problem, cost, gap)
        assert cert.necessity_fraction == violations / points
        flip = -1.0 if problem.sense == "maximize" else 1.0
        assert (est.mean, est.std_error) == (flip * _mean_se(cost)[0], _mean_se(cost)[1])
        assert est.discarded_diverged == cert.evidence.cost.discarded_diverged == batch.n_diverged
        return cert, batch

    def test_advertising_feedback(self, adv_params, adv_problem, adv_solution):
        self._certify_case(adv_problem, adv_solution, _feedback_policy(adv_params), 2.0,
                           SimConfig(dt=0.02, n_paths=40, seed=5))

    def test_maximize_sense_with_a_field_and_a_gap(self, adv_params, adv_problem):
        field = field_from_callable(lambda t, xs: advertising_value(adv_params, t, xs),
                                    Grid1D(0.05, 8.0, 160, 20, t_final=1.0))
        assert adv_problem.sense == "maximize"
        cert, _ = self._certify_case(adv_problem, field, ConstantPolicy(0.3), 2.0,
                                     SimConfig(dt=0.02, n_paths=40, seed=6))
        assert cert.optimality_margin > 0.0

    @pytest.mark.parametrize("rule", ["brownian_bridge", "grid_crossing"])
    def test_exit(self, exit_time_problem, rule):
        cfg = SimConfig(dt=0.01, n_paths=40, seed=3, exit_rule=rule)
        _, batch = self._certify_case(exit_time_problem, _exit_field(), ZERO, 0.5, cfg)
        assert batch.exited.any()

    def test_some_paths_diverge(self):
        problem = _diverging_problem()
        source = ClosedFormValue(lambda t, x: np.sin(x[:, 0]), lambda t, x: np.cos(x))
        _, batch = self._certify_case(problem, source, ZERO, 0.0,
                                      SimConfig(dt=0.5, n_paths=2000, seed=1))
        assert batch.n_diverged == 1

    def test_discounted_with_tail(self):
        problem = _discounted_quadratic()
        source = ClosedFormValue(lambda t, x: x[:, 0] ** 2 + 1.0, lambda t, x: 2.0 * x)
        policy = FeedbackPolicy(lambda t, x: np.clip(-0.5 * x, -1.0, 1.0))
        cfg = SimConfig(dt=0.05, n_paths=24, seed=8)
        rep = certify(problem, source, policy, 0.0, 0.6, cfg, until=3.0).evidence
        est = estimate_cost(problem, policy, 0.0, 0.6, cfg, until=3.0)
        batch = simulate(problem, policy, 0.0, 0.6, cfg, until=3.0)
        cost, gap, _, _, tail = _rewalk(problem, source, batch, with_tail=True)
        _assert_report_matches(rep, problem, cost, gap, tail)
        assert rep.gap_integral.mean > 0.0
        assert (est.mean, est.std_error) == _mean_se(cost)


def test_discounted_certify_memory_does_not_grow_with_the_horizon(monkeypatch):
    # Nothing is stored per step: the peak is set by the chunk and the noise
    # block, not by T1.  A small block bound lets both horizons reach the
    # largest block, so only per-step storage could tell them apart.
    monkeypatch.setattr(sde, "_BLOCK_DRAWS", 1 << 14)
    prob = make_discounted_demo(0.5, 2.0)
    sol = discounted_demo_solution(0.5, 2.0)
    cfg = SimConfig(dt=0.01, n_paths=256, seed=3)
    peaks = []
    for t1 in (2.0, 20.0):
        tracemalloc.start()
        certify(prob, sol, ZERO, 0.0, 0.0, cfg, until=t1)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


@pytest.mark.parametrize("case", ["advertising", "exit_bridge"])
def test_certificate_does_not_depend_on_the_noise_block_schedule(case, monkeypatch, adv_params,
                                                                 adv_problem, adv_solution,
                                                                 exit_time_problem):
    # Noise positions are fixed per (seed, path, step); how many steps a
    # block draws is not part of the contract.  Advertising has no domain,
    # so its blocks start at the cap; the exit problem's start short and
    # double, and its bridge uniforms are drawn in the same blocks.
    if case == "advertising":
        args = (adv_problem, adv_solution,
                FeedbackPolicy(lambda t, x: advertising_feedback(adv_params, t, x[:, 0])[:, None]),
                0.0, 2.0, SimConfig(dt=0.01, n_paths=64, seed=5))
    else:
        args = (exit_time_problem, _exit_field(), ZERO, 0.0, 0.5,
                SimConfig(dt=0.01, n_paths=64, seed=5, exit_rule="brownian_bridge"))
    blocks = []  # the steps of each noise block, per run
    draw = sde.gaussian_increments
    monkeypatch.setattr(sde, "gaussian_increments",
                        lambda *a, **kw: blocks[-1].append(a[2]) or draw(*a, **kw))
    blocks.append([])
    default = repr(certify(*args, necessity_scan=True))
    monkeypatch.setattr(sde, "_FIRST_BLOCK", 4)
    monkeypatch.setattr(sde, "_BLOCK_DRAWS", 1 << 10)
    blocks.append([])
    assert repr(certify(*args, necessity_scan=True)) == default
    # Default: one 100-step block without a domain, 16 steps first with one.
    assert blocks[0][0] == (100 if case == "advertising" else 16)
    assert blocks[1][0] == (16 if case == "advertising" else 4) and len(blocks[1]) > len(blocks[0])
