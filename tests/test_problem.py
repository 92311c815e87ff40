"""Problem containers: control sets, domains, canonicalization, probes."""

import numpy as np
import pytest

from hjbverify import (
    CoefficientError,
    ControlProblem,
    ControlSet,
    DiscountedInfinite,
    Domain,
    FiniteHorizon,
    canonicalize,
    probe_hypotheses,
)


def _toy_problem(sense="minimize", **overrides):
    kwargs = dict(
        dimension=1,
        noise_dimension=1,
        horizon=FiniteHorizon(1.0, lambda x: x[:, 0] ** 2),
        drift_uncontrolled=lambda t, x: -x,
        drift_controlled=lambda t, x, z: z,
        diffusion=lambda t, x: np.ones(x.shape + (1,)),
        running_cost=lambda t, x, z: z[:, 0] ** 2,
        control_set=ControlSet.box([-1.0], [1.0]),
        sense=sense,
    )
    kwargs.update(overrides)
    return ControlProblem(**kwargs)


class TestControlSet:
    def test_box_bounds_validated(self):
        with pytest.raises(ValueError, match="lower bound exceeds upper"):
            ControlSet.box([1.0], [0.0])
        with pytest.raises(ValueError, match="NaN"):
            ControlSet.box([np.nan], [1.0])

    def test_finite_requires_points(self):
        with pytest.raises(ValueError, match="nonempty"):
            ControlSet.finite(np.empty((0, 1)))
        with pytest.raises(ValueError, match="finite"):
            ControlSet.finite([[np.inf]])

    def test_box_contains_and_project(self):
        U = ControlSet.box([0.0], [2.0])
        assert U.contains(1.0) and U.contains(0.0) and U.contains(2.0)
        assert not U.contains(-0.5)
        assert U.project(3.0)[0] == 2.0
        assert U.project(-1.0)[0] == 0.0

    def test_finite_contains_and_project(self):
        U = ControlSet.finite([[0.0], [1.0], [-1.0]])
        assert U.contains(1.0) and not U.contains(0.5)
        assert U.project(0.7)[0] == 1.0

    def test_finite_points_sorted_deterministically(self):
        U = ControlSet.finite([[2.0], [-1.0], [0.5]])
        assert np.array_equal(U.points[:, 0], [-1.0, 0.5, 2.0])

    def test_unbounded_box_allowed(self):
        U = ControlSet.box([0.0], [np.inf])
        assert U.contains(1e12) and not U.contains(-1e-6)


class TestDomain:
    def test_signed_distance_signs(self):
        O = Domain.interval(0.0, 1.0)
        centroid = 0.5 * (O.lower + O.upper)
        assert O.signed_distance(centroid) < 0.0
        for pt in O.boundary_points():
            assert abs(O.signed_distance(pt)) <= 1e-12
        assert O.signed_distance(1.5) > 0.0

    def test_project_to_boundary(self):
        O = Domain.interval(0.0, 1.0)
        assert O.project_to_boundary(1.7)[0] == 1.0
        assert O.project_to_boundary(0.4)[0] in (0.0, 1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            Domain.interval(1.0, 1.0)


class TestHorizons:
    def test_finite_horizon_validation(self):
        with pytest.raises(ValueError, match="positive"):
            FiniteHorizon(-1.0, lambda x: x)

    def test_discount_rate_validation(self):
        with pytest.raises(ValueError, match="positive"):
            DiscountedInfinite(0.0, lambda x, z: x)

    def test_discounted_rejects_domain_and_running_cost(self):
        horizon = DiscountedInfinite(1.0, lambda x, z: np.ones(x.shape[0]))
        with pytest.raises(ValueError, match="exit domains"):
            _toy_problem(horizon=horizon, domain=Domain.interval(0, 1),
                         boundary_cost=lambda t, x: np.zeros(x.shape[0]))
        with pytest.raises(ValueError, match="running cost on the horizon"):
            _toy_problem(horizon=horizon)


class TestControlProblem:
    def test_boundary_terminal_compatibility_enforced(self):
        with pytest.raises(ValueError, match="incompatible"):
            _toy_problem(
                domain=Domain.interval(0.0, 1.0),
                boundary_cost=lambda t, x: np.full(x.shape[0], 7.0),
            )

    def test_compatible_exit_problem_constructs(self, exit_time_problem):
        assert exit_time_problem.domain is not None

    def test_coefficients_must_be_finite(self):
        prob = _toy_problem(drift_uncontrolled=lambda t, x: x * np.nan)
        with pytest.raises(CoefficientError):
            prob.f0(0.0, np.array([[1.0]]))

    def test_batched_evaluators(self):
        prob = _toy_problem()
        xs = np.array([[1.0], [2.0]])
        zs = np.array([[0.5], [-0.5]])
        assert prob.f0(0.0, xs).shape == (2, 1)
        assert prob.f1(0.0, xs, zs).shape == (2, 1)
        assert prob.diff(0.0, xs).shape == (2, 1, 1)
        assert np.allclose(prob.cost_rate(0.0, xs, zs), [0.25, 0.25])
        assert np.allclose(prob.terminal(xs), [1.0, 4.0])

    def test_scalar_only_coefficients_tolerated(self):
        # A callable that only understands a single point (n,) must be fed
        # row by row, not broadcast from its answer on the first row.
        prob = _toy_problem(drift_uncontrolled=lambda t, x: -x[0].item())
        out = prob.f0(0.0, np.array([[1.0], [3.0]]))
        assert np.allclose(out, [[-1.0], [-3.0]])

    def test_scalar_only_callables_without_time_argument(self):
        # Terminal and discounted running costs take no t: every argument is
        # a batch, none may be passed through whole as if it were t.
        xs, zs = np.array([[1.0], [2.0]]), np.array([[0.5], [-0.5]])
        prob = _toy_problem(horizon=FiniteHorizon(1.0, lambda x: float(x[0]) ** 2))
        assert np.array_equal(prob.terminal(xs), [1.0, 4.0])
        horizon = DiscountedInfinite(1.0, lambda x, z: float(x[0]) * float(z[0]))
        prob = _toy_problem(horizon=horizon, running_cost=None)
        assert np.array_equal(prob.cost_rate(0.0, xs, zs), [0.5, -1.0])

    def test_failed_row_fallback_chains_the_vectorized_error(self):
        def drift(t, x):
            if np.ndim(x) == 2:
                raise KeyError("batched call")
            raise RuntimeError("row call")

        prob = _toy_problem(drift_uncontrolled=drift)
        with pytest.raises(RuntimeError, match="row call") as excinfo:
            prob.f0(0.0, np.array([[1.0], [3.0]]))
        assert isinstance(excinfo.value.__cause__, KeyError)


class TestCanonicalize:
    def test_negates_costs_for_maximize(self):
        prob = _toy_problem(sense="maximize")
        canon = canonicalize(prob)
        xs = np.array([[2.0]])
        zs = np.array([[0.5]])
        assert canon.sense == "minimize"
        assert canon.cost_rate(0.0, xs, zs) == -prob.cost_rate(0.0, xs, zs)
        assert canon.terminal(xs) == -prob.terminal(xs)

    def test_identity_on_minimize(self):
        prob = _toy_problem()
        assert canonicalize(prob) is prob

    def test_idempotent(self):
        canon = canonicalize(_toy_problem(sense="maximize"))
        assert canonicalize(canon) is canon

    def test_dynamics_shared(self):
        prob = _toy_problem(sense="maximize")
        canon = canonicalize(prob)
        xs = np.array([[1.5]])
        assert np.array_equal(canon.f0(0.0, xs), prob.f0(0.0, xs))
        assert np.array_equal(canon.diff(0.0, xs), prob.diff(0.0, xs))

    def test_discounted_running_cost_negated(self):
        horizon = DiscountedInfinite(0.5, lambda x, z: np.full(x.shape[0], 3.0))
        prob = _toy_problem(sense="maximize", horizon=horizon, running_cost=None)
        canon = canonicalize(prob)
        xs, zs = np.array([[1.0]]), np.array([[0.0]])
        assert canon.cost_rate(0.0, xs, zs)[0] == -3.0
        assert canon.horizon.rate == 0.5


class TestProbeHypotheses:
    def test_estimates_nonnegative_and_monotone(self, adv_problem):
        region = Domain.interval(0.1, 5.0)
        small = probe_hypotheses(adv_problem, n_samples=50, seed=3, sample_region=region)
        large = probe_hypotheses(adv_problem, n_samples=200, seed=3, sample_region=region)
        for rep in (small, large):
            assert rep.lipschitz_F0_estimate >= 0
            assert rep.lipschitz_F1_estimate >= 0
            assert rep.ellipticity_lambda0_estimate >= 0
        # Nested sample sets: max-type estimates grow, min-type shrinks.
        assert large.lipschitz_F0_estimate >= small.lipschitz_F0_estimate
        assert large.lipschitz_F1_estimate >= small.lipschitz_F1_estimate
        assert large.girsanov_sup_estimate >= small.girsanov_sup_estimate
        assert large.ellipticity_lambda0_estimate <= small.ellipticity_lambda0_estimate
        assert small.samples_used == 50 and large.samples_used == 200

    def test_linear_drift_constant_recovered(self):
        prob = _toy_problem()  # F0 = -x has Lipschitz constant 1
        rep = probe_hypotheses(prob, n_samples=400, seed=0,
                               sample_region=Domain.interval(-2.0, 2.0))
        assert 0.9 <= rep.lipschitz_F0_estimate <= 1.0 + 1e-9

    def test_unit_diffusion_ellipticity(self, exit_time_problem):
        rep = probe_hypotheses(exit_time_problem, n_samples=100, seed=1,
                               sample_region=Domain.interval(0.1, 0.9))
        assert rep.ellipticity_lambda0_estimate == pytest.approx(1.0)
