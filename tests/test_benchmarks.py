"""Closed-form benchmark family: frozen values, guards, and structure."""

import logging
import math

import numpy as np
import pytest

from hjbverify import (
    AdvertisingParams,
    ClosedFormValue,
    Domain,
    advertising_coefficients,
    advertising_feedback,
    advertising_gradient,
    advertising_solution,
    advertising_value,
    discounted_demo_solution,
    make_advertising_problem,
    make_discounted_demo,
    make_exit_demo,
    minimize,
)

# Frozen reference values for eta=0.5, alpha=1, beta=0.5, T=1 at t=0, x=2,
# cross-checked against an independent high-precision evaluation of the
# coefficient formulas (gamma = -1.40625, kappa = -2.8125).
A0 = 0.3003325459344889
B0 = -4.080624335026461
V0_AT_2 = 0.8494687193651894       # a(0) * 2^{1.5}
FEEDBACK0_AT_2 = 0.18039927629498374  # a(0)^2 * 2


class TestParams:
    def test_field_guards(self):
        with pytest.raises(ValueError, match="eta"):
            AdvertisingParams(eta=0.0)
        with pytest.raises(ValueError, match="eta"):
            AdvertisingParams(eta=1.0)
        with pytest.raises(ValueError, match="alpha"):
            AdvertisingParams(alpha=0.0)
        with pytest.raises(ValueError, match="beta"):
            AdvertisingParams(beta=-1.0)
        with pytest.raises(ValueError, match="horizon"):
            AdvertisingParams(horizon=0.0)

    def test_validity_condition(self):
        with pytest.raises(ValueError, match="validity condition"):
            AdvertisingParams(eta=0.5, alpha=0.9, beta=2.0)

    def test_gamma(self, adv_params):
        assert adv_params.gamma == pytest.approx(-1.40625, rel=1e-15)

    def test_blowup_guard(self):
        # Valid parameters whose Bernoulli solution w still hits zero inside
        # [0, T]: the closed form must refuse rather than return nonsense.
        p = AdvertisingParams(eta=0.5, alpha=0.30, beta=0.5, horizon=2.0)
        with pytest.raises(ValueError, match="shorten the horizon"):
            advertising_coefficients(p, 0.0)


class TestCoefficients:
    def test_frozen_values_at_zero(self, adv_params):
        a0, b0 = advertising_coefficients(adv_params, 0.0)
        assert a0 == pytest.approx(A0, rel=1e-12)
        assert b0 == pytest.approx(B0, rel=1e-12)

    def test_terminal_conditions_exact(self, adv_params):
        aT, bT = advertising_coefficients(adv_params, 1.0)
        assert aT == pytest.approx(1.0, rel=1e-14)
        assert bT == -1.0

    def test_signs_on_horizon(self, adv_params):
        ts = np.linspace(0.0, 1.0, 101)
        a, b = advertising_coefficients(adv_params, ts)
        assert np.all(a > 0.0)
        assert np.all(b < 0.0)
        assert np.all(np.diff(a) > 0.0)  # a grows toward a(T) = 1

    def test_scalar_and_array_forms(self, adv_params):
        a, b = advertising_coefficients(adv_params, 0.5)
        assert isinstance(a, float) and isinstance(b, float)
        av, bv = advertising_coefficients(adv_params, np.array([0.0, 0.5]))
        assert av.shape == bv.shape == (2,)
        assert av[1] == pytest.approx(a, rel=1e-15)

    def test_time_domain_validated(self, adv_params):
        with pytest.raises(ValueError, match="must lie in"):
            advertising_coefficients(adv_params, -0.1)
        with pytest.raises(ValueError, match="must lie in"):
            advertising_coefficients(adv_params, 1.1)

    def test_b_solves_its_linear_ode(self, adv_params):
        # b' = -gamma b with b(T) = -1, so b(t) = -e^{gamma (t-T)}.
        ts = np.linspace(0.0, 1.0, 7)
        _, b = advertising_coefficients(adv_params, ts)
        assert np.allclose(b, -np.exp(adv_params.gamma * (ts - 1.0)), rtol=1e-14)


class TestValueFunction:
    def test_frozen_point(self, adv_params):
        assert advertising_value(adv_params, 0.0, 2.0) == pytest.approx(
            V0_AT_2, rel=1e-12)

    def test_piecewise_branches(self, adv_params):
        a0, b0 = advertising_coefficients(adv_params, 0.0)
        assert advertising_value(adv_params, 0.0, 2.0) == pytest.approx(
            a0 * 2.0**1.5, rel=1e-14)
        assert advertising_value(adv_params, 0.0, -2.0) == pytest.approx(
            b0 * 2.0**1.5, rel=1e-14)
        assert advertising_value(adv_params, 0.0, 0.0) == 0.0

    def test_gradient_branches_and_continuity(self, adv_params):
        a0, b0 = advertising_coefficients(adv_params, 0.0)
        g = advertising_gradient(adv_params, 0.0, 2.0)
        assert g == pytest.approx(1.5 * a0 * math.sqrt(2.0), rel=1e-14)
        g_neg = advertising_gradient(adv_params, 0.0, -2.0)
        assert g_neg == pytest.approx(1.5 * (-b0) * math.sqrt(2.0), rel=1e-14)
        assert g_neg > 0  # dv/dx is continuous and nonnegative through 0
        assert advertising_gradient(adv_params, 0.0, 0.0) == 0.0
        assert abs(advertising_gradient(adv_params, 0.0, 1e-10)) <= 1e-4
        assert abs(advertising_gradient(adv_params, 0.0, -1e-10)) <= 1e-4

    def test_feedback_frozen_and_branches(self, adv_params):
        a0, b0 = advertising_coefficients(adv_params, 0.0)
        fb = advertising_feedback(adv_params, 0.0, 2.0)
        assert fb == pytest.approx(FEEDBACK0_AT_2, rel=1e-12)
        assert fb == pytest.approx(a0**2 * 2.0, rel=1e-14)
        assert advertising_feedback(adv_params, 0.0, -2.0) == pytest.approx(
            b0**2 * 2.0, rel=1e-14)
        assert advertising_feedback(adv_params, 0.0, 0.0) == 0.0

    def test_vectorized_over_x(self, adv_params):
        xs = np.array([-1.0, 0.0, 2.0])
        v = advertising_value(adv_params, 0.5, xs)
        assert v.shape == (3,)
        assert v[1] == 0.0
        assert v[0] < 0.0 < v[2]

    def test_solution_bundle_protocol(self, adv_params, adv_solution):
        xb = np.array([[2.0], [-1.0]])
        np.testing.assert_allclose(
            adv_solution.value_at(0.0, xb),
            advertising_value(adv_params, 0.0, xb[:, 0]))
        assert adv_solution.gradient_at(0.0, xb).shape == (2, 1)
        assert adv_solution.provenance == "closed_form"


# One state, three states and four states, each as the (P, 1) batch a
# candidate is probed at.
STATES = [np.array([[2.0]]), np.array([[-1.0], [0.0], [2.0]]),
          np.array([[2.0], [-1.0], [0.0], [0.5]])]


class TestClosedFormCandidates:
    def test_both_solutions_are_closed_form_values(self, adv_solution):
        for sol in (adv_solution, discounted_demo_solution(0.5, 2.0)):
            assert isinstance(sol, ClosedFormValue)
            assert sol.provenance == "closed_form"

    @pytest.mark.parametrize("x", STATES, ids=["float", "flat", "batch"])
    def test_advertising_solution_is_the_closed_form_bitwise(self, adv_params, adv_solution, x):
        for t in (0.0, 0.6):
            assert (adv_solution.value_at(t, x).tobytes()
                    == advertising_value(adv_params, t, x[:, 0]).tobytes())
            assert (adv_solution.gradient_at(t, x).tobytes()
                    == advertising_gradient(adv_params, t, x[:, 0]).tobytes())

    @pytest.mark.parametrize("x", STATES, ids=["float", "flat", "batch"])
    def test_discounted_solution_is_the_constant_bitwise(self, x):
        sol = discounted_demo_solution(0.5, 2.0)
        n = x.shape[0]
        assert sol.value_at(0.3, x).tobytes() == np.full(n, 4.0).tobytes()
        assert sol.gradient_at(0.3, x).tobytes() == np.zeros((n, 1)).tobytes()

    @pytest.mark.parametrize("name", ["advertising", "discounted"])
    def test_a_wider_batch_raises(self, adv_solution, name, caplog):
        # A 1-d closed form once read column 0 of a (P, 2) batch without a
        # word.  The error names the batch, and nothing is logged first.
        sol = adv_solution if name == "advertising" else discounted_demo_solution(0.5, 2.0)
        with caplog.at_level(logging.WARNING, logger="hjbverify"):
            for probe in (sol.value_at, sol.gradient_at):
                with pytest.raises(ValueError, match=r"\(P, 1\) batch of points, got shape \(2, 2\)"):
                    probe(0.3, np.array([[0.25, 0.75], [0.5, 0.9]]))
        assert not caplog.records


class TestAdvertisingProblem:
    def test_structure(self, adv_problem):
        assert adv_problem.sense == "maximize"
        assert adv_problem.kink_points == (0.0,)
        assert adv_problem.name == "advertising"
        assert adv_problem.control_set.kind == "box"
        assert adv_problem.closed_form_hamiltonian is not None

    def test_dynamics_values(self, adv_problem):
        x = np.array([[2.0]])
        z = np.array([[0.3]])
        assert adv_problem.f0(0.0, x)[0, 0] == -2.0            # -alpha x
        assert adv_problem.f1(0.0, x, z)[0, 0] == 0.3          # + z
        assert adv_problem.diff(0.0, x)[0, 0, 0] == 1.0        # beta x
        assert adv_problem.cost_rate(0.0, x, z)[0] == pytest.approx(
            -0.3**1.5)                                         # reward -z^{1.5}
        assert adv_problem.terminal(np.array([[-2.0]]))[0] == pytest.approx(
            -2.0**1.5)

    def test_feedback_attains_hamiltonian_argmin(self, adv_params, adv_problem):
        for x in (0.5, 2.0, 4.0):
            p_canonical = -advertising_gradient(adv_params, 0.25, x)
            ev = minimize(adv_problem, 0.25, x, p_canonical)
            assert ev.argmin == pytest.approx(
                advertising_feedback(adv_params, 0.25, x), rel=1e-10)


class TestExitDemos:
    def test_constant_demo(self):
        prob = make_exit_demo("constant", constant_value=2.5)
        assert prob.domain == Domain.interval(0.0, 1.0)
        assert prob.horizon.terminal_time == 1.0
        x = np.array([[0.5]])
        assert prob.terminal(x)[0] == 2.5
        assert prob.boundary(0.3, np.array([[0.0]]))[0] == 2.5
        assert prob.running_cost(0.0, x, np.array([[0.0]]))[0] == 0.0

    def test_expected_exit_time_demo(self, exit_time_problem):
        assert exit_time_problem.horizon.terminal_time == 3.0
        x = np.array([[0.5]])
        assert exit_time_problem.cost_rate(0.0, x, np.array([[0.0]]))[0] == 1.0
        assert exit_time_problem.terminal(x)[0] == 0.0

    def test_custom_horizon(self):
        assert make_exit_demo("constant", horizon=5.0).horizon.terminal_time == 5.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown exit demo kind"):
            make_exit_demo("reflecting")


class TestDiscountedDemo:
    def test_value_is_cost_over_rate(self):
        sol = discounted_demo_solution(0.5, 2.0)
        assert sol.value_at(0.0, np.array([[1.0]]))[0] == 4.0
        np.testing.assert_array_equal(
            sol.value_at(0.0, np.array([[1.0], [7.0]])), [4.0, 4.0])
        np.testing.assert_array_equal(
            sol.gradient_at(0.0, np.array([[1.0]])), [[0.0]])

    def test_hamiltonian_is_the_constant_cost(self):
        prob = make_discounted_demo(0.5, 2.0)
        ev = minimize(prob, 0.0, 1.0, -0.7)
        assert ev.value == 2.0
        assert ev.argmin == 0.0

    def test_rate_guard(self):
        with pytest.raises(ValueError, match="rate"):
            make_discounted_demo(rate=0.0)


class TestParameterRobustness:
    def test_other_valid_parameters_keep_invariants(self):
        # A second parameter point exercises the formulas off the defaults.
        p = AdvertisingParams(eta=0.3, alpha=2.0, beta=1.0, horizon=0.7)
        ts = np.linspace(0.0, 0.7, 29)
        a, b = advertising_coefficients(p, ts)
        assert np.all(a > 0.0) and np.all(b < 0.0)
        assert a[-1] == pytest.approx(1.0, rel=1e-12)
        assert b[-1] == -1.0
        # Gradient continuity through 0 and feedback positivity on x > 0.
        assert advertising_gradient(p, 0.0, 0.0) == 0.0
        assert advertising_feedback(p, 0.35, 1.3) > 0.0
