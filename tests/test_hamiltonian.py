"""Hamiltonian evaluation, minimization, duality gaps, feedback maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjbverify import (
    ControlProblem,
    ControlSet,
    FiniteHorizon,
    advertising_feedback,
    current_value,
    duality_gap,
    feedback_map,
    make_exit_demo,
    minimize,
)
from hjbverify.hamiltonian import _minimize_batch


def _linear_drift_problem(control_set, cost=None, sense="minimize"):
    """F1 = z (per-axis sum for multi-d controls), configurable running cost."""
    k = control_set.dimension
    return ControlProblem(
        dimension=1,
        noise_dimension=1,
        horizon=FiniteHorizon(1.0, lambda x: np.zeros(x.shape[0])),
        drift_uncontrolled=lambda t, x: np.zeros_like(x),
        drift_controlled=lambda t, x, z: np.sum(z, axis=1, keepdims=True),
        diffusion=lambda t, x: np.ones(x.shape + (1,)),
        running_cost=cost or (lambda t, x, z: np.zeros(x.shape[0])),
        control_set=control_set,
        sense=sense,
    )


class TestCurrentValue:
    def test_inner_product_only(self):
        prob = _linear_drift_problem(ControlSet.box([0.0], [10.0]))
        assert current_value(prob, 0.0, 1.0, 2.0, 3.0) == pytest.approx(6.0)

    def test_advertising_canonical_form(self, adv_problem):
        # Canonical (minimize) form: H_cv = z p + z^{1+eta}; z=1, p=-1.5 -> -0.5.
        assert current_value(adv_problem, 0.0, 1.0, -1.5, 1.0) == pytest.approx(-0.5)

    def test_rejects_inadmissible_control(self, adv_problem):
        with pytest.raises(ValueError, match="outside the admissible set"):
            current_value(adv_problem, 0.0, 1.0, 0.0, -1.0)

    def test_finite_set_boundary_point(self):
        prob = _linear_drift_problem(ControlSet.finite([[0.0], [2.0]]),
                                     cost=lambda t, x, z: z[:, 0] ** 2)
        assert current_value(prob, 0.0, 1.0, 3.0, 2.0) == pytest.approx(10.0)


class TestMinimize:
    def test_closed_form_matches_formula(self, adv_problem):
        # Canonical closed form: min_{z>=0} [z p + z^{1+eta}] with eta = 1/2.
        ev = minimize(adv_problem, 0.0, 1.0, -3.0)
        m = 3.0 / 1.5
        assert ev.method == "closed_form"
        assert ev.value == pytest.approx(-0.5 * m**3, abs=1e-12)
        assert ev.argmin == pytest.approx(m**2, abs=1e-12)

    def test_nonnegative_gradient_gives_zero(self, adv_problem):
        ev = minimize(adv_problem, 0.0, 1.0, 2.0)
        assert ev.value == 0.0 and ev.argmin == 0.0

    def test_scan_agrees_with_closed_form(self, adv_problem):
        # Same instance without the registered closed form: the numerical
        # bracketing scan must land on the analytic minimizer.
        prob = _linear_drift_problem(ControlSet.box([0.0], [np.inf]),
                                     cost=lambda t, x, z: z[:, 0] ** 1.5)
        for p in (-3.0, -0.7, -0.05, 0.4):
            got = minimize(prob, 0.0, 1.0, p)
            want = minimize(adv_problem, 0.0, 1.0, p)
            assert got.method == "scan"
            assert got.value == pytest.approx(want.value, abs=1e-10)
            assert got.argmin == pytest.approx(want.argmin, abs=1e-6)

    def test_finite_set_enumeration(self):
        prob = _linear_drift_problem(ControlSet.finite([[-1.0], [0.0], [1.0]]),
                                     cost=lambda t, x, z: 0.1 * z[:, 0] ** 2)
        ev = minimize(prob, 0.0, 0.0, 1.0)   # z*1 + 0.1 z^2 minimized at z=-1
        assert ev.value == pytest.approx(-0.9)
        assert ev.argmin == -1.0

    def test_finite_tie_breaks_lexicographically(self):
        prob = _linear_drift_problem(ControlSet.finite([[1.0], [-1.0]]),
                                     cost=lambda t, x, z: np.abs(z[:, 0]))
        ev = minimize(prob, 0.0, 0.0, 0.0)   # both points give H_cv = 1
        assert ev.argmin == -1.0

    def test_two_dimensional_control_box(self):
        U = ControlSet.box([-1.0, -1.0], [1.0, 1.0])
        prob = _linear_drift_problem(
            U, cost=lambda t, x, z: (z[:, 0] - 0.3) ** 2 + (z[:, 1] + 0.2) ** 2
        )
        ev = minimize(prob, 0.0, 0.0, 0.0)
        assert ev.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(ev.argmin, [0.3, -0.2], atol=1e-6)

    def test_noncoercive_hamiltonian_raises(self):
        prob = _linear_drift_problem(ControlSet.box([0.0], [np.inf]),
                                     cost=lambda t, x, z: -2.0 * z[:, 0])
        with pytest.raises(ValueError, match="not finite"):
            minimize(prob, 0.0, 0.0, 1.0)   # H_cv = -z, decreasing forever


class TestDualityGap:
    def test_gap_at_argmin_clamps_to_zero(self, adv_problem):
        ev = minimize(adv_problem, 0.0, 1.0, -2.0)
        assert abs(ev.gap_at(ev.argmin)) <= ev.tol_gap
        assert duality_gap(adv_problem, 0.0, 1.0, -2.0, ev.argmin) == 0.0

    def test_gap_positive_off_argmin(self, adv_problem):
        assert duality_gap(adv_problem, 0.0, 1.0, -2.0, 5.0) > 0.1

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(-50.0, 50.0), z=st.floats(0.0, 40.0))
    def test_gap_never_meaningfully_negative(self, adv_problem, p, z):
        ev = minimize(adv_problem, 0.0, 1.0, p)
        assert ev.gap_at(z) >= -ev.tol_gap

    def test_singleton_control_set_gap_zero(self, exit_time_problem):
        ev = minimize(exit_time_problem, 0.0, 0.5, 1.3)
        assert ev.gap_at(0.0) <= ev.tol_gap


class TestFeedbackMap:
    def test_matches_closed_form_feedback(self, adv_params, adv_problem, adv_solution):
        fb = feedback_map(adv_problem, adv_solution)
        xs = np.linspace(-3.0, 3.0, 41).reshape(-1, 1)
        for t in (0.0, 0.5, 1.0):
            got = np.asarray(fb(t, xs)).reshape(-1)
            want = advertising_feedback(adv_params, t, xs[:, 0])
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_single_state_returns_scalar(self, adv_problem, adv_solution):
        fb = feedback_map(adv_problem, adv_solution)
        assert isinstance(fb(0.0, 2.0), float)

    def test_plain_gradient_callable_accepted(self, exit_constant_problem):
        fb = feedback_map(exit_constant_problem, lambda t, x: np.zeros_like(x))
        assert fb(0.0, 0.5) == 0.0


# ---------------------------------------------------------------------------
# Box-scan corpus: one problem class per shape of U and of H_cv.  Each class
# gives (problem, xs, ps) rows and, where one exists, the analytic
# (H0, argmin) of H_cv = p·sum(z) + cost(x, z).
# ---------------------------------------------------------------------------

_ROWS = 64
_T = 0.3


def _k2_argmin(x, p):
    return np.column_stack([np.clip(0.3 * x - p / 2, -1.0, 1.0), -x - p / 2])


_CORPUS = {
    # (z - x)^2 on [-1, 2]: interior and clipped minimizers.
    "bounded": (ControlSet.box([-1.0], [2.0]), lambda t, x, z: (z[:, 0] - x[:, 0]) ** 2,
                (-2.0, 2.0), (-3.0, 3.0), lambda x, p: np.clip(x - p / 2, -1.0, 2.0)[:, None]),
    # z^2 + x z on (-inf, 1].
    "upper_bounded": (ControlSet.box([-np.inf], [1.0]), lambda t, x, z: z[:, 0] ** 2 + x[:, 0] * z[:, 0],
                      (-2.0, 2.0), (-3.0, 3.0), lambda x, p: np.minimum(1.0, -(x + p) / 2)[:, None]),
    # cosh(z - x) on the whole line, |p| < 1: z* = x - asinh(p).
    "two_sided": (ControlSet.box([-np.inf], [np.inf]), lambda t, x, z: np.cosh(z[:, 0] - x[:, 0]),
                  (-2.0, 2.0), (-0.9, 0.9), lambda x, p: (x - np.arcsinh(p))[:, None]),
    # H_cv ≡ 0 at p = 0: every control attains H0 = 0.
    "flat": (ControlSet.box([0.0], [np.inf]), lambda t, x, z: np.zeros(x.shape[0]),
             (-2.0, 2.0), (0.0, 0.0), None),
    # z^2 on [0, 1]: the minimizer sits on a bound for most rows.
    "active": (ControlSet.box([0.0], [1.0]), lambda t, x, z: z[:, 0] ** 2,
               (-2.0, 2.0), (-5.0, 5.0), lambda x, p: np.clip(-p / 2, 0.0, 1.0)[:, None]),
    # exp(z - 40x) at p = -1: z* = 40x; the bracket runs into overflow for large x.
    "overflow": (ControlSet.box([0.0], [np.inf]), lambda t, x, z: np.exp(z[:, 0] - 40.0 * x[:, 0]),
                 (0.0, 20.0), (-1.0, -1.0), lambda x, p: 40.0 * x[:, None]),
    # k = 2: one bounded and one two-sided unbounded axis.
    "k2": (ControlSet.box([-1.0, -np.inf], [1.0, np.inf]),
           lambda t, x, z: (z[:, 0] - 0.3 * x[:, 0]) ** 2 + (z[:, 1] + x[:, 0]) ** 2,
           (-1.0, 1.0), (-2.0, 2.0), _k2_argmin),
}


def _overflow_quiet(cost):
    def quiet(t, x, z):
        with np.errstate(over="ignore"):
            return cost(t, x, z)
    return quiet


def _corpus(name):
    U, cost, x_range, p_range, argmin = _CORPUS[name]
    rng = np.random.default_rng(sorted(_CORPUS).index(name))
    xs = rng.uniform(*x_range, (_ROWS, 1))
    ps = rng.uniform(*p_range, (_ROWS, 1))
    return _linear_drift_problem(U, cost=_overflow_quiet(cost)), xs, ps, argmin


def _analytic_h0(prob, xs, ps, zstar):
    return ps[:, 0] * zstar.sum(axis=1) + prob.cost_rate(_T, xs, zstar)


class TestBoxScanCorpus:
    @pytest.mark.parametrize("name", sorted(_CORPUS))
    def test_batch_equals_rows_alone(self, name):
        # The lockstep scan must not couple rows: bit for bit, each row of
        # the batch gets what a one-row batch gives.
        prob, xs, ps, _ = _corpus(name)
        values, argmins, method = _minimize_batch(prob, _T, xs, ps)
        assert method == "scan"
        for i in range(_ROWS):
            v, z, _ = _minimize_batch(prob, _T, xs[i:i + 1], ps[i:i + 1])
            assert v[0] == values[i] and np.array_equal(z[0], argmins[i]), i

    @pytest.mark.parametrize("name", sorted(n for n in _CORPUS if n != "flat"))
    def test_matches_analytic_minimum(self, name):
        prob, xs, ps, argmin = _corpus(name)
        values, argmins, _ = _minimize_batch(prob, _T, xs, ps)
        zstar = argmin(xs[:, 0], ps[:, 0])
        h0 = _analytic_h0(prob, xs, ps, zstar)
        assert np.all(np.abs(values - h0) <= 1e-12 * (1.0 + np.abs(h0)))
        # An argmin is resolved to ~sqrt(eps·|H0|) by the curvature-1
        # minimum, hence relative to its size (z* reaches 800 here).
        assert np.all(np.abs(argmins - zstar) <= 1e-7 * (1.0 + np.abs(zstar)))

    def test_flat_hamiltonian_is_zero(self):
        prob, xs, ps, _ = _corpus("flat")
        values, argmins, _ = _minimize_batch(prob, _T, xs, ps)
        assert np.all(values == 0.0) and np.all(argmins >= 0.0)

    @pytest.mark.parametrize("x", [7.0, 20.0])
    def test_overflow_far_out_counts_as_upturn(self, x):
        # Two consecutive +inf probes once compared inf >= inf - inf (NaN),
        # reset the upturn run and raised "not finite" here.
        prob, _, _, _ = _corpus("overflow")
        v, z, _ = _minimize_batch(prob, 0.0, np.array([[x]]), np.array([[-1.0]]))
        assert v[0] == pytest.approx(1.0 - 40.0 * x, rel=1e-12)
        assert z[0, 0] == pytest.approx(40.0 * x, rel=1e-9)

    def test_mixed_overflow_batch_keeps_each_rows_result(self):
        overflowed = set()

        def cost(t, x, z):
            with np.errstate(over="ignore"):
                out = np.exp(z[:, 0] - 40.0 * x[:, 0])
            overflowed.update(x[~np.isfinite(out), 0].tolist())
            return out

        prob = _linear_drift_problem(ControlSet.box([0.0], [np.inf]), cost=cost)
        xs = np.array([[0.1], [7.0], [0.5], [20.0], [2.0]])
        ps = -np.ones_like(xs)
        values, argmins, _ = _minimize_batch(prob, _T, xs, ps)
        assert 0 < len(overflowed & set(xs[:, 0])) < xs.shape[0]
        for i in range(xs.shape[0]):
            v, z, _ = _minimize_batch(prob, _T, xs[i:i + 1], ps[i:i + 1])
            assert v[0] == values[i] and z[0, 0] == argmins[i, 0]

    def test_far_argmin_terminates(self):
        # z* = 5e17: floats there are 64 apart, so the golden-section bracket
        # can never narrow to 1e-8; the search stops when it stops shrinking.
        prob = _linear_drift_problem(ControlSet.box([0.0], [np.inf]),
                                     cost=lambda t, x, z: (z[:, 0] / 1e9) ** 2)
        v, z, _ = _minimize_batch(prob, _T, np.array([[0.0]]), np.array([[-1.0]]))
        assert v[0] == pytest.approx(-2.5e17, rel=1e-12)
        assert z[0, 0] == pytest.approx(5e17, rel=1e-7)

    def test_noncoercive_row_raises_naming_it(self):
        # H_cv = (x - 1) z decreases forever on the x = 0.5 row only.
        prob = _linear_drift_problem(ControlSet.box([0.0], [np.inf]),
                                     cost=lambda t, x, z: x[:, 0] * z[:, 0])
        xs = np.array([[1.0], [2.0], [0.5], [1.5]])
        ps = -np.ones_like(xs)
        with pytest.raises(ValueError, match="not finite") as info:
            _minimize_batch(prob, _T, xs, ps)
        assert f"t={_T}, x={xs[2]}, p={ps[2]}" in str(info.value)
