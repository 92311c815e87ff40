"""Hamiltonian evaluation, minimization, duality gaps, feedback maps."""

import dataclasses
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjbverify import (
    CoefficientError,
    ControlProblem,
    ControlSet,
    FiniteHorizon,
    advertising_feedback,
    current_value,
    duality_gap,
    feedback_map,
    make_exit_demo,
    minimize,
    rowwise,
)
from hjbverify import canonicalize, hamiltonian
from hjbverify.hamiltonian import _h_cv, _minimize_batch


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

    def test_one_point_set_returns_its_h_cv(self):
        prob = _linear_drift_problem(ControlSet.finite([[0.5, -2.0]]),
                                     cost=lambda t, x, z: x[:, 0] * z[:, 1] ** 2)
        xs, ps = np.linspace(-1.0, 1.0, 7)[:, None], np.linspace(3.0, -3.0, 7)[:, None]
        values, argmins = _minimize_batch(prob, 0.2, xs, ps)
        zs = np.tile([0.5, -2.0], (7, 1))
        assert minimize(prob, 0.2, xs[:1], ps[:1]).method == "scan"
        assert np.array_equal(argmins, zs)
        assert np.array_equal(values, _h_cv(prob, 0.2, xs, ps, zs))
        argmins[0, 0] = 9.0  # a fresh array, not a view of the set's points
        assert np.array_equal(prob.control_set.points, [[0.5, -2.0]])

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

    def test_a_transposed_gradient_is_not_reshaped_into_wrong_costates(self):
        # A (n, P) gradient of the right size was once reshaped to (P, n),
        # pairing each state with another state's costate.  It now raises;
        # the one-state-at-a-time form is declared with rowwise.
        prob = ControlProblem(
            dimension=2, noise_dimension=2,
            horizon=FiniteHorizon(1.0, lambda x: np.zeros(x.shape[0])),
            drift_uncontrolled=lambda t, x: np.zeros_like(x),
            drift_controlled=lambda t, x, z: z,
            diffusion=lambda t, x: np.tile(np.eye(2), (x.shape[0], 1, 1)),
            running_cost=lambda t, x, z: np.einsum("pk,pk->p", z, z),
            control_set=ControlSet.box([-np.inf, -np.inf], [np.inf, np.inf]),
            closed_form_hamiltonian=lambda t, x, p: (-0.25 * np.einsum("pn,pn->p", p, p), -0.5 * p))
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        with pytest.raises(ValueError, match=r"gradient_field returned shape \(2, 3\) for a batch, "
                                             r"expected \(3, 2\); .*hjbverify\.rowwise"):
            feedback_map(prob, lambda t, x: np.asarray(2.0 * x).T)(0.0, x)
        with pytest.raises(ValueError, match=r"gradient_field returned shape \(2,\) for a batch, "
                                             r"expected \(3, 2\)"):
            feedback_map(prob, lambda t, x: 2.0 * x[0])(0.0, x)
        got = feedback_map(prob, rowwise(lambda t, x: 2.0 * x))(0.0, x)
        assert np.array_equal(got, -x)

    def test_one_state_and_batches(self, adv_problem, adv_solution):
        fb = feedback_map(adv_problem, adv_solution)
        batch = fb(0.3, np.array([[2.0]]))
        assert batch.shape == (1, 1)
        assert fb(0.3, np.array([2.0])) == fb(0.3, 2.0) == batch[0, 0]
        # A flat array of several states is neither one state nor a batch.
        with pytest.raises(ValueError, match=r"single point of dimension 1.*got shape \(3,\)"):
            fb(0.3, np.array([1.0, 2.0, 3.0]))


class TestSinglePointShapes:
    """The single-point functions take one point each; several rows raise."""

    def test_minimize_rejects_three_rows(self, adv_problem):
        # Three 1-d rows were once read as a batch and row 0's H0 returned.
        with pytest.raises(ValueError, match=r"single point of dimension 1.*got shape \(3,\)"):
            minimize(adv_problem, 0.5, np.array([0.1, 0.2, 0.3]), np.array([-1.0, -2.0, -3.0]))

    def test_minimize_rejects_a_flat_costate_batch(self, adv_problem):
        with pytest.raises(ValueError, match=r"single point of dimension 1.*got shape \(2,\)"):
            minimize(adv_problem, 0.5, 0.1, np.array([-1.0, -2.0]))

    def test_current_value_and_duality_gap_reject_two_rows(self, adv_problem):
        two = np.array([[1.0], [2.0]])
        with pytest.raises(ValueError, match=r"single point of dimension 1.*got shape \(2, 1\)"):
            current_value(adv_problem, 0.0, two, -1.5, 1.0)
        with pytest.raises(ValueError, match=r"single point of dimension 1.*got shape \(2,\)"):
            duality_gap(adv_problem, 0.0, np.array([1.0, 2.0]), np.array([-2.0, -3.0]), 5.0)

    def test_gap_at_rejects_two_controls(self, adv_problem):
        ev = minimize(adv_problem, 0.0, 1.0, -2.0)
        with pytest.raises(ValueError, match=r"single point of dimension 1"):
            ev.gap_at(np.array([1.0, 5.0]))

    def test_every_single_point_form_gives_the_same_result(self, adv_problem):
        for x, p in ((1.0, -3.0), (np.array([1.0]), np.array([-3.0])),
                     (np.array([[1.0]]), np.array([[-3.0]]))):
            ev = minimize(adv_problem, 0.0, x, p)
            assert (ev.value, ev.argmin) == (-4.0, 4.0)
            assert current_value(adv_problem, 0.0, x, p, np.array([4.0])) == ev.value

    def test_a_scalar_for_a_two_dimensional_point_raises(self):
        prob = _linear_drift_problem(ControlSet.box([-1.0, -1.0], [1.0, 1.0]))
        with pytest.raises(ValueError, match=r"single point of dimension 2.*got shape \(\)"):
            current_value(prob, 0.0, 0.0, 1.0, 0.5)


class TestClosedFormContract:
    """A closed form gets the (P, n) xs and ps and returns documented shapes."""

    def _recording(self, problem, seen, returns=None):
        def hamiltonian(t, x, p):
            seen.append((x.shape, p.shape))
            return returns(x, p) if returns else problem.closed_form_hamiltonian(t, x, p)
        return dataclasses.replace(problem, closed_form_hamiltonian=hamiltonian)

    def test_a_one_dimensional_closed_form_gets_column_batches(self, adv_problem):
        seen = []
        prob = self._recording(canonicalize(adv_problem), seen)
        xs, ps = np.linspace(0.1, 1.0, 5)[:, None], np.linspace(-3.0, 1.0, 5)[:, None]
        values, argmins = _minimize_batch(prob, 0.2, xs, ps)
        assert seen == [((5, 1), (5, 1))]
        assert values.shape == (5,) and argmins.shape == (5, 1)
        m = np.maximum(-ps[:, 0], 0.0) / 1.5
        np.testing.assert_allclose(values, -0.5 * m**3, rtol=1e-14)
        np.testing.assert_allclose(argmins[:, 0], m**2, rtol=1e-14)

    @pytest.mark.parametrize("returns", [
        lambda x, p: (x[:, 0], p[:, 0]),             # (P,) and (P,) for k = 1
        lambda x, p: (x, p),                         # (P, 1) and (P, 1)
    ], ids=["flat", "column"])
    def test_documented_shapes_are_taken(self, adv_problem, returns):
        prob = self._recording(canonicalize(adv_problem), [], returns)
        xs, ps = np.array([[1.0], [2.0], [3.0]]), np.array([[4.0], [5.0], [6.0]])
        values, argmins = _minimize_batch(prob, 0.0, xs, ps)
        assert np.array_equal(values, [1.0, 2.0, 3.0]) and np.array_equal(argmins, ps)

    @pytest.mark.parametrize("returns, shapes", [
        (lambda x, p: (0.0, 0.0), r"\(\) and \(\)"),  # a scalar, once broadcast silently
        (lambda x, p: (x[:1, 0], p[:, 0]), r"\(1,\) and \(3,\)"),
        (lambda x, p: (x[:, 0], p.T), r"\(3,\) and \(1, 3\)"),
    ], ids=["scalar", "one_row", "transposed"])
    def test_another_shape_raises_naming_both(self, adv_problem, returns, shapes):
        prob = self._recording(canonicalize(adv_problem), [], returns)
        xs = np.array([[1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match=r"closed_form_hamiltonian returned shapes " + shapes):
            _minimize_batch(prob, 0.0, xs, -xs)

    def test_a_two_dimensional_closed_form_of_the_wrong_size_raises(self):
        # It once failed with a bare reshape error.
        prob = _linear_drift_problem(ControlSet.box([-1.0, -1.0], [1.0, 1.0]))
        prob = dataclasses.replace(prob, closed_form_hamiltonian=lambda t, x, p: (p[:, 0], p[:, 0]))
        xs = np.zeros((4, 1))
        with pytest.raises(ValueError, match=r"shapes \(4,\) and \(4,\) at x and p of shape "
                                             r"\(4, 1\): expected \(4,\) or \(4, 1\) and \(4, 2\)"):
            _minimize_batch(prob, 0.0, xs, xs + 1.0)


# ---------------------------------------------------------------------------
# Box-scan corpus: one problem class per shape of U and of H_cv.  Each class
# gives (problem, xs, ps) rows and, where one exists, the analytic
# (H0, argmin) of H_cv = p·sum(z) + cost(x, z).
# ---------------------------------------------------------------------------

_ROWS = 64
_T = 0.3


def _k2_argmin(x, p):
    return np.column_stack([np.clip(0.3 * x - p / 2, -1.0, 1.0), -x - p / 2])


_VALLEY_C = 0.7


def _valley_cost(u, v):
    return u * u + v * v + 2.0 * _VALLEY_C * u * v


def _valley_argmin(x, p):
    s = -p / (2.0 * (1.0 + _VALLEY_C))
    return np.column_stack([x + s, s - x])


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
    # k = 2, coupled: u² + v² + 2c·u·v in u = z0 - x, v = z1 + x, Hessian
    # eigenvalues 1 ± c.  Coordinate descent shrinks the error only by c² per
    # round, so this valley needs about twenty rounds.
    "valley": (ControlSet.box([-np.inf, -np.inf], [np.inf, np.inf]),
               lambda t, x, z: _valley_cost(z[:, 0] - x[:, 0], z[:, 1] + x[:, 0]),
               (-1.0, 1.0), (-2.0, 2.0), _valley_argmin),
}


# Corners beyond 2^53, where base + 1 rounds back to base: ((z - c)/1e3 - x)²
# at c = ±1e17 and p = 0, minimized at z = c ± 1e3·x.  They are kept out of
# _CORPUS, whose classes are seeded by their places among its sorted names.
_FAR = 1e17
_FAR_CORNERS = {
    "far_lower": (ControlSet.box([_FAR], [np.inf]),
                  lambda t, x, z: ((z[:, 0] - _FAR) / 1e3 - x[:, 0]) ** 2,
                  (1e3, 1e4), (0.0, 0.0), None),
    "far_upper": (ControlSet.box([-np.inf], [-_FAR]),
                  lambda t, x, z: ((z[:, 0] + _FAR) / 1e3 + x[:, 0]) ** 2,
                  (1e3, 1e4), (0.0, 0.0), None),
}


def _overflow_quiet(cost):
    def quiet(t, x, z):
        with np.errstate(over="ignore"):
            return cost(t, x, z)
    return quiet


def _corpus(name):
    U, cost, x_range, p_range, argmin = {**_CORPUS, **_FAR_CORNERS}[name]
    rng = np.random.default_rng([*sorted(_CORPUS), *sorted(_FAR_CORNERS)].index(name))
    xs = rng.uniform(*x_range, (_ROWS, 1))
    ps = rng.uniform(*p_range, (_ROWS, 1))
    return _linear_drift_problem(U, cost=_overflow_quiet(cost)), xs, ps, argmin


def _reference_stops(prob, xs, ps, base, axis, direction):
    """The bracket's doubling rule, one probe per H_cv call and one row at a
    time, in units of 1 or of the corner's ulp if that is larger."""
    def h(x, p, value):
        z = base.copy()
        z[axis] = value
        try:
            return float(_h_cv(prob, _T, x[None], p[None], z[None])[0])
        except CoefficientError:
            return math.inf

    stops = []
    for x, p in zip(xs, ps):
        prev, run, step = h(x, p, base[axis]), 0, max(1.0, math.ulp(base[axis]))
        while run < 3:
            value = base[axis] + direction * step
            cur = h(x, p, value)
            rise = math.isfinite(cur) and cur >= prev - 1e-14 * (1.0 + abs(prev))
            run = run + 1 if rise or (cur == math.inf and run > 0) else 0
            prev, step = cur, 2.0 * step
        stops.append(value)
    return np.array(stops)


def _point_h(prob, x, p):
    """H_cv of the row (x, p) at one control value, one point per call; +inf where it fails."""
    def h(value):
        try:
            return float(_h_cv(prob, _T, x[None], p[None], np.array([[value]]))[0])
        except CoefficientError:
            return math.inf
    return h


def _reference_section(h, a, b):
    """The section search of one row, pass by pass in Python floats, with the same formulas."""
    k = hamiltonian._SECTION_POINTS
    frac = [i / (k + 1) for i in range(k + 2)]
    lo, hi, width = a, b, b - a
    while width > hamiltonian._CONTROL_STEP:
        values = [h(lo + width * f) for f in frac[1:-1]]
        best = min(range(k), key=values.__getitem__)  # the first minimizing point
        lo, hi = lo + width * frac[best], lo + width * frac[best + 2]
        if not hi - lo < width:  # far out, ulp(z) > step stalls the bracket
            break
        width = hi - lo
    candidates = [0.5 * (lo + hi), a, b]
    values = [h(c) for c in candidates]
    best = min(range(3), key=values.__getitem__)
    return candidates[best], values[best]


def _reference_scan(prob, x, p):
    """The one-axis box scan of one row in Python floats: bracket, coarse grid, one section pass."""
    U, res = prob.control_set, hamiltonian._SCAN_POINTS
    base = np.where(np.isfinite(U.lower), U.lower, np.where(np.isfinite(U.upper), U.upper, 0.0))
    lo, hi = float(U.lower[0]), float(U.upper[0])
    if not math.isfinite(hi):
        hi = float(_reference_stops(prob, x[None], p[None], base, 0, 1.0)[0])
    if not math.isfinite(lo):
        lo = float(_reference_stops(prob, x[None], p[None], base, 0, -1.0)[0])
    h = _point_h(prob, x, p)
    step = (hi - lo) / (res - 1)
    grid = [lo + i * step for i in range(res - 1)] + [hi]  # np.linspace's formula
    values = [h(z) for z in grid]
    vmin = min(v for v in values if not math.isnan(v))
    best = next(i for i, v in enumerate(values) if v <= vmin + 1e-12 * (1.0 + abs(vmin)))
    z = grid[best]
    return _reference_section(h, max(lo, z - step), min(hi, z + step))


def _counting(prob, sizes):
    """``prob`` with a drift_controlled that appends each call's row count to ``sizes``.

    Every H_cv evaluation calls it once, whichever path of the scan makes it.
    """
    drift = prob.drift_controlled
    return dataclasses.replace(prob, drift_controlled=lambda t, x, z: sizes.append(z.shape[0]) or drift(t, x, z))


def _analytic_h0(prob, xs, ps, zstar):
    return ps[:, 0] * zstar.sum(axis=1) + prob.cost_rate(_T, xs, zstar)


class TestBoxScanCorpus:
    @pytest.mark.parametrize("name", sorted(_CORPUS))
    def test_batch_equals_rows_alone(self, name):
        # The lockstep scan must not couple rows: bit for bit, each row of
        # the batch gets what a one-row batch gives.
        prob, xs, ps, _ = _corpus(name)
        values, argmins = _minimize_batch(prob, _T, xs, ps)
        assert minimize(prob, _T, xs[:1], ps[:1]).method == "scan"
        for i in range(_ROWS):
            v, z = _minimize_batch(prob, _T, xs[i:i + 1], ps[i:i + 1])
            assert v[0] == values[i] and np.array_equal(z[0], argmins[i]), i

    @pytest.mark.parametrize("name", sorted(n for n in _CORPUS if n != "flat"))
    def test_matches_analytic_minimum(self, name):
        prob, xs, ps, argmin = _corpus(name)
        values, argmins = _minimize_batch(prob, _T, xs, ps)
        zstar = argmin(xs[:, 0], ps[:, 0])
        h0 = _analytic_h0(prob, xs, ps, zstar)
        assert np.all(np.abs(values - h0) <= 1e-12 * (1.0 + np.abs(h0)))
        # An argmin is resolved to ~sqrt(eps·|H0|) by the curvature-1
        # minimum, hence relative to its size (z* reaches 800 here).
        assert np.all(np.abs(argmins - zstar) <= 1e-7 * (1.0 + np.abs(zstar)))

    @pytest.mark.parametrize("name", sorted(_CORPUS))
    def test_refinement_stops_once_converged(self, name, monkeypatch):
        # One section pass settles a single axis; the separable k2 is done
        # after a second round that finds nothing left to gain.
        passes = []
        section = hamiltonian._section
        monkeypatch.setattr(hamiltonian, "_section",
                            lambda *a, **kw: passes.append(a[5]) or section(*a, **kw))
        prob, xs, ps, _ = _corpus(name)
        _minimize_batch(prob, _T, xs, ps)
        k = prob.control_dimension
        if name == "valley":
            assert 10 <= len(passes) // k < 100  # many rounds, but converged
        elif k == 1:
            assert passes == [0]
        else:
            assert passes in ([0, 1], [0, 1, 0, 1])

    @pytest.mark.parametrize("name", sorted(n for n in _CORPUS if n not in ("k2", "valley")))
    def test_one_axis_scan_makes_few_h_cv_calls(self, name):
        # Rows are spent instead of calls, since each call has a fixed cost:
        # a section pass evaluates 11 points per row in one call and a
        # bracket call probes up to 8 doublings, so a one-axis minimization
        # of 64 rows takes 11 to 15 calls (37 to 55 with golden section and
        # one doubling per call).  Overflowing points read +inf within their
        # call, so the overflow class takes 18.
        calls = []
        prob, xs, ps, _ = _corpus(name)
        _minimize_batch(_counting(prob, calls), _T, xs, ps)
        assert len(calls) <= (20 if name == "overflow" else 16)

    @pytest.mark.parametrize("name", ["upper_bounded", "two_sided", "overflow", "valley"])
    def test_bracket_blocks_make_no_more_calls_than_single_doublings(self, name, monkeypatch):
        # The overflow class's failing probes read +inf within their block's
        # one call.  A call stays within _CALL_POINTS points: a large batch
        # probes one doubling per call.
        prob, xs, ps, _ = _corpus(name)
        U = prob.control_set
        base = np.where(np.isfinite(U.lower), U.lower, np.where(np.isfinite(U.upper), U.upper, 0.0))
        counts = {}
        for block in (1, hamiltonian._BRACKET_BLOCK):
            for rows in (1, 10):
                x, p, points = np.tile(xs, (rows, 1)), np.tile(ps, (rows, 1)), []
                monkeypatch.setattr(hamiltonian, "_BRACKET_BLOCK", block)
                counted = _counting(prob, points)
                for axis in range(U.dimension):
                    for bound, direction in ((U.upper, 1.0), (U.lower, -1.0)):
                        if not np.isfinite(bound[axis]):
                            hamiltonian._bracket(counted, _T, x, p, base, axis, direction)
                assert max(points) <= max(hamiltonian._CALL_POINTS, x.shape[0])
                counts[block, rows] = len(points)
        assert counts[hamiltonian._BRACKET_BLOCK, 1] <= counts[1, 1]

    @pytest.mark.parametrize("name, block", [
        pytest.param(name, block, id=name if block == hamiltonian._BRACKET_BLOCK else f"{name}-block{block}")
        for name in ("upper_bounded", "two_sided", "overflow", "valley", *_FAR_CORNERS)
        for block in (1, 2, 3, 8)])
    def test_bracket_stops_equal_the_sequential_rule(self, name, block, monkeypatch):
        # A call decides a whole block of probes at once; short blocks put
        # block edges inside runs of rises and inside the overflow class's
        # runs of +inf, which the run counter must carry across.  The far
        # corners step in units of their ulp, 16.
        monkeypatch.setattr(hamiltonian, "_BRACKET_BLOCK", block)
        prob, xs, ps, _ = _corpus(name)
        U = prob.control_set
        base = np.where(np.isfinite(U.lower), U.lower, np.where(np.isfinite(U.upper), U.upper, 0.0))
        for axis in range(U.dimension):
            for bound, direction in ((U.upper, 1.0), (U.lower, -1.0)):
                if np.isfinite(bound[axis]):
                    continue
                stops = hamiltonian._bracket(prob, _T, xs, ps, base, axis, direction)
                want = _reference_stops(prob, xs, ps, base, axis, direction)
                assert np.array_equal(stops, want), (axis, direction)

    @pytest.mark.parametrize("name", sorted(_FAR_CORNERS))
    def test_bracket_steps_past_a_corner_beyond_2_53(self, name):
        # Steps of 1 from 1e17 round back to the corner, and three flat
        # probes read as an upturn: the scan stopped there with H0 = 5.329e7.
        U, cost, *_ = _FAR_CORNERS[name]
        ev = minimize(_linear_drift_problem(U, cost), _T, 7.3e3, 0.0)
        want = _FAR + 7.3e6 if name == "far_lower" else -_FAR - 7.3e6
        assert abs(ev.value) <= 1e-9
        assert abs(ev.argmin - want) <= math.ulp(want)

    @pytest.mark.parametrize("name", sorted(n for n in _CORPUS if _CORPUS[n][0].dimension == 1))
    def test_section_equals_the_scalar_reference(self, name):
        # The batched section search against one row at a time in Python
        # floats, bit for bit; rows leave the batch at different passes, and
        # every eighth bracket is already narrower than the control step.
        prob, xs, ps, _ = _corpus(name)
        _, argmins = _minimize_batch(prob, _T, xs, ps)
        rng = np.random.default_rng(0)
        a = argmins[:, 0] - rng.uniform(0.0, 2.0, _ROWS)
        b = argmins[:, 0] + rng.uniform(0.0, 2.0, _ROWS)
        b[::8] = a[::8] + 5e-9
        zs, values = hamiltonian._section(prob, _T, xs, ps, argmins, 0, a, b)
        for i in range(_ROWS):
            want = _reference_section(_point_h(prob, xs[i], ps[i]), float(a[i]), float(b[i]))
            assert (zs[i].hex(), values[i].hex()) == (want[0].hex(), want[1].hex()), i

    @pytest.mark.parametrize("name", sorted(n for n in _CORPUS if _CORPUS[n][0].dimension == 1))
    def test_one_axis_scan_equals_the_scalar_reference(self, name):
        # The whole lockstep scan (bracket, coarse grid, one section pass)
        # against a scan of each row alone in Python floats, bit for bit.
        prob, xs, ps, _ = _corpus(name)
        values, argmins = _minimize_batch(prob, _T, xs, ps)
        for i in range(_ROWS):
            z, v = _reference_scan(prob, xs[i], ps[i])
            assert (argmins[i, 0].hex(), values[i].hex()) == (z.hex(), v.hex()), i

    @pytest.mark.parametrize("c, warns", [(_VALLEY_C, False), (0.99, True)])
    def test_round_cap_warns_once_with_the_row_count(self, c, warns, caplog):
        # At c = 0.99 coordinate descent contracts by only c² ≈ 0.98 per
        # round, so rows are still descending after the 100-round cap.
        prob, xs, ps, _ = _corpus("valley")
        prob = _linear_drift_problem(prob.control_set, cost=lambda t, x, z: (
            (z[:, 0] - x[:, 0]) ** 2 + (z[:, 1] + x[:, 0]) ** 2
            + 2.0 * c * (z[:, 0] - x[:, 0]) * (z[:, 1] + x[:, 0])))
        with caplog.at_level(logging.WARNING, logger="hjbverify"):
            _minimize_batch(prob, _T, xs, ps)
        records = [r for r in caplog.records if r.name == "hjbverify.hamiltonian"]
        if not warns:
            assert records == []
            return
        (record,) = records
        capped = int(re.search(r"(\d+) of 64 rows", record.getMessage()).group(1))
        assert 0 < capped <= _ROWS and "100 rounds" in record.getMessage()

    def test_flat_hamiltonian_is_zero(self):
        prob, xs, ps, _ = _corpus("flat")
        values, argmins = _minimize_batch(prob, _T, xs, ps)
        assert np.all(values == 0.0) and np.all(argmins >= 0.0)

    @pytest.mark.parametrize("x", [7.0, 20.0])
    def test_overflow_far_out_counts_as_upturn(self, x):
        # Two consecutive +inf probes once compared inf >= inf - inf (NaN),
        # reset the upturn run and raised "not finite" here.
        prob, _, _, _ = _corpus("overflow")
        v, z = _minimize_batch(prob, 0.0, np.array([[x]]), np.array([[-1.0]]))
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
        # A drift that returns its argument: on the coarse grid that is a
        # view of the grid, which marking the failing rows must not touch.
        aliased = dataclasses.replace(prob, drift_controlled=lambda t, x, z: z)
        xs = np.array([[0.1], [7.0], [0.5], [20.0], [2.0]])
        ps = -np.ones_like(xs)
        for problem in (prob, aliased):
            overflowed.clear()
            values, argmins = _minimize_batch(problem, _T, xs, ps)
            assert 0 < len(overflowed & set(xs[:, 0])) < xs.shape[0]
            for i in range(xs.shape[0]):
                v, z = _minimize_batch(problem, _T, xs[i:i + 1], ps[i:i + 1])
                assert v[0] == values[i] and z[0, 0] == argmins[i, 0]

    def test_far_argmin_terminates(self):
        # z* = 5e17: floats there are 64 apart, so the section-search bracket
        # can never narrow to 1e-8; the search stops when it stops shrinking.
        prob = _linear_drift_problem(ControlSet.box([0.0], [np.inf]),
                                     cost=lambda t, x, z: (z[:, 0] / 1e9) ** 2)
        v, z = _minimize_batch(prob, _T, np.array([[0.0]]), np.array([[-1.0]]))
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

    def test_row_whose_whole_grid_fails_raises_its_error(self):
        # sqrt(x - 1) is NaN at every grid point of the x = 0.5 row only.
        def cost(t, x, z):
            with np.errstate(invalid="ignore"):
                return np.sqrt(x[:, 0] - 1.0) * z[:, 0] ** 2

        prob = _linear_drift_problem(ControlSet.box([0.0], [1.0]), cost=cost)
        xs = np.array([[2.0], [0.5], [3.0]])
        with pytest.raises(CoefficientError, match=re.escape("x=[0.5]")):
            _minimize_batch(prob, _T, xs, -np.ones_like(xs))

    def test_overflow_past_a_finite_minimum_is_named(self):
        # H_cv = -z + exp(2(z - 600)) is coercive, with z* = 600 - ln(2)/2 and
        # H0 = 0.5 - z*; but the bracket's probe after 512 is 1024, where the
        # cost overflows.  The scan still raises (+inf cannot be told from a
        # breakdown), and says that the probes overflowed.
        def cost(t, x, z):
            with np.errstate(over="ignore"):
                return np.exp(2.0 * (z[:, 0] - 40.0 * x[:, 0]))

        prob = _linear_drift_problem(ControlSet.box([0.0], [np.inf]), cost=cost)
        with pytest.raises(ValueError, match="overflowed before any finite increase") as info:
            _minimize_batch(prob, _T, np.array([[15.0]]), np.array([[-1.0]]))
        assert f"t={_T}, x=[15.], p=[-1.]" in str(info.value)

    def test_breakdown_far_out_is_not_an_upturn(self):
        # H_cv = -z + x z² at x = 0 decreases forever; past |z| ~ 1.3e154 the
        # cost is 0·inf = NaN, which the scan reads as +inf.  That must not
        # bracket the minimum (and then fail on the NaN): no finite increase
        # preceded it, so the Hamiltonian is reported as not finite.
        def cost(t, x, z):
            with np.errstate(over="ignore", invalid="ignore"):
                return x[:, 0] * z[:, 0] ** 2

        prob = _linear_drift_problem(ControlSet.box([0.0], [np.inf]), cost=cost)
        with pytest.raises(ValueError, match="Hamiltonian is not finite"):
            _minimize_batch(prob, _T, np.array([[0.0]]), np.array([[-1.0]]))
