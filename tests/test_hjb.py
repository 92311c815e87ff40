"""PDE solver and field utilities: exactness, refinement, diagnostics."""

import dataclasses
import glob
import os
import sys
import threading

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from hjbverify import (
    ControlProblem,
    ControlSet,
    FiniteHorizon,
    Grid1D,
    SpaceTimeField,
    advertising_gradient,
    advertising_value,
    field_from_callable,
    gradient_diagnostics,
    make_discounted_demo,
    make_exit_demo,
    refine_ladder,
    residual,
    solve_exit,
    solve_parabolic,
)
from hjbverify import hjb
from hjbverify.hjb import _central_gradient, _solve_tridiagonal
from hjbverify.problem import canonicalize


def _heat_problem(terminal=None, kink_points=(), horizon=1.0):
    """dx = dW, no control, no running cost: v_t + v_xx/2 = 0."""
    return ControlProblem(
        dimension=1,
        noise_dimension=1,
        horizon=FiniteHorizon(horizon, terminal or (lambda x: x[:, 0] ** 2)),
        drift_uncontrolled=lambda t, x: np.zeros_like(x),
        drift_controlled=lambda t, x, z: np.zeros_like(x),
        diffusion=lambda t, x: np.ones(x.shape + (1,)),
        running_cost=lambda t, x, z: np.zeros(x.shape[0]),
        control_set=ControlSet.finite([[0.0]]),
        kink_points=kink_points,
    )


def _rows(field, problem):
    """R at every node of ``field``: one ``hjb._field_row`` per time level."""
    prob, maximize = canonicalize(problem), problem.sense == "maximize"
    return np.stack([hjb._field_row(prob, field, i, maximize) for i in range(field.grid.nt + 1)])


def _bang_bang_problem(kink_points=()):
    """dx = z dt + dW with z in {-1, 1}, no running cost: H0(p) = -|p|."""
    return ControlProblem(
        dimension=1,
        noise_dimension=1,
        horizon=FiniteHorizon(1.0, lambda x: np.abs(x[:, 0])),
        drift_uncontrolled=lambda t, x: np.zeros_like(x),
        drift_controlled=lambda t, x, z: z,
        diffusion=lambda t, x: np.ones(x.shape + (1,)),
        running_cost=lambda t, x, z: np.zeros(x.shape[0]),
        control_set=ControlSet.finite([[-1.0], [1.0]]),
        kink_points=kink_points,
    )


class TestGrid1D:
    def test_validation(self):
        with pytest.raises(ValueError, match="x_min < x_max"):
            Grid1D(1.0, 0.0, 11, 4)
        with pytest.raises(ValueError, match="nx"):
            Grid1D(0.0, 1.0, 2, 4)
        with pytest.raises(ValueError, match="nt"):
            Grid1D(0.0, 1.0, 11, 0)
        with pytest.raises(ValueError, match="t_final"):
            Grid1D(0.0, 1.0, 11, 4, t_final=-1.0)

    def test_sizes_must_be_integers(self):
        with pytest.raises(TypeError, match="nx must be an integer"):
            Grid1D(0.0, 1.0, 11.0, 4)
        with pytest.raises(TypeError, match="nt must be an integer"):
            Grid1D(0.0, 1.0, 11, 10.0)
        g = Grid1D(0.0, 1.0, np.int64(11), np.int32(4), t_final=1.0)
        assert (g.nx, g.nt) == (11, 4) and g.xs.shape == (11,)

    def test_spacings(self):
        g = Grid1D(0.0, 1.0, 11, 4, t_final=1.0)
        assert g.dx == pytest.approx(0.1)
        assert g.dt == pytest.approx(0.25)
        assert g.stability_ratio == pytest.approx(25.0)
        assert np.allclose(g.xs, np.linspace(0, 1, 11))
        assert g.ts.shape == (5,)
        # Built once per grid and shared, so no caller may write into them.
        assert g.xs is g.xs and g.ts is g.ts
        assert not g.xs.flags.writeable and not g.ts.flags.writeable

    def test_dt_requires_time_interval(self):
        with pytest.raises(ValueError, match="no time interval"):
            Grid1D(0.0, 1.0, 11, 4).dt

    def test_refined_halves_spacings(self):
        g = Grid1D(0.0, 1.0, 11, 4, t_final=1.0)
        r = g.refined()
        assert (r.nx, r.nt) == (21, 8)
        assert r.dx == pytest.approx(g.dx / 2)
        assert r.dt == pytest.approx(g.dt / 2)
        assert g.refined(4).nx == 41


class TestSolveParabolic:
    def test_quadratic_solution_exact(self):
        # v = x^2 + (T - t) solves v_t + v_xx/2 = 0; the scheme's central
        # second difference is exact on quadratics, so the march is exact.
        prob = _heat_problem()
        grid = Grid1D(-1.0, 1.0, 41, 20, t_final=1.0)
        field = solve_parabolic(prob, grid, boundary=lambda t, x: x**2 + (1.0 - t))
        exact = grid.xs[None, :] ** 2 + (1.0 - grid.ts)[:, None]
        assert np.max(np.abs(field.values - exact)) <= 1e-10
        assert field.provenance == "solved"

    def test_terminal_row_is_terminal_cost(self):
        prob = _heat_problem()
        grid = Grid1D(-1.0, 1.0, 41, 20, t_final=1.0)
        field = solve_parabolic(prob, grid, boundary=lambda t, x: x**2 + (1.0 - t))
        assert np.max(np.abs(field.values[-1] - grid.xs**2)) <= 1e-12

    def test_linear_solution_exact_with_extrapolation_edges(self):
        # v = x is a martingale value; zero second difference at the edges
        # is exact for affine fields, so no Dirichlet data is needed.
        prob = _heat_problem(terminal=lambda x: x[:, 0])
        grid = Grid1D(-1.0, 1.0, 31, 10, t_final=1.0)
        field = solve_parabolic(prob, grid)
        exact = np.tile(grid.xs, (grid.nt + 1, 1))
        assert np.max(np.abs(field.values - exact)) <= 1e-10
        assert np.max(np.abs(field.gradient - 1.0)) <= 1e-10

    def test_maximize_sense_reported_in_original_sense(self):
        # With a singleton control set the maximizing and minimizing
        # problems coincide, but the solve exercises the sign flip.
        prob = _heat_problem()
        prob_max = ControlProblem(
            dimension=1, noise_dimension=1, horizon=prob.horizon,
            drift_uncontrolled=prob.drift_uncontrolled,
            drift_controlled=prob.drift_controlled, diffusion=prob.diffusion,
            running_cost=prob.running_cost, control_set=prob.control_set,
            sense="maximize",
        )
        grid = Grid1D(-1.0, 1.0, 21, 10, t_final=1.0)
        bc = lambda t, x: x**2 + (1.0 - t)
        a = solve_parabolic(prob, grid, boundary=bc)
        b = solve_parabolic(prob_max, grid, boundary=bc)
        assert np.max(np.abs(a.values - b.values)) <= 1e-10

    def test_comparison_principle(self):
        # Raising the terminal data pointwise cannot lower the solution:
        # with Dirichlet edges the implicit upwind matrix is an M-matrix,
        # so the march is monotone in its data.
        grid = Grid1D(-1, 1, 41, 20, t_final=1.0)
        bc = lambda t, x: x**2 + (1.0 - t)
        lo = solve_parabolic(_heat_problem(), grid, boundary=bc)
        hi = solve_parabolic(
            _heat_problem(terminal=lambda x: x[:, 0] ** 2 + np.exp(-4 * x[:, 0] ** 2)),
            grid, boundary=bc,
        )
        assert np.all(hi.values >= lo.values - 1e-12)

    def test_grid_horizon_mismatch(self):
        with pytest.raises(ValueError, match="must end at the problem horizon"):
            solve_parabolic(_heat_problem(), Grid1D(-1, 1, 11, 4, t_final=2.0))

    def test_grid_t_final_filled_from_problem(self):
        field = solve_parabolic(_heat_problem(), Grid1D(-1, 1, 11, 4))
        assert field.grid.t_final == 1.0

    def test_discounted_problem_rejected(self):
        prob = make_discounted_demo(1.0, 2.0)
        with pytest.raises(ValueError, match="finite-horizon"):
            solve_parabolic(prob, Grid1D(-1, 1, 11, 4, t_final=1.0))

    def test_problem_with_a_domain_rejected(self):
        # Solving over the domain's edges instead of psi gave v = 3 (= T)
        # everywhere, where the expected exit time is 0.25 at x = 0.5.
        with pytest.raises(ValueError, match="use solve_exit"):
            solve_parabolic(make_exit_demo("expected_exit_time"), Grid1D(0.0, 1.0, 41, 200))

    def test_extrapolation_edges_need_two_interior_nodes(self):
        grid = Grid1D(-1.0, 1.0, 3, 4, t_final=1.0)
        with pytest.raises(ValueError, match="extrapolation edges need nx >= 4"):
            solve_parabolic(_heat_problem(), grid)
        # Dirichlet edges need only one interior node; the scheme is exact
        # on the quadratic solution.
        field = solve_parabolic(_heat_problem(), grid, boundary=lambda t, x: x**2 + (1.0 - t))
        assert np.max(np.abs(field.values[:, 1] - (1.0 - grid.ts))) <= 1e-12
        linear = solve_parabolic(_heat_problem(terminal=lambda x: x[:, 0]),
                                 Grid1D(-1.0, 1.0, 4, 4, t_final=1.0))
        assert np.max(np.abs(linear.values - linear.grid.xs)) <= 1e-12


class TestSolveExit:
    def test_constant_demo_exact(self, exit_constant_problem):
        grid = Grid1D(0.0, 1.0, 51, 40)
        field = solve_exit(exit_constant_problem, grid)
        assert np.max(np.abs(field.values - 1.0)) <= 1e-12

    def test_expected_exit_time(self, exit_time_problem):
        # E[tau] from x for dy = dW on (0,1) is x(1-x); the finite horizon
        # T = 3 truncates the mean by O(e^{-pi^2 T/2}), far below grid error.
        grid = Grid1D(0.0, 1.0, 201, 1500)
        field = solve_exit(exit_time_problem, grid)
        xs = grid.xs
        assert np.max(np.abs(field.value_at(0.0, xs[:, None]) - xs * (1 - xs))) <= 1e-3
        assert field.value_at(0.0, np.array([[0.5]]))[0] == pytest.approx(0.25, abs=5e-4)

    def test_grid_must_match_domain(self, exit_time_problem):
        with pytest.raises(ValueError, match="coincide with the domain"):
            solve_exit(exit_time_problem, Grid1D(0.0, 2.0, 51, 40))

    def test_requires_domain(self):
        with pytest.raises(ValueError, match="requires a problem with a domain"):
            solve_exit(_heat_problem(), Grid1D(0.0, 1.0, 51, 40))


class TestResidual:
    def test_exact_solution_has_tiny_residual(self):
        prob = _heat_problem()
        grid = Grid1D(-1.0, 1.0, 41, 20, t_final=1.0)
        field = solve_parabolic(prob, grid, boundary=lambda t, x: x**2 + (1.0 - t))
        rep = residual(field, prob)
        assert rep.sup_interior_residual <= 1e-10

    def test_excluded_columns_stay_out_of_the_sup(self):
        prob = _heat_problem()
        field = solve_parabolic(prob, Grid1D(-1, 1, 41, 20, t_final=1.0))
        rep = residual(field, prob)
        assert rep.excluded_nodes == (0, 40)
        rows = _rows(field, prob)
        # The column sup covers every level and every column, edges included.
        assert rep.column_sup.tobytes() == np.max(np.abs(rows), axis=0).tobytes()
        kept = np.delete(np.arange(41), [0, 40])
        assert np.all(np.isfinite(rows[:, kept]))
        assert rep.sup_interior_residual == np.max(np.abs(rows[:, kept]))
        # The extrapolated edges are off by more than the interior.
        assert rep.column_sup[[0, 40]].min() > rep.sup_interior_residual
        with pytest.raises(ValueError, match="read-only"):
            rep.column_sup[0] = 0.0

    def test_kink_neighborhood_excluded(self):
        prob = _heat_problem(kink_points=(0.0,))
        field = solve_parabolic(prob, Grid1D(-1, 1, 41, 20, t_final=1.0))
        rep = residual(field, prob, exclusion_radius=3)
        # dx = 0.05: |x| <= 0.15 covers indices 17..23.
        assert set(range(17, 24)).issubset(rep.excluded_nodes)
        kept = np.setdiff1d(np.arange(41), rep.excluded_nodes)
        assert rep.sup_interior_residual == np.max(np.abs(_rows(field, prob)[:, kept]))

    def test_sup_skips_nan_like_nanmax_and_is_nan_with_no_node_kept(self):
        prob = _heat_problem(kink_points=(0.0,))
        field = solve_parabolic(prob, Grid1D(-1, 1, 41, 20, t_final=1.0))
        values = field.values.copy()
        values[5, 10] = np.nan
        loaded = SpaceTimeField(field.grid, values, field.gradient, "loaded")
        rep, rows = residual(loaded, prob), _rows(loaded, prob)
        assert np.isnan(rows[4:7, 10]).all()
        # A column is the sup of its non-NaN levels ...
        assert rep.column_sup[10] == np.nanmax(np.abs(rows[:, 10]))
        kept = np.setdiff1d(np.arange(41), rep.excluded_nodes)
        assert rep.sup_interior_residual == np.nanmax(np.abs(rows[:, kept]))
        # ... and NaN only where every level's R is NaN.
        values[:, 10] = np.nan
        rep = residual(SpaceTimeField(field.grid, values, field.gradient, "loaded"), prob)
        assert np.flatnonzero(np.isnan(rep.column_sup)).tolist() == [9, 10, 11]
        assert np.isnan(residual(field, prob, exclusion_radius=40).sup_interior_residual)

    def test_negative_exclusion_radius_raises(self, adv_params, adv_problem):
        # A negative radius would exclude less than the kink node itself.
        field = field_from_callable(lambda t, xs: advertising_value(adv_params, t, xs),
                                    Grid1D(-1.0, 1.0, 41, 20, t_final=1.0))
        assert residual(field, adv_problem, exclusion_radius=0).excluded_nodes == (0, 20, 40)
        with pytest.raises(ValueError, match="exclusion_radius must be non-negative"):
            residual(field, adv_problem, exclusion_radius=-1)

    def test_closed_form_advertising_residual_small(self, adv_params, adv_problem):
        # Away from the kink at 0 the closed form satisfies the equation;
        # the report's finite differences leave O(dx^2) noise in space and,
        # at the first and last time rows, O(dt) from the one-sided stencil.
        grid = Grid1D(0.2, 5.0, 201, 500, t_final=1.0)
        field = field_from_callable(
            lambda t, xs: advertising_value(adv_params, t, xs), grid,
            gradient_fn=lambda t, xs: advertising_gradient(adv_params, t, xs))
        rep = residual(field, adv_problem)
        assert rep.sup_interior_residual <= 1e-2

    def test_discounted_problem_rejected(self):
        # R has no rate * v term: the exact v = cost/rate read sup |R| = cost.
        field = field_from_callable(lambda t, xs: np.ones_like(xs),
                                    Grid1D(-1.0, 1.0, 11, 4, t_final=1.0))
        with pytest.raises(ValueError, match="residual requires a finite-horizon problem"):
            residual(field, make_discounted_demo(1.0, 1.0))

    def test_field_of_another_horizon_rejected(self, exit_time_problem):
        short = solve_exit(make_exit_demo("expected_exit_time", horizon=0.5),
                           Grid1D(0.0, 1.0, 41, 100))
        with pytest.raises(ValueError, match="must end at the problem horizon T=3.0"):
            residual(short, exit_time_problem)


class TestResidualReusesMarchRows:
    """The CLI's report reads the R rows the march formed for levels 1..nt.

    ``hjb._solve`` returns the field with a report built from the march's
    per-column sup of |R| over levels 1..nt and the level-0 row.  The
    reference is ``residual`` on the same field, which computes every row
    itself; the two reports must agree bit for bit.
    """

    @staticmethod
    def _loaded(field):
        return SpaceTimeField(grid=field.grid, values=field.values,
                              gradient=field.gradient, provenance="loaded")

    @staticmethod
    def _h0_calls(monkeypatch):
        calls = []
        original = hjb._minimize_batch

        def counted(*args):
            calls.append(args[1])
            return original(*args)
        monkeypatch.setattr(hjb, "_minimize_batch", counted)
        return calls

    def _assert_reused(self, monkeypatch, problem, grid, boundary=None, exclusion_radius=3):
        calls = self._h0_calls(monkeypatch)
        field, solved = hjb._solve(problem, grid, boundary)
        monkeypatch.undo()
        # The march minimizes levels nt..1; beyond it, level 0 only, once.
        assert calls == list(field.grid.ts[::-1])
        if exclusion_radius != 3:  # the CLI's radius; the columns serve any other
            solved = hjb._report(solved.column_sup, field.grid, problem, exclusion_radius)
        reference = residual(field, problem, exclusion_radius=exclusion_radius)
        assert solved.excluded_nodes == reference.excluded_nodes
        assert (np.float64(solved.sup_interior_residual).tobytes()
                == np.float64(reference.sup_interior_residual).tobytes())
        assert solved.column_sup.tobytes() == reference.column_sup.tobytes()
        # Every column, edges included, is the sup of |R| over all levels.
        per_column = np.fmax.reduce(np.abs(_rows(field, problem)), axis=0)
        assert reference.column_sup.tobytes() == per_column.tobytes()
        # The field is the public solver's, and its stored gradient is the
        # per-row central difference of the stored values, signed zeros included.
        public = (solve_exit(problem, grid) if problem.domain is not None
                  else solve_parabolic(problem, grid, boundary=boundary))
        assert public.values.tobytes() == field.values.tobytes()
        per_row = np.stack([np.gradient(row, field.grid.dx) for row in field.values])
        assert field.gradient.tobytes() == per_row.tobytes()
        return reference

    def test_march_minimizes_levels_one_to_nt_only(self, monkeypatch):
        calls = self._h0_calls(monkeypatch)
        field = solve_parabolic(_bang_bang_problem(), Grid1D(-1.0, 1.0, 11, 8))
        assert calls == list(field.grid.ts[:0:-1])
        calls.clear()  # a ladder discards the residual, so it forms no level-0 row
        ladder = refine_ladder(_bang_bang_problem(), Grid1D(-1.0, 1.0, 11, 8), levels=3)
        assert calls == [t for f in ladder.fields for t in f.grid.ts[:0:-1]]

    def test_exit_problems_minimize_with_psi_edges(self, monkeypatch, exit_time_problem,
                                                   exit_constant_problem):
        for prob in (exit_time_problem, exit_constant_problem):
            self._assert_reused(monkeypatch, prob, Grid1D(0.0, 1.0, 41, 60))

    @pytest.mark.parametrize("edges", ["extrapolate", "callable", "value_at"])
    def test_maximize_advertising(self, monkeypatch, adv_params, adv_problem, adv_solution,
                                  edges):
        boundary = {"extrapolate": None,
                    "callable": lambda t, x: advertising_value(adv_params, t, x),
                    "value_at": adv_solution}[edges]
        assert adv_problem.sense == "maximize"
        self._assert_reused(monkeypatch, adv_problem, Grid1D(0.1, 5.0, 41, 50), boundary)

    def test_registered_kink_with_exclusion_radius(self, monkeypatch):
        prob = _bang_bang_problem(kink_points=(0.0,))
        grid = Grid1D(-1.0, 1.0, 41, 30)
        for radius, kink_nodes in ((0, [20]), (2, range(18, 23)), (3, range(17, 24))):
            rep = self._assert_reused(monkeypatch, prob, grid, exclusion_radius=radius)
            assert set(kink_nodes).issubset(rep.excluded_nodes)
            assert np.isfinite(rep.sup_interior_residual)
        # dx = 0.05: radius 20 reaches both edges, so no node is kept.
        rep = self._assert_reused(monkeypatch, prob, grid, exclusion_radius=20)
        assert rep.excluded_nodes == tuple(range(41))
        assert np.isnan(rep.sup_interior_residual)

    def test_another_problem_object_gets_its_own_residual(self, monkeypatch, exit_time_problem):
        field = solve_exit(exit_time_problem, Grid1D(0.0, 1.0, 41, 60))
        doubled = dataclasses.replace(
            exit_time_problem, running_cost=lambda t, x, z: np.full(x.shape[0], 2.0))
        reference = residual(self._loaded(field), doubled)
        calls = self._h0_calls(monkeypatch)
        rep = residual(field, doubled)
        assert len(calls) == field.grid.nt + 1
        assert rep.column_sup.tobytes() == reference.column_sup.tobytes()
        # H0 is the running cost here, so doubling it shifts R by 1 at every node.
        shift = _rows(field, doubled) - _rows(field, exit_time_problem)
        assert np.max(np.abs(shift - 1.0)) <= 1e-9

    def test_replaced_values_do_not_inherit_the_rows(self, monkeypatch):
        prob = _bang_bang_problem()
        field = solve_parabolic(prob, Grid1D(-1.0, 1.0, 41, 30))
        scaled = dataclasses.replace(field, values=2.0 * field.values)
        reference = residual(self._loaded(scaled), prob)
        calls = self._h0_calls(monkeypatch)
        rep = residual(scaled, prob)
        assert len(calls) == field.grid.nt + 1
        assert rep.column_sup.tobytes() == reference.column_sup.tobytes()
        assert rep.column_sup.tobytes() != residual(field, prob).column_sup.tobytes()

    def test_solved_arrays_are_read_only(self):
        field = solve_parabolic(_bang_bang_problem(), Grid1D(-1.0, 1.0, 5, 3))
        for table in (field.values, field.gradient):
            with pytest.raises(ValueError, match="read-only"):
                table[1, 1] = 0.0

    def test_rows_do_not_show_in_equality_repr_or_csv(self, tmp_path):
        # A solved field holds its four declared fields and nothing else.
        field = solve_parabolic(_bang_bang_problem(), Grid1D(-1.0, 1.0, 5, 3))
        declared = {f.name for f in dataclasses.fields(SpaceTimeField)}
        assert declared == {"grid", "values", "gradient", "provenance"}
        assert set(vars(field)) == declared
        assert dataclasses.replace(field) == field
        field.to_csv(str(tmp_path / "a.csv"))
        self._loaded(field).to_csv(str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestMarchKernels:
    def test_central_gradient_is_np_gradient(self, rng):
        for n in (3, 4, 5, 17, 201):
            for _ in range(40):
                row = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=n)
                row[rng.random(n) < 0.2] = 0.0  # equal neighbours give signed zeros
                dx = float(rng.uniform(1e-3, 2.0))
                assert _central_gradient(row, dx).tobytes() == np.gradient(row, dx).tobytes()
                out = np.empty(n)
                assert _central_gradient(row, dx, out=out) is out
                assert out.tobytes() == np.gradient(row, dx).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 199])
    def test_tridiagonal_solve_is_solve_banded(self, rng, monkeypatch, n):
        # Each LAPACK, on diagonally dominant systems and on systems that pivot.
        for lapack in ("numpy", "scipy"):
            if lapack == "scipy":
                monkeypatch.setattr(hjb, "_numpy_dgtsv", lambda: None)
            for scale in ((2.5, 4.0), (0.0, 1.0)):
                for _ in range(20):
                    low, up = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)
                    diag = rng.choice([-1.0, 1.0], n) * rng.uniform(*scale, n)
                    rhs = rng.normal(size=n)
                    ab = np.zeros((3, n))
                    ab[0, 1:], ab[1], ab[2, :-1] = up, diag, low
                    expected = solve_banded((1, 1), ab, rhs)
                    got = _solve_tridiagonal(low.copy(), diag.copy(), up.copy(), rhs.copy())
                    assert got.tobytes() == expected.tobytes()

    def test_singular_tridiagonal_system_raises(self, monkeypatch):
        for lapack in ("numpy", "scipy"):
            if lapack == "scipy":
                monkeypatch.setattr(hjb, "_numpy_dgtsv", lambda: None)
            with pytest.raises(LinAlgError, match="singular"):
                _solve_tridiagonal(np.array([1.0]), np.array([1.0, 1.0]), np.array([1.0]),
                                   np.array([1.0, 2.0]))

    @pytest.mark.parametrize("case", ["sizes", "float32", "view", "read_only"])
    def test_unusable_arrays_raise_before_lapack(self, monkeypatch, case):
        def no_lapack():
            raise AssertionError("LAPACK was reached")
        monkeypatch.setattr(hjb, "_numpy_dgtsv", no_lapack)
        low, diag, up, rhs = np.ones(3), np.full(4, 4.0), np.ones(3), np.ones(4)
        if case == "sizes":
            up = np.ones(2)
        elif case == "float32":
            diag = diag.astype(np.float32)
        elif case == "view":
            rhs = np.ones(8)[::2]
        else:
            low.flags.writeable = False
        with pytest.raises(ValueError, match="tridiagonal"):
            _solve_tridiagonal(low, diag, up, rhs)

    def test_numpy_lapack_is_used_where_numpy_bundles_it(self, monkeypatch):
        # NumPy's Linux wheels bundle it; conda, distro or Accelerate builds do not.
        libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
        bundled = bool(glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")))
        assert (hjb._numpy_dgtsv() is not None) == bundled
        if bundled:  # with SciPy's LAPACK unimportable, the solve still runs
            monkeypatch.setitem(sys.modules, "scipy.linalg.lapack", None)
            x = _solve_tridiagonal(np.ones(2), np.full(3, 4.0), np.ones(2), np.ones(3))
            assert np.allclose(x, [3 / 14, 1 / 7, 3 / 14])

    def test_threads_solving_at_once_get_their_own_answers(self):
        # ctypes releases the GIL during the call: each solve needs its own N and INFO.
        rng = np.random.default_rng(7)
        systems = []
        for n in rng.integers(2, 300, size=64):
            low, up = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)
            diag, rhs = rng.uniform(2.5, 4.0, n), rng.normal(size=n)
            ref = _solve_tridiagonal(low.copy(), diag.copy(), up.copy(), rhs.copy())
            systems.append(((low, diag, up, rhs), ref.tobytes()))
        wrong = []

        def work(offset):
            for k in range(400):
                args, want = systems[(offset + k) % len(systems)]
                got = _solve_tridiagonal(*(a.copy() for a in args))
                if got.tobytes() != want:
                    wrong.append(k)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i * 16,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("kind", ["exit", "advertising"])
    def test_both_lapack_paths_march_the_same_bits(self, monkeypatch, kind, exit_time_problem,
                                                   adv_problem):
        if kind == "exit":
            solve = lambda: solve_exit(exit_time_problem, Grid1D(0.0, 1.0, 201, 1500))
        else:
            solve = lambda: solve_parabolic(adv_problem, Grid1D(0.1, 5.0, 101, 250))
        ours = solve()
        monkeypatch.setattr(hjb, "_numpy_dgtsv", lambda: None)
        scipys = solve()
        assert ours.values.tobytes() == scipys.values.tobytes()
        assert ours.gradient.tobytes() == scipys.gradient.tobytes()


class TestRefineLadder:
    def test_needs_three_levels(self, adv_problem):
        with pytest.raises(ValueError, match="at least 3 levels"):
            refine_ladder(adv_problem, Grid1D(0.1, 5.0, 101, 250), levels=2)

    def test_exit_problem_rejects_a_boundary(self, exit_time_problem):
        with pytest.raises(ValueError, match="boundary_cost"):
            refine_ladder(exit_time_problem, Grid1D(0.0, 1.0, 11, 20), levels=3,
                          boundary=lambda t, x: 0.0)

    def test_exit_problem_ladder(self, exit_time_problem):
        ladder = refine_ladder(exit_time_problem, Grid1D(0.0, 1.0, 11, 20), levels=3)
        assert [f.grid.nx for f in ladder.fields] == [11, 21, 41]
        for f in ladder.fields:  # edge data from boundary_cost, which is zero
            assert not f.values[:, [0, -1]].any()

    def test_advertising_ladder_passes(self, adv_problem, adv_solution):
        ladder = refine_ladder(adv_problem, Grid1D(0.1, 5.0, 101, 250), levels=3,
                               boundary=adv_solution)
        assert ladder.passed
        assert ladder.v_distances[1] < ladder.v_distances[0]
        assert ladder.v_distances[1] <= 0.75 * ladder.v_distances[0]
        assert len(ladder.fields) == 3
        assert ladder.note  # caveat text travels with the result

    def test_unstable_instance_fails(self):
        # Strong controlled advection against a tiny diffusion on a coarse
        # grid: the explicit Hamiltonian term amplifies level over level.
        prob = ControlProblem(
            dimension=1, noise_dimension=1,
            horizon=FiniteHorizon(1.0, lambda x: np.sin(3 * x[:, 0])),
            drift_uncontrolled=lambda t, x: np.zeros_like(x),
            drift_controlled=lambda t, x, z: z,
            diffusion=lambda t, x: np.full(x.shape + (1,), 0.02),
            running_cost=lambda t, x, z: np.zeros(x.shape[0]),
            control_set=ControlSet.finite([[-5.0], [5.0]]),
        )
        ladder = refine_ladder(prob, Grid1D(-1.0, 1.0, 41, 5), levels=3)
        assert not ladder.passed
        assert ladder.v_distances[1] > ladder.v_distances[0]


class TestGradientDiagnostics:
    def test_advertising_blowup_exponent(self, adv_problem, adv_solution):
        diag = gradient_diagnostics(adv_solution, adv_problem,
                                    probe_points=np.linspace(0.5, 3.0, 20)[:, None])
        assert diag.blowup_exponents[0.0] == pytest.approx(-0.5, abs=0.05)
        assert np.isfinite(diag.weighted_gradient_sup)
        assert diag.weighted_gradient_sup > 0

    @staticmethod
    def _sampled_advertising(adv_params, x_min, x_max, nx):
        return field_from_callable(lambda t, xs: advertising_value(adv_params, t, xs),
                                   Grid1D(x_min, x_max, nx, 20, t_final=1.0))

    def test_field_blowup_exponent(self, adv_params, adv_problem):
        # v ~ |x|^(1+eta) near the kink at 0, so v_xx ~ h^(eta-1) = h^-0.5.
        field = self._sampled_advertising(adv_params, -1.0, 2.0, 301)
        diag = gradient_diagnostics(field, adv_problem)
        assert diag.blowup_exponents[0.0] == pytest.approx(-0.5, abs=0.01)

    def test_field_kink_left_of_the_grid_has_no_exponent(self, adv_params, adv_problem):
        field = self._sampled_advertising(adv_params, 0.5, 2.0, 61)
        assert gradient_diagnostics(field, adv_problem).blowup_exponents == {0.0: None}

    def test_constant_field_has_exponent_zero(self, adv_problem):
        field = field_from_callable(lambda t, xs: np.ones_like(xs),
                                    Grid1D(-1.0, 2.0, 31, 10, t_final=1.0))
        assert gradient_diagnostics(field, adv_problem).blowup_exponents == {0.0: 0.0}

    def test_discounted_problem_rejected(self):
        field = field_from_callable(lambda t, xs: np.ones_like(xs),
                                    Grid1D(-1.0, 1.0, 11, 4, t_final=1.0))
        with pytest.raises(ValueError, match="gradient_diagnostics requires a finite-horizon"):
            gradient_diagnostics(field, make_discounted_demo(1.0, 1.0))

    def test_probe_points_required_for_closed_form(self, adv_problem, adv_solution):
        with pytest.raises(ValueError, match="probe_points are required"):
            gradient_diagnostics(adv_solution, adv_problem)

    def test_smooth_field_reports_no_blowup(self):
        prob = _heat_problem()
        grid = Grid1D(-1.0, 1.0, 41, 20, t_final=1.0)
        field = solve_parabolic(prob, grid, boundary=lambda t, x: x**2 + (1.0 - t))
        diag = gradient_diagnostics(field, prob)
        assert diag.blowup_exponents == {}
        # sup over probes of sqrt(T-t) |v_x| = 1 * 2*0.95 at t=0, x=+-0.95.
        assert diag.weighted_gradient_sup == pytest.approx(1.9, abs=1e-8)


class TestFieldProbing:
    def _field(self):
        grid = Grid1D(0.0, 1.0, 3, 2, t_final=1.0)
        values = np.array([[0.0, 1.0, 2.0], [10.0, 11.0, 12.0], [20.0, 21.0, 22.0]])
        return SpaceTimeField(grid=grid, values=values,
                              gradient=np.zeros_like(values), provenance="loaded")

    def test_linear_in_x(self):
        f = self._field()
        assert f.value_at(0.0, np.array([[0.25]]))[0] == pytest.approx(0.5)
        out = f.value_at(0.0, np.array([[0.0], [0.25], [1.0]]))
        assert np.allclose(out, [0.0, 0.5, 2.0])

    def test_piecewise_constant_from_left_in_t(self):
        f = self._field()
        x = np.array([[0.0]])
        assert f.value_at(0.49, x)[0] == 0.0     # previous level
        assert f.value_at(0.5, x)[0] == 10.0     # switches exactly at the node
        assert f.value_at(0.51, x)[0] == 10.0

    def test_time_clamping(self):
        f = self._field()
        x = np.array([[0.0]])
        assert f.value_at(-1.0, x)[0] == 0.0
        assert f.value_at(5.0, x)[0] == 20.0

    def test_x_clamping(self):
        assert self._field().value_at(0.0, np.array([[7.0]]))[0] == 2.0

    def test_shape_and_provenance_validation(self):
        grid = Grid1D(0.0, 1.0, 3, 2, t_final=1.0)
        with pytest.raises(ValueError, match="shape"):
            SpaceTimeField(grid=grid, values=np.zeros((2, 3)),
                           gradient=np.zeros((2, 3)), provenance="solved")
        with pytest.raises(ValueError, match="provenance"):
            SpaceTimeField(grid=grid, values=np.zeros((3, 3)),
                           gradient=np.zeros((3, 3)), provenance="guessed")


class TestFieldCsv:
    def test_roundtrip_is_exact(self, tmp_path):
        prob = _heat_problem()
        field = solve_parabolic(prob, Grid1D(-1, 1, 21, 10, t_final=1.0))
        path = tmp_path / "field.csv"
        field.to_csv(str(path))
        back = SpaceTimeField.from_csv(str(path))
        assert back.grid == field.grid
        assert np.array_equal(back.values, field.values)
        assert np.array_equal(back.gradient, field.gradient)
        assert back.provenance == "loaded"

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x,v\n0.0,0.0,1.0\n0.0,1.0,2.0\n")
        with pytest.raises(ValueError, match="columns"):
            SpaceTimeField.from_csv(str(path))

    def test_non_rectangular_rejected(self, tmp_path):
        prob = _heat_problem()
        field = solve_parabolic(prob, Grid1D(-1, 1, 5, 2, t_final=1.0))
        path = tmp_path / "field.csv"
        field.to_csv(str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one data row
        with pytest.raises(ValueError, match="rectangular"):
            SpaceTimeField.from_csv(str(path))

    def test_scrambled_rows_rejected(self, tmp_path):
        prob = _heat_problem()
        field = solve_parabolic(prob, Grid1D(-1, 1, 5, 2, t_final=1.0))
        path = tmp_path / "field.csv"
        field.to_csv(str(path))
        lines = path.read_text().splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="order"):
            SpaceTimeField.from_csv(str(path))


class TestFieldFromCallable:
    def test_samples_values_and_gradient(self, adv_params):
        grid = Grid1D(0.2, 5.0, 11, 4, t_final=1.0)
        field = field_from_callable(
            lambda t, xs: advertising_value(adv_params, t, xs), grid,
            gradient_fn=lambda t, xs: advertising_gradient(adv_params, t, xs))
        assert field.provenance == "closed_form"
        t, x = float(grid.ts[2]), float(grid.xs[3])
        assert field.values[2, 3] == pytest.approx(advertising_value(adv_params, t, x))
        assert field.gradient[2, 3] == pytest.approx(advertising_gradient(adv_params, t, x))

    def test_gradient_without_gradient_fn_is_per_row_np_gradient(self, adv_params):
        grid = Grid1D(0.2, 5.0, 31, 12, t_final=1.0)
        field = field_from_callable(lambda t, xs: advertising_value(adv_params, t, xs), grid)
        per_row = np.stack([np.gradient(row, grid.dx) for row in field.values])
        assert field.gradient.tobytes() == per_row.tobytes()

    def test_needs_t_final(self, adv_params):
        with pytest.raises(ValueError, match="t_final"):
            field_from_callable(lambda t, xs: xs, Grid1D(0.2, 5.0, 11, 4))
