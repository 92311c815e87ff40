"""PDE solver and field utilities: exactness, refinement, diagnostics."""

import numpy as np
import pytest

from hjbverify import (
    ControlProblem,
    ControlSet,
    FiniteHorizon,
    Grid1D,
    SpaceTimeField,
    advertising_value,
    field_from_callable,
    gradient_diagnostics,
    make_discounted_demo,
    refine_ladder,
    residual,
    solve_exit,
    solve_parabolic,
)


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
        assert np.max(np.abs(field.value_at(0.0, xs) - xs * (1 - xs))) <= 1e-3
        assert field.value_at(0.0, 0.5) == pytest.approx(0.25, abs=5e-4)

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

    def test_excluded_columns_are_nan(self):
        prob = _heat_problem()
        field = solve_parabolic(prob, Grid1D(-1, 1, 41, 20, t_final=1.0))
        rep = residual(field, prob)
        assert rep.excluded_nodes == (0, 40)
        assert np.all(np.isnan(rep.residual[:, 0]))
        assert np.all(np.isnan(rep.residual[:, 40]))
        kept = np.delete(np.arange(41), [0, 40])
        assert np.all(np.isfinite(rep.residual[:, kept]))
        assert rep.sup_interior_residual == np.nanmax(np.abs(rep.residual))

    def test_kink_neighborhood_excluded(self):
        prob = _heat_problem(kink_points=(0.0,))
        field = solve_parabolic(prob, Grid1D(-1, 1, 41, 20, t_final=1.0))
        rep = residual(field, prob, exclusion_radius=3)
        # dx = 0.05: |x| <= 0.15 covers indices 17..23.
        assert set(range(17, 24)).issubset(rep.excluded_nodes)
        assert np.all(np.isnan(rep.residual[:, 17:24]))

    def test_closed_form_advertising_residual_small(self, adv_params, adv_problem,
                                                    adv_solution):
        # Away from the kink at 0 the closed form satisfies the equation;
        # the report's finite differences leave O(dx^2) noise in space and,
        # at the first and last time rows, O(dt) from the one-sided stencil.
        grid = Grid1D(0.2, 5.0, 201, 500, t_final=1.0)
        field = field_from_callable(
            lambda t, xs: advertising_value(adv_params, t, xs), grid,
            gradient_fn=lambda t, xs: adv_solution.gradient(t, xs))
        rep = residual(field, adv_problem)
        assert rep.sup_interior_residual <= 1e-2


class TestRefineLadder:
    def test_needs_three_levels(self, adv_problem):
        with pytest.raises(ValueError, match="at least 3 levels"):
            refine_ladder(adv_problem, Grid1D(0.1, 5.0, 101, 250), levels=2)

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
                                    probe_points=np.linspace(0.5, 3.0, 20))
        assert diag.blowup_exponents[0.0] == pytest.approx(-0.5, abs=0.05)
        assert np.isfinite(diag.weighted_gradient_sup)
        assert diag.weighted_gradient_sup > 0

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
        assert f.value_at(0.0, 0.25) == pytest.approx(0.5)
        assert isinstance(f.value_at(0.0, 0.25), float)
        out = f.value_at(0.0, np.array([0.0, 0.25, 1.0]))
        assert np.allclose(out, [0.0, 0.5, 2.0])

    def test_piecewise_constant_from_left_in_t(self):
        f = self._field()
        assert f.value_at(0.49, 0.0) == 0.0     # previous level
        assert f.value_at(0.5, 0.0) == 10.0     # switches exactly at the node
        assert f.value_at(0.51, 0.0) == 10.0

    def test_time_clamping(self):
        f = self._field()
        assert f.value_at(-1.0, 0.0) == 0.0
        assert f.value_at(5.0, 0.0) == 20.0

    def test_x_clamping(self):
        assert self._field().value_at(0.0, 7.0) == 2.0

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
    def test_samples_values_and_gradient(self, adv_params, adv_solution):
        grid = Grid1D(0.2, 5.0, 11, 4, t_final=1.0)
        field = field_from_callable(
            lambda t, xs: advertising_value(adv_params, t, xs), grid,
            gradient_fn=lambda t, xs: adv_solution.gradient(t, xs))
        assert field.provenance == "closed_form"
        t, x = float(grid.ts[2]), float(grid.xs[3])
        assert field.values[2, 3] == pytest.approx(advertising_value(adv_params, t, x))
        assert field.gradient[2, 3] == pytest.approx(adv_solution.gradient(t, x))

    def test_needs_t_final(self, adv_params):
        with pytest.raises(ValueError, match="t_final"):
            field_from_callable(lambda t, xs: xs, Grid1D(0.2, 5.0, 11, 4))
