"""Acceptance: the toolkit's headline guarantees, end to end.

Each test states one externally checkable property — closed forms against
independent integration, Monte Carlo against closed-form values, solver
output against known solutions, certificates with honest error budgets, and
a deterministic CLI — at the tolerances the toolkit promises.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from hjbverify import (
    VERDICT_OPTIMAL,
    VERDICT_SUBOPTIMAL,
    ConstantPolicy,
    ControlProblem,
    ControlSet,
    FeedbackPolicy,
    FiniteHorizon,
    Grid1D,
    SimConfig,
    advertising_coefficients,
    advertising_feedback,
    advertising_value,
    certify,
    cli,
    discounted_demo_solution,
    duality_gap,
    estimate_cost,
    gradient_diagnostics,
    make_discounted_demo,
    minimize,
    refine_ladder,
    solve_exit,
    solve_parabolic,
)

# Frozen closed-form anchors for the default parameters (eta=0.5, alpha=1,
# beta=0.5, horizon=1); derivations in test_benchmarks.
A0 = 0.3003325459344889
V0_AT_2 = 0.8494687193651894

ZERO = ConstantPolicy(0.0)


def _feedback_policy(params):
    return FeedbackPolicy(
        lambda t, x: advertising_feedback(params, t, x[:, 0]).reshape(-1, 1)
    )


def test_a01_coefficients_match_independent_integration(adv_params):
    """a(t), b(t) agree with an independent RK4 integration of their ODEs."""
    a0, b0 = advertising_coefficients(adv_params, 0.0)
    assert a0 == pytest.approx(A0, rel=1e-8)
    assert b0 == pytest.approx(-4.080624335026461, rel=1e-8)

    # Integrate da/ds = gamma*a + eta*a^(1+1/eta) in s = T - t from a(T) = 1,
    # sharing nothing with the closed form but the ODE itself.
    gamma, eta, T = adv_params.gamma, adv_params.eta, adv_params.horizon
    f = lambda a: gamma * a + eta * a ** (1.0 + 1.0 / eta)  # noqa: E731
    n, h = 10_000, T * 1e-4
    a, checkpoints = 1.0, {}
    for i in range(n):
        k1 = f(a)
        k2 = f(a + 0.5 * h * k1)
        k3 = f(a + 0.5 * h * k2)
        k4 = f(a + h * k3)
        a += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        checkpoints[T - (i + 1) * h] = a
    assert a == pytest.approx(advertising_coefficients(adv_params, 0.0)[0], rel=1e-8)
    t_mid = T - (n // 2) * h
    a_mid = checkpoints[t_mid]
    assert a_mid == pytest.approx(
        advertising_coefficients(adv_params, t_mid)[0], rel=1e-8
    )

    # b(t) = -e^{gamma (t - T)} is elementary and must hold to rounding.
    for t in np.linspace(0.0, T, 7):
        _, b = advertising_coefficients(adv_params, float(t))
        assert b == pytest.approx(-math.exp(gamma * (t - T)), rel=1e-12)


def test_a02_optimal_feedback_certified_within_tolerance(
    adv_params, adv_problem, adv_solution
):
    """The closed-form feedback is certified optimal: zero gap, J matches v."""
    cfg = SimConfig(dt=1e-3, n_paths=100_000, seed=42)
    start = time.perf_counter()
    cert = certify(adv_problem, adv_solution, _feedback_policy(adv_params),
                   0.0, 2.0, cfg, necessity_scan=True)
    elapsed = time.perf_counter() - start

    report = cert.evidence
    assert report.passed
    assert cert.verdict == VERDICT_OPTIMAL
    assert cert.optimality_margin == 0.0          # every pointwise gap clamps to 0
    assert cert.necessity_fraction == 0.0
    assert report.v_at_start == pytest.approx(V0_AT_2, rel=1e-12)
    assert abs(report.cost.mean - report.v_at_start) <= (
        3.0 * report.cost.std_error + 1e-2
    )
    assert elapsed < 120.0


def test_a03_suboptimal_policy_flagged_with_consistent_margin(
    adv_problem, adv_solution
):
    """No advertising at all: a clear suboptimality margin, and the margin
    equals v - J measured on an independent sample."""
    cfg = SimConfig(dt=1e-3, n_paths=100_000, seed=42)
    cert = certify(adv_problem, adv_solution, ZERO, 0.0, 2.0, cfg)
    report = cert.evidence

    assert report.passed                           # the identity still holds
    assert cert.verdict == VERDICT_SUBOPTIMAL
    margin, se_gap = cert.optimality_margin, report.gap_integral.std_error
    assert margin > 10.0 * se_gap                  # far outside the noise band

    # Independent draw of J under the same policy: the identity says
    # v - J equals the gap integral (maximize orientation: J = v - gap).
    indep = estimate_cost(adv_problem, ZERO, 0.0, 2.0,
                          SimConfig(dt=1e-3, n_paths=100_000, seed=777))
    discrepancy = abs((report.v_at_start - indep.mean) - margin)
    assert discrepancy <= 3.0 * math.hypot(se_gap, indep.std_error)


def test_a04_parabolic_solver_error_bound_and_refinement(
    adv_params, adv_problem
):
    """Numerical v is within 1e-2 of the closed form away from the kink, and
    refining the grid shrinks the error by at least 1.5x."""
    boundary = lambda t, x: advertising_value(adv_params, t, x)  # noqa: E731

    def sup_error(nx, nt):
        field = solve_parabolic(adv_problem, Grid1D(0.1, 5.0, nx, nt,
                                                    t_final=1.0),
                                boundary=boundary)
        xs, ts = field.grid.xs, field.grid.ts
        mask = xs >= 0.2
        err = 0.0
        for i, t in enumerate(ts):
            exact = advertising_value(adv_params, float(t), xs[mask])
            err = max(err, float(np.max(np.abs(field.values[i, mask] - exact))))
        return err

    coarse = sup_error(401, 1000)
    fine = sup_error(801, 2000)
    assert coarse <= 1e-2
    assert coarse / fine >= 1.5


def test_a05_exit_value_agrees_with_dynkin_oracle_and_bridge_mc(
    exit_time_problem, exit_constant_problem
):
    """Expected exit time of Brownian motion from (0,1): the PDE solve and the
    bridge-corrected Monte Carlo both recover x(1-x)."""
    field = solve_exit(exit_time_problem, Grid1D(0.0, 1.0, 201, 1500))
    assert field.value_at(0.0, np.array([[0.5]]))[0] == pytest.approx(0.25, abs=5e-3)

    est = estimate_cost(exit_time_problem, ZERO, 0.0, 0.5,
                        SimConfig(dt=1e-3, n_paths=20_000, seed=11,
                                  exit_rule="brownian_bridge"))
    assert abs(est.mean - 0.25) <= 3.0 * est.std_error + 1e-2

    # Constant data is reproduced exactly: the one output every exit-problem
    # discretization must get right to rounding.
    const = solve_exit(exit_constant_problem, Grid1D(0.0, 1.0, 51, 40))
    assert float(np.max(np.abs(const.values - 1.0))) <= 1e-12


def test_a06_gradient_blowup_exponent_at_kink(adv_problem, adv_solution):
    """v_x ~ x^(eta-1) near the kink: measured exponent -1/2 within 0.05."""
    diag = gradient_diagnostics(adv_solution, adv_problem,
                                probe_points=np.linspace(0.5, 3.0, 20)[:, None])
    assert diag.blowup_exponents[0.0] == pytest.approx(-0.5, abs=0.05)


def test_a07_hamiltonian_gap_nonnegative_and_zero_at_argmin(
    adv_problem, exit_time_problem
):
    """At 10^4 random (t, x, p): H_cv(z) >= H0 up to roundoff for random
    admissible z, with equality at the reported argmin."""
    rng = np.random.default_rng(7)
    n = 10_000

    ts = rng.uniform(0.0, 1.0, n)
    xs = rng.uniform(-3.0, 3.0, n)
    ps = rng.uniform(-10.0, 10.0, n)
    zs = rng.uniform(0.0, 6.0, n)
    for t, x, p, z in zip(ts, xs, ps, zs):
        ev = minimize(adv_problem, float(t), float(x), float(p))
        assert ev.gap_at(float(z)) >= -ev.tol_gap
        assert duality_gap(adv_problem, float(t), float(x), float(p),
                           ev.argmin) == 0.0

    ts = rng.uniform(0.0, 3.0, n)
    xs = rng.uniform(0.0, 1.0, n)
    ps = rng.uniform(-10.0, 10.0, n)
    for t, x, p in zip(ts, xs, ps):
        ev = minimize(exit_time_problem, float(t), float(x), float(p))
        assert ev.gap_at(0.0) >= -ev.tol_gap
        assert duality_gap(exit_time_problem, float(t), float(x), float(p),
                           ev.argmin) == 0.0


def test_a08_refinement_ladder_accepts_stable_rejects_unstable(
    adv_problem, adv_solution
):
    """The ladder passes on a contracting refinement sequence and fails on an
    unstable discretization whose levels diverge."""
    ladder = refine_ladder(adv_problem, Grid1D(0.1, 5.0, 101, 250), levels=4,
                           boundary=adv_solution)
    assert ladder.passed
    assert all(b < a for a, b in zip(ladder.v_distances, ladder.v_distances[1:]))
    assert ladder.v_distances[-1] <= 0.75 * ladder.v_distances[-2]

    unstable = ControlProblem(
        dimension=1, noise_dimension=1,
        horizon=FiniteHorizon(1.0, lambda x: np.sin(3 * x[:, 0])),
        drift_uncontrolled=lambda t, x: np.zeros_like(x),
        drift_controlled=lambda t, x, z: z,
        diffusion=lambda t, x: np.full(x.shape + (1,), 0.02),
        running_cost=lambda t, x, z: np.zeros(x.shape[0]),
        control_set=ControlSet.finite([[-5.0], [5.0]]),
    )
    bad = refine_ladder(unstable, Grid1D(-1.0, 1.0, 41, 5), levels=3)
    assert not bad.passed
    assert bad.v_distances[-1] > bad.v_distances[0]


_A09_CONFIG = """\
[problem]
kind = advertising

[mc]
paths = 1000
dt = 0.005
seed = 42

[verify]
policy = feedback
"""


def test_a09_cli_outputs_deterministic_and_thread_independent(tmp_path):
    """Re-running the CLI with a different --threads value reproduces every
    output byte for byte (the markdown report up to its timestamp line)."""
    config = tmp_path / "config.ini"
    config.write_text(_A09_CONFIG)

    outs = {}
    for threads in (1, 4):
        out = tmp_path / f"verify_t{threads}"
        assert cli.main(["verify", "--config", str(config), "--out", str(out),
                         "--threads", str(threads)]) == 0
        outs[threads] = out
    for name in ("config.ini", "report.json"):
        assert (outs[1] / name).read_bytes() == (outs[4] / name).read_bytes()

    def body(path):
        lines = path.read_text().splitlines()
        assert sum(l.startswith("Generated:") for l in lines) == 1
        return [l for l in lines if not l.startswith("Generated:")]

    assert body(outs[1] / "report.md") == body(outs[4] / "report.md")

    with open(outs[1] / "report.json") as fh:
        report = json.load(fh)
    assert report["certificate"]["verdict"] == VERDICT_OPTIMAL

    for threads in (1, 4):
        out = tmp_path / f"simulate_t{threads}"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                         "--threads", str(threads)]) == 0
        outs[threads] = out
    for name in ("estimate.json", "paths.csv"):
        assert (outs[1] / name).read_bytes() == (outs[4] / name).read_bytes()


def test_a10_discounted_truncation_tail_accounting():
    """Truncated discounted verification: J matches c/rate within 3 SE plus
    the a-priori tail bound, and doubling the truncation horizon moves the
    defect by less than 1e-12."""
    prob = make_discounted_demo(rate=1.0, cost=2.0)
    solution = discounted_demo_solution(rate=1.0, cost=2.0)
    cfg = SimConfig(dt=0.01, n_paths=64, seed=3)

    report = certify(prob, solution, ZERO, 0.0, 0.0, cfg, until=20.0).evidence
    assert report.passed
    assert report.identity_defect <= 1e-10
    assert abs(report.cost.mean - 2.0) <= (
        3.0 * report.cost.std_error + report.tail_bound
    )
    assert report.tail_magnitude <= report.tail_bound
    assert report.tail_bound == pytest.approx(2.0 * math.exp(-20.0), rel=1e-12)

    doubled = certify(prob, solution, ZERO, 0.0, 0.0, cfg, until=40.0).evidence
    assert doubled.passed
    assert abs(doubled.identity_defect - report.identity_defect) <= 1e-12


def test_a11_scan_only_hamiltonian_reproduces_closed_form_results(
    adv_params, adv_problem, adv_solution
):
    """Advertising with its closed-form Hamiltonian removed: the box scan
    solves the HJB to the closed-form solve's values and certifies both
    policies exactly as the closed form does."""
    scan_problem = dataclasses.replace(adv_problem, closed_form_hamiltonian=None)
    boundary = lambda t, x: advertising_value(adv_params, t, x)  # noqa: E731
    grid = Grid1D(0.1, 5.0, 41, 40, t_final=1.0)
    want = solve_parabolic(adv_problem, grid, boundary=boundary).values
    got = solve_parabolic(scan_problem, grid, boundary=boundary).values
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    cfg = SimConfig(dt=0.02, n_paths=1000, seed=11)
    scan = {}
    for name, policy in (("feedback", _feedback_policy(adv_params)), ("zero", ZERO)):
        closed = certify(adv_problem, adv_solution, policy, 0.0, 2.0, cfg)
        scan[name] = certify(scan_problem, adv_solution, policy, 0.0, 2.0, cfg)
        assert scan[name].verdict == closed.verdict
        for field in ("cost", "gap_integral"):
            a, b = getattr(closed.evidence, field), getattr(scan[name].evidence, field)
            assert abs(a.mean - b.mean) <= 3.0 * max(a.std_error, b.std_error)
    assert scan["feedback"].verdict == VERDICT_OPTIMAL
    assert scan["feedback"].optimality_margin == 0.0
    assert scan["zero"].verdict == VERDICT_SUBOPTIMAL
