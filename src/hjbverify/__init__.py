"""hjbverify: verify stochastic optimal control solutions via the fundamental identity.

The toolkit connects three views of a controlled diffusion:

* **analytic** — semilinear HJB equations solved on 1-D grids (:mod:`.hjb`),
  with residual, refinement-ladder, and gradient diagnostics;
* **probabilistic** — Euler–Maruyama simulation with counter-based,
  reproducible randomness and exit-time detection (:mod:`.sde`);
* **variational** — current-value Hamiltonians, their minimizers, and the
  pointwise duality gap (:mod:`.hamiltonian`).

:mod:`.verify` ties them together: along simulated trajectories the identity
``J(t0, x0; policy) = v(t0, x0) + E ∫ (H_cv - H0) ds`` holds for any candidate
value function v that solves the HJB equation, so the Monte Carlo defect of
that identity is a *checkable certificate* — and the gap integral measures
exactly how suboptimal the policy is.  :mod:`.benchmarks` supplies closed-form
ground truth (a degenerate advertising model and two exit/discounted demos),
and :mod:`.cli` exposes solve/simulate/verify/benchmark workflows.
"""

__version__ = "0.1.0"

from .benchmarks import (
    AdvertisingParams,
    advertising_coefficients,
    advertising_feedback,
    advertising_gradient,
    advertising_solution,
    advertising_value,
    discounted_demo_solution,
    make_advertising_problem,
    make_discounted_demo,
    make_exit_demo,
)
from .hamiltonian import (
    HamiltonianEval,
    current_value,
    duality_gap,
    feedback_map,
    minimize,
)
from .hjb import (
    ApproximationLadder,
    GradientDiagnostics,
    Grid1D,
    ResidualReport,
    SpaceTimeField,
    field_from_callable,
    gradient_diagnostics,
    refine_ladder,
    residual,
    solve_exit,
    solve_parabolic,
)
from .problem import (
    CoefficientError,
    ControlProblem,
    ControlSet,
    DiscountedInfinite,
    Domain,
    FiniteHorizon,
    HypothesisReport,
    canonicalize,
    probe_hypotheses,
    rowwise,
)
from .sde import (
    ConstantPolicy,
    FeedbackPolicy,
    OpenLoopPolicy,
    PathBatch,
    SimConfig,
    dump_paths_csv,
    gaussian_increments,
    simulate,
    simulate_chunks,
)
from .verify import (
    VERDICT_INCONCLUSIVE,
    VERDICT_OPTIMAL,
    VERDICT_SUBOPTIMAL,
    Certificate,
    ClosedFormValue,
    CostEstimate,
    IdentityReport,
    estimate_cost,
    certify,
)

__all__ = [
    "__version__",
    # problem
    "ControlSet", "Domain", "FiniteHorizon", "DiscountedInfinite",
    "ControlProblem", "HypothesisReport", "CoefficientError",
    "probe_hypotheses", "canonicalize", "rowwise",
    # hamiltonian
    "HamiltonianEval", "current_value", "minimize", "duality_gap",
    "feedback_map",
    # sde
    "SimConfig", "ConstantPolicy", "OpenLoopPolicy", "FeedbackPolicy",
    "PathBatch", "simulate", "simulate_chunks",
    "gaussian_increments", "dump_paths_csv",
    # hjb
    "Grid1D", "SpaceTimeField", "ResidualReport", "ApproximationLadder",
    "GradientDiagnostics", "solve_parabolic", "solve_exit", "refine_ladder",
    "residual", "gradient_diagnostics", "field_from_callable",
    # verify
    "CostEstimate", "IdentityReport", "Certificate", "ClosedFormValue",
    "estimate_cost", "certify",
    "VERDICT_OPTIMAL", "VERDICT_SUBOPTIMAL", "VERDICT_INCONCLUSIVE",
    # benchmarks
    "AdvertisingParams", "advertising_coefficients", "advertising_value",
    "advertising_gradient", "advertising_feedback", "advertising_solution",
    "make_advertising_problem", "make_exit_demo", "make_discounted_demo",
    "discounted_demo_solution",
]
