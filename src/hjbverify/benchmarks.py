"""Closed-form benchmark problems.

The main benchmark is a degenerate-diffusion advertising model on the line:

    dy(s) = [-alpha * y(s) + z(s)] ds + beta * y(s) dW(s),    z(s) >= 0,

maximizing  E[ integral of -z(s)^{1+eta} ds + h(y(T)) ]  with terminal reward
h(x) = |x|^{1+eta} sgn(x), 0 < eta < 1.  The value function is

    v(t, x) = a(t) x^{1+eta}        (x > 0)
            = 0                     (x = 0)
            = b(t) |x|^{1+eta}      (x < 0)

with b(t) = -exp(gamma (t - T)) and a(t) = w(t)^{-eta}, where w solves the
linear equation w' = (gamma/eta) w + 1, w(T) = 1 (the Bernoulli substitution
for a' = -gamma a - eta a^{1 + 1/eta}, a(T) = 1), and

    gamma = beta^2 eta (1 + eta) / 2 - alpha (1 + eta).

v is C^1 in x but not C^2 at x = 0 (|v_xx| ~ |x|^{eta-1}), which is exactly
why this family is a good stress test for gradient-only verification: the
classical C^{1,2} route is unavailable while the optimal feedback
z = ([grad v]^+ / (1+eta))^{1/eta} is still well defined.

Also provided: two exit-time demos on the unit interval driven by a standard
Brownian motion (constant data, and the expected-exit-time problem whose
stationary value is x(1-x)), and a constant-cost discounted demo whose value
is cost/rate exactly.  ``advertising_solution`` and
``discounted_demo_solution`` return these closed forms as
:class:`~hjbverify.verify.ClosedFormValue` candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import probe_batch
from .problem import (
    ControlProblem,
    ControlSet,
    DiscountedInfinite,
    Domain,
    FiniteHorizon,
)
from .verify import ClosedFormValue

__all__ = [
    "AdvertisingParams",
    "advertising_coefficients",
    "advertising_value",
    "advertising_gradient",
    "advertising_feedback",
    "advertising_solution",
    "make_advertising_problem",
    "make_exit_demo",
    "make_discounted_demo",
    "discounted_demo_solution",
]


@dataclass(frozen=True)
class AdvertisingParams:
    """Parameters of the advertising benchmark.

    Requires 0 < eta < 1, alpha > 0, beta > 0, horizon > 0 and the validity
    condition beta^2 eta / 2 < alpha (degenerate noise must not overpower the
    mean reversion, otherwise the closed form is not globally defined).
    """

    eta: float = 0.5
    alpha: float = 1.0
    beta: float = 0.5
    horizon: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if not (self.alpha > 0.0 and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (self.beta > 0.0 and np.isfinite(self.beta)):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        lhs = 0.5 * self.beta**2 * self.eta
        if not (lhs < self.alpha):
            raise ValueError(
                "validity condition beta^2*eta/2 < alpha violated: "
                f"{lhs:g} >= {self.alpha:g}"
            )

    @property
    def gamma(self) -> float:
        """Linear coefficient of both coefficient ODEs (negative when valid)."""
        return 0.5 * self.beta**2 * self.eta * (1.0 + self.eta) - self.alpha * (1.0 + self.eta)


def _w(params: AdvertisingParams, t) -> np.ndarray:
    """Bernoulli substitution w(t) = a(t)^{-1/eta}; must stay positive."""
    T = params.horizon
    kappa = params.gamma / params.eta  # < 0 under the validity condition
    t = np.asarray(t, dtype=float)
    w = (1.0 + 1.0 / kappa) * np.exp(kappa * (t - T)) - 1.0 / kappa
    if (w <= 0.0).any():
        bad = np.min(np.where(w <= 0.0, t, np.inf))
        raise ValueError(
            f"advertising coefficient a(t) is not defined at t = {bad:g}: the "
            "Bernoulli solution w(t) reached zero (the closed form blows up "
            "backward in time for these parameters; shorten the horizon)"
        )
    return w


def advertising_coefficients(params: AdvertisingParams, t):
    """Closed-form (a(t), b(t)); vectorized over t."""
    t = np.asarray(t, dtype=float)
    if (t > params.horizon + 1e-12).any() or (t < -1e-12).any():
        raise ValueError(f"t must lie in [0, {params.horizon}], got range "
                         f"[{np.min(t):g}, {np.max(t):g}]")
    a = _w(params, t) ** (-params.eta)
    b = -np.exp(params.gamma * (t - params.horizon))
    if t.ndim == 0:
        return float(a), float(b)
    return a, b


def advertising_value(params: AdvertisingParams, t, x):
    """v(t, x); broadcasts over t and x."""
    a, b = advertising_coefficients(params, t)
    x = np.asarray(x, dtype=float)
    ax = np.abs(x) ** (1.0 + params.eta)
    out = np.where(x > 0.0, a * ax, np.where(x < 0.0, b * ax, 0.0))
    return float(out) if out.ndim == 0 else out


def advertising_gradient(params: AdvertisingParams, t, x):
    """dv/dx(t, x); continuous through x = 0 (the kink is in v_xx)."""
    a, b = advertising_coefficients(params, t)
    x = np.asarray(x, dtype=float)
    ax = np.abs(x) ** params.eta
    out = (1.0 + params.eta) * np.where(x > 0.0, a * ax, np.where(x < 0.0, -b * ax, 0.0))
    return float(out) if out.ndim == 0 else out


def advertising_feedback(params: AdvertisingParams, t, x):
    """Optimal feedback z = ([dv/dx]^+ / (1+eta))^{1/eta}, in closed form."""
    a, b = advertising_coefficients(params, t)
    x = np.asarray(x, dtype=float)
    inv_eta = 1.0 / params.eta
    out = np.where(
        x > 0.0,
        a**inv_eta * np.abs(x),
        np.where(x < 0.0, (-b) ** inv_eta * np.abs(x), 0.0),
    )
    return float(out) if out.ndim == 0 else out


def advertising_solution(params: AdvertisingParams) -> ClosedFormValue:
    """The closed-form v and v_x as a candidate value function (maximize sense)."""
    return ClosedFormValue(
        value_fn=lambda t, x: advertising_value(params, t, probe_batch(x, 1)[:, 0]),
        gradient_fn=lambda t, x: advertising_gradient(params, t, probe_batch(x, 1)[:, 0]),
    )


def make_advertising_problem(params: AdvertisingParams) -> ControlProblem:
    """The advertising model as a ControlProblem (maximize sense).

    The canonical-form Hamiltonian has the closed form

        H0(p) = -eta ([-p]^+ / (1+eta))^{1 + 1/eta},
        argmin z = ([-p]^+ / (1+eta))^{1/eta},

    registered on the problem so PDE solves and gap estimates vectorize.
    """
    eta, alpha, beta = params.eta, params.alpha, params.beta

    def drift_uncontrolled(t, x):
        return -alpha * x

    def drift_controlled(t, x, z):
        return z

    def diffusion(t, x):
        return beta * x[..., None]

    def running_cost(t, x, z):
        # maximize sense: reward is -cost of advertising effort
        return -(z[..., 0] ** (1.0 + eta))

    def terminal_cost(x):
        xs = x[..., 0]
        return np.sign(xs) * np.abs(xs) ** (1.0 + eta)

    def closed_form_hamiltonian(t, x, p):
        m = np.maximum(-np.asarray(p, dtype=float), 0.0) / (1.0 + eta)
        value = -eta * m ** (1.0 + 1.0 / eta)
        argmin = m ** (1.0 / eta)
        return value, argmin

    return ControlProblem(
        dimension=1,
        noise_dimension=1,
        horizon=FiniteHorizon(params.horizon, terminal_cost),
        drift_uncontrolled=drift_uncontrolled,
        drift_controlled=drift_controlled,
        diffusion=diffusion,
        control_set=ControlSet.box([0.0], [math.inf]),
        running_cost=running_cost,
        sense="maximize",
        closed_form_hamiltonian=closed_form_hamiltonian,
        kink_points=(0.0,),
        name="advertising",
    )


# dy = dW, with no control effect: the dynamics of the exit and discounted demos.
def _zero_drift(t, x):
    return np.zeros_like(x)


def _zero_controlled_drift(t, x, z):
    return np.zeros_like(x)


def _unit_diffusion(t, x):
    return np.ones(x.shape + (1,))


def make_exit_demo(
    kind: str = "expected_exit_time",
    constant_value: float = 1.0,
    horizon: float | None = None,
) -> ControlProblem:
    """Exit-time demos on O = (0, 1) with dy = dW (no control effect).

    * ``"constant"`` — zero running cost, boundary and terminal data equal to
      ``constant_value``; the value function is that constant exactly, which
      pins down every term of the exit identity.
    * ``"expected_exit_time"`` — unit running cost, zero boundary/terminal
      data: the cost is E[tau ∧ T], which converges to x(1-x) as the horizon
      grows (Dynkin).  Default horizon 3.0 makes the truncation error ~4e-7.
    """
    if kind not in ("constant", "expected_exit_time"):
        raise ValueError(f"unknown exit demo kind {kind!r}")
    T = horizon if horizon is not None else (1.0 if kind == "constant" else 3.0)

    if kind == "constant":
        c = float(constant_value)

        def running_cost(t, x, z):
            return np.zeros(x.shape[:-1])

        def terminal_cost(x):
            return np.full(x.shape[:-1], c)

        def boundary_cost(t, x):
            return np.full(x.shape[:-1], c)
    else:
        def running_cost(t, x, z):
            return np.ones(x.shape[:-1])

        def terminal_cost(x):
            return np.zeros(x.shape[:-1])

        def boundary_cost(t, x):
            return np.zeros(x.shape[:-1])

    return ControlProblem(
        dimension=1,
        noise_dimension=1,
        horizon=FiniteHorizon(T, terminal_cost),
        drift_uncontrolled=_zero_drift,
        drift_controlled=_zero_controlled_drift,
        diffusion=_unit_diffusion,
        control_set=ControlSet.finite([[0.0]]),
        running_cost=running_cost,
        domain=Domain.interval(0.0, 1.0),
        boundary_cost=boundary_cost,
        sense="minimize",
        name="exit_demo",
    )


def make_discounted_demo(rate: float = 1.0, cost: float = 1.0) -> ControlProblem:
    """Constant-cost discounted problem: dy = dW, l1 ≡ cost, J = cost/rate.

    The control does not enter the dynamics or the cost, so the duality gap is
    identically zero for every policy and the stationary HJB
    rate·v = v''/2 + H1 is solved exactly by the constant v = cost/rate.  This
    pins down every term of the truncated infinite-horizon identity.
    """
    if not rate > 0.0:
        raise ValueError(f"discount rate must be positive, got {rate}")
    c = float(cost)

    def running_cost(x, z):
        return np.full(x.shape[:-1], c)

    def closed_form_hamiltonian(t, x, p):
        pa = np.asarray(p, dtype=float)
        return np.full_like(pa, c), np.zeros_like(pa)

    return ControlProblem(
        dimension=1,
        noise_dimension=1,
        horizon=DiscountedInfinite(rate=float(rate), running_cost=running_cost),
        drift_uncontrolled=_zero_drift,
        drift_controlled=_zero_controlled_drift,
        diffusion=_unit_diffusion,
        control_set=ControlSet.finite([[0.0]]),
        sense="minimize",
        closed_form_hamiltonian=closed_form_hamiltonian,
        name="discounted_demo",
    )


def discounted_demo_solution(rate: float = 1.0, cost: float = 1.0) -> ClosedFormValue:
    """The exact value v ≡ cost/rate of the discounted demo, with zero gradient."""
    return _constant_solution(float(cost) / float(rate))


def _constant_solution(v: float) -> ClosedFormValue:
    """The 1-d candidate v ≡ v with zero gradient (discounted and constant exit demos)."""
    return ClosedFormValue(value_fn=lambda t, x: np.full(probe_batch(x, 1).shape[0], v),
                           gradient_fn=lambda t, x: np.zeros_like(probe_batch(x, 1)))
