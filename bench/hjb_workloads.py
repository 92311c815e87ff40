"""The three benchmark workloads: inputs, one operation, and its checks.

Each workload is a :class:`Workload` with

* ``setup(seed, out_dir)`` — builds every input from ``seed`` and returns a
  state dict (this is what ``setup_s`` times, together with the imports);
* ``prepare(state)`` — untimed housekeeping before each operation;
* ``op(state)`` — the timed operation; it returns the raw result;
* ``check(state, result, baseline)`` — correctness checks, run outside the
  timed region; returns a list of failure messages (empty means correct).
  ``baseline`` is the first successful result of the run (``None`` on the
  first operation); repetitions must reproduce it bit for bit.

The checks compare against quantities computed here, apart from the
program (an RK4 integration of the coefficient ODE, the Dynkin oracle
x0(1-x0), the analytic minimized Hamiltonian), or against properties the
method must have (verdicts, exact-zero margins, determinism).  None compares
against a stored copy of the program's output.  The pure check functions
take plain numbers so that the benchmark's own tests can feed them wrong
results.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hjbverify import benchmarks as bm
from hjbverify import cli, hamiltonian, hjb, sde, verify

# ---------------------------------------------------------------------------
# Shared problem data
# ---------------------------------------------------------------------------

ETA, ALPHA, BETA, HORIZON = 0.5, 1.0, 0.5, 1.0
X0_ADVERTISING = 2.0


def _advertising_params() -> bm.AdvertisingParams:
    return bm.AdvertisingParams(eta=ETA, alpha=ALPHA, beta=BETA, horizon=HORIZON)


def rk4_a0(eta: float, alpha: float, beta: float, horizon: float, steps: int = 2000) -> float:
    """a(0) from classical RK4 on a' = -gamma a - eta a^(1+1/eta), a(T) = 1.

    Integrated backward in time from T; gamma is formed here from the model
    parameters, not taken from the program.
    """
    gamma = 0.5 * beta**2 * eta * (1.0 + eta) - alpha * (1.0 + eta)

    def rhs(a: float) -> float:
        return -gamma * a - eta * a ** (1.0 + 1.0 / eta)

    h = -horizon / steps
    a = 1.0
    for _ in range(steps):
        k1 = rhs(a)
        k2 = rhs(a + 0.5 * h * k1)
        k3 = rhs(a + 0.5 * h * k2)
        k4 = rhs(a + h * k3)
        a += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return a


def analytic_h0(p, eta: float = ETA):
    """Canonical minimized Hamiltonian of the advertising model and its argmin.

    H_cv(z) = z p + z^(1+eta) over z >= 0 is minimized at z = m^(1/eta) with
    m = [-p]^+ / (1+eta), giving H0 = -eta m^(1+1/eta).
    """
    m = np.maximum(-np.asarray(p, dtype=float), 0.0) / (1.0 + eta)
    return -eta * m ** (1.0 + 1.0 / eta), m ** (1.0 / eta)


# ---------------------------------------------------------------------------
# Workload 1: certify_advertising
# ---------------------------------------------------------------------------

CERTIFY_PATHS = 2048
CERTIFY_DT = 1e-3


def _certify_setup(seed: int, out_dir: str) -> dict:
    params = _advertising_params()
    problem = bm.make_advertising_problem(params)

    def feedback(t, x):
        return bm.advertising_feedback(params, t, x[:, 0]).reshape(-1, 1)

    a0 = rk4_a0(ETA, ALPHA, BETA, HORIZON)
    return {
        "problem": problem,
        "source": bm.advertising_solution(params),
        "feedback": sde.FeedbackPolicy(feedback),
        "zero": sde.ConstantPolicy([0.0]),
        "sim": sde.SimConfig(dt=CERTIFY_DT, n_paths=CERTIFY_PATHS, seed=seed),
        "v_ref": a0 * X0_ADVERTISING ** (1.0 + ETA),
    }


def _certify_op(state: dict):
    results = []
    for policy in (state["feedback"], state["zero"]):
        results.append(verify.certify(state["problem"], state["source"], policy,
                                      0.0, X0_ADVERTISING, state["sim"],
                                      necessity_scan=True))
    return tuple(results)


def certificate_numbers(cert) -> dict:
    """Every number and flag a certificate carries, as a flat dict."""
    ev = cert.evidence
    return {
        "verdict": cert.verdict,
        "margin": cert.optimality_margin,
        "necessity_fraction": cert.necessity_fraction,
        "passed": ev.passed,
        "v_at_start": ev.v_at_start,
        "cost_mean": ev.cost.mean,
        "cost_se": ev.cost.std_error,
        "gap_mean": ev.gap_integral.mean,
        "gap_se": ev.gap_integral.std_error,
        "defect": ev.identity_defect,
        "tolerance": ev.tolerance_used,
        "n_paths": ev.cost.n_paths,
    }


def check_certify(feedback: dict, zero: dict, v_ref: float, dt: float) -> list[str]:
    """Checks on the two certificates' numbers (see certificate_numbers)."""
    bad = []
    for label, c in (("feedback", feedback), ("zero", zero)):
        if not abs(c["v_at_start"] - v_ref) <= 1e-8 * abs(v_ref):
            bad.append(f"{label}: v_at_start {c['v_at_start']!r} != a(0)*2^1.5 = {v_ref!r} (RK4)")
        if c["passed"] is not True:
            bad.append(f"{label}: identity check did not pass")
    if feedback["verdict"] != verify.VERDICT_OPTIMAL:
        bad.append(f"feedback: verdict {feedback['verdict']!r}, expected optimal_within_tolerance")
    if feedback["margin"] != 0.0:
        bad.append(f"feedback: margin {feedback['margin']!r}, expected exactly 0.0")
    if feedback["necessity_fraction"] != 0.0:
        bad.append(f"feedback: necessity fraction {feedback['necessity_fraction']!r}, expected 0.0")
    if not abs(feedback["cost_mean"] - feedback["v_at_start"]) <= 3.0 * feedback["cost_se"] + math.sqrt(dt):
        bad.append(f"feedback: |J - v| = {abs(feedback['cost_mean'] - feedback['v_at_start']):.3e} "
                   f"exceeds 3*SE + sqrt(dt) = {3.0 * feedback['cost_se'] + math.sqrt(dt):.3e}")
    if zero["verdict"] != verify.VERDICT_SUBOPTIMAL:
        bad.append(f"zero: verdict {zero['verdict']!r}, expected suboptimal")
    if not zero["margin"] > 10.0 * zero["gap_se"]:
        bad.append(f"zero: margin {zero['margin']!r} not above 10*SE(gap) = {10.0 * zero['gap_se']!r}")
    return bad


def _certify_check(state: dict, result, baseline) -> list[str]:
    numbers = tuple(certificate_numbers(c) for c in result)
    bad = check_certify(numbers[0], numbers[1], state["v_ref"], CERTIFY_DT)
    if baseline is not None:
        bad += check_identical(numbers, tuple(certificate_numbers(c) for c in baseline))
    return bad


def check_identical(numbers, baseline_numbers) -> list[str]:
    """Repetitions must return bit-identical numbers (compared by repr)."""
    if repr(numbers) != repr(baseline_numbers):
        return [f"repetition differs from the first result: {numbers!r} vs {baseline_numbers!r}"]
    return []


# ---------------------------------------------------------------------------
# Workload 2: exit_verify_cli
# ---------------------------------------------------------------------------

EXIT_PATHS = 1024
EXIT_X0 = 0.5
EXIT_DT = 1e-3          # the CLI default, written explicitly into the config
EXIT_C2 = 1.0
EXIT_THREADS = 2


def _exit_setup(seed: int, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    config = os.path.join(out_dir, "exit.ini")
    with open(config, "w") as fh:
        fh.write(
            "[problem]\nkind = exit_expected_time\nhorizon = 3.0\n\n"
            "[grid]\nx_min = 0.0\nx_max = 1.0\nnx = 201\nnt = 1500\n\n"
            f"[mc]\npaths = {EXIT_PATHS}\ndt = {EXIT_DT!r}\nseed = {seed}\n"
            "exit_rule = brownian_bridge\n\n"
            f"[verify]\npolicy = zero\nx0 = {EXIT_X0!r}\nc1 = 1.0\nc2 = {EXIT_C2!r}\n"
        )
    return {"config": config, "out": os.path.join(out_dir, "report")}


def _exit_prepare(state: dict) -> None:
    shutil.rmtree(state["out"], ignore_errors=True)


def _exit_op(state: dict):
    rc = cli.main(["verify", "--config", state["config"], "--out", state["out"],
                   "--threads", str(EXIT_THREADS)])
    files = {}
    for name in sorted(os.listdir(state["out"])):
        with open(os.path.join(state["out"], name), "rb") as fh:
            files[name] = fh.read()
    return rc, files


def _without_generated_line(markdown: bytes) -> bytes:
    return b"\n".join(line for line in markdown.split(b"\n") if not line.startswith(b"Generated:"))


def check_exit(rc: int, files: dict, baseline_files: dict | None) -> list[str]:
    """Checks on the CLI's exit code and output files (name -> bytes)."""
    bad = []
    if rc != 0:
        bad.append(f"exit code {rc}, expected 0")
    if "failures.json" in files:
        bad.append(f"failures.json written: {files['failures.json'][:200]!r}")
    if "report.json" not in files:
        return bad + ["report.json missing"]
    report = json.loads(files["report.json"])
    ident, cert = report["identity"], report["certificate"] or {}
    oracle = EXIT_X0 * (1.0 - EXIT_X0)            # Dynkin: E[tau] = x0 (1 - x0)
    if not abs(ident["v_at_start"] - oracle) <= 5e-3:
        bad.append(f"v_at_start {ident['v_at_start']!r} not within 5e-3 of {oracle}")
    cost, se = ident["cost"]["mean"], ident["cost"]["std_error"]
    budget = 3.0 * se + EXIT_C2 * math.sqrt(EXIT_DT)
    if not abs(cost - oracle) <= budget:
        bad.append(f"cost.mean {cost!r} not within 3*SE + c2*sqrt(dt) = {budget:.3e} of {oracle}")
    if ident["passed"] is not True:
        bad.append("identity check did not pass")
    if cert.get("verdict") != verify.VERDICT_OPTIMAL:
        bad.append(f"verdict {cert.get('verdict')!r}, expected optimal_within_tolerance")
    if cert.get("optimality_margin") != 0.0:
        bad.append(f"margin {cert.get('optimality_margin')!r}, expected exactly 0.0")
    if baseline_files is not None:
        for name in ("report.json", "config.ini"):
            if files.get(name) != baseline_files.get(name):
                bad.append(f"{name} differs from the first repetition")
        if _without_generated_line(files.get("report.md", b"")) != \
                _without_generated_line(baseline_files.get("report.md", b"")):
            bad.append("report.md differs from the first repetition beyond its Generated: line")
    return bad


def _exit_check(state: dict, result, baseline) -> list[str]:
    rc, files = result
    return check_exit(rc, files, None if baseline is None else baseline[1])


# ---------------------------------------------------------------------------
# Workload 3: box_scan_solve
# ---------------------------------------------------------------------------

BOX_GRID = dict(x_min=0.1, x_max=5.0, nx=21, nt=10)
BOX_H0_SAMPLES = 6


def _box_setup(seed: int, out_dir: str) -> dict:
    params = _advertising_params()
    problem = bm.make_advertising_problem(params)
    scan_problem = dataclasses.replace(problem, closed_form_hamiltonian=None)
    grid = hjb.Grid1D(**BOX_GRID)

    def boundary(t, x):
        return bm.advertising_value(params, t, x)

    rng = np.random.default_rng(seed)
    samples = np.column_stack([rng.uniform(0.0, HORIZON, BOX_H0_SAMPLES),
                               rng.uniform(BOX_GRID["x_min"], BOX_GRID["x_max"], BOX_H0_SAMPLES),
                               rng.uniform(-6.0, 1.0, BOX_H0_SAMPLES)])
    reference = hjb.solve_parabolic(problem, grid, boundary=boundary)
    return {"problem": scan_problem, "grid": grid, "boundary": boundary,
            "samples": samples, "reference": reference.values}


def _box_op(state: dict):
    return hjb.solve_parabolic(state["problem"], state["grid"], boundary=state["boundary"])


def check_h0(samples: np.ndarray, values: np.ndarray, argmins: np.ndarray) -> list[str]:
    """hamiltonian.minimize at (t, x, p) rows against the analytic H0."""
    bad = []
    want_v, want_z = analytic_h0(samples[:, 2])
    for i in range(samples.shape[0]):
        if not abs(values[i] - want_v[i]) <= 1e-9 * (1.0 + abs(want_v[i])):
            bad.append(f"H0 at {samples[i].tolist()}: {values[i]!r} vs analytic {want_v[i]!r}")
        if not abs(argmins[i] - want_z[i]) <= 1e-6:
            bad.append(f"argmin at {samples[i].tolist()}: {argmins[i]!r} vs analytic {want_z[i]!r}")
    return bad


def check_field(values: np.ndarray, reference: np.ndarray, baseline: np.ndarray | None) -> list[str]:
    """The box-scan field against the closed-form-Hamiltonian solve."""
    bad = []
    scale = float(np.max(np.abs(reference)))
    dev = float(np.max(np.abs(values - reference)))
    if not dev <= 1e-9 * scale:
        bad.append(f"field deviates from the closed-form solve by {dev:.3e} > 1e-9 * {scale:.3e}")
    if baseline is not None and not np.array_equal(values, baseline):
        bad.append("field differs from the first repetition")
    return bad


def _box_check(state: dict, result, baseline) -> list[str]:
    evals = [hamiltonian.minimize(state["problem"], float(t), float(x), float(p))
             for t, x, p in state["samples"]]
    bad = check_h0(state["samples"], np.array([e.value for e in evals]),
                   np.array([e.argmin for e in evals]))
    return bad + check_field(result.values, state["reference"],
                             None if baseline is None else baseline.values)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    op: Callable
    check: Callable
    prepare: Callable = lambda state: None
    via_cli: bool = False          # the operation enters through cli.main


WORKLOADS = {
    w.name: w for w in (
        Workload("certify_advertising", _certify_setup, _certify_op, _certify_check),
        Workload("exit_verify_cli", _exit_setup, _exit_op, _exit_check,
                 prepare=_exit_prepare, via_cli=True),
        Workload("box_scan_solve", _box_setup, _box_op, _box_check),
    )
}
