"""Command-line interface: solve, simulate, verify, and benchmark workflows.

Configuration is a flat sectioned ``key = value`` file (INI syntax, sections
``[problem]``, ``[grid]``, ``[mc]``, ``[verify]``; ``[problem]`` and
``[benchmark]`` for the benchmark subcommand), described by ``_SCHEMA``.
Every run writes its fully resolved configuration (defaults filled, CLI
overrides applied) to ``<out>/config.ini``; re-running any subcommand on that
echo reproduces all CSV/JSON outputs byte-for-byte.  The human-readable
markdown report embeds a timestamp in one designated header line only — every
other output is deterministic given the config.

Exit status: 0 when all gated checks pass, 1 with a machine-readable
``failures.json`` when a gated check fails, 2 on configuration or runtime
errors.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import datetime
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from . import benchmarks as bm
from . import hamiltonian, hjb, sde, verify
from .problem import (
    DiscountedInfinite,
    Domain,
    canonicalize,
    probe_hypotheses,
)

__all__ = ["main"]

log = logging.getLogger(__name__)

_N_DUMP_PATHS = 100  # paths.csv keeps the first 100 paths (per-path streams make
                     # this an exact prefix of the full estimator run)

# Per problem kind: its [problem] parameters (all floats) with their defaults,
# and the defaults it changes in the other sections of _SCHEMA.
_PER_KIND = {
    "advertising": {
        "problem": {"eta": 0.5, "alpha": 1.0, "beta": 0.5, "horizon": 1.0},
        "grid": {"x_min": 0.1, "x_max": 5.0, "nx": 401, "nt": 1000, "boundary": "closed_form"},
        "verify": {"x0": 2.0, "policy": "feedback"},
    },
    "exit_constant": {"problem": {"horizon": 1.0, "constant": 1.0}},
    "exit_expected_time": {"problem": {"horizon": 3.0}},
    "discounted_constant": {"problem": {"rate": 1.0, "cost": 1.0}, "verify": {"x0": 0.0}},
}

# The config schema, in echo order: section -> key -> (type, default).  A type
# is float, int, str, [float] (a comma-separated list) or a tuple of the
# allowed words.  A key whose default is None is echoed only when it is set,
# except [benchmark] times, which defaults to quarters of the horizon.  The
# benchmark subcommand reads [problem] and [benchmark]; the others read the
# rest.
_SCHEMA = {
    "problem": {"kind": (tuple(_PER_KIND), "advertising")},
    "grid": {"x_min": (float, 0.0), "x_max": (float, 1.0), "nx": (int, 201), "nt": (int, 1500),
             "boundary": (("closed_form", "extrapolate"), "extrapolate")},
    "mc": {"paths": (int, 10000), "dt": (float, 0.001), "seed": (int, 0),
           "exit_rule": (("grid_crossing", "brownian_bridge"), "grid_crossing")},
    "verify": {"policy": (str, "zero"), "t0": (float, 0.0), "x0": (float, 0.5),
               "c1": (float, 1.0), "c2": (float, 1.0), "tolerance": (float, None),
               "truncation_t1": (float, 20.0)},
    "benchmark": {"times": ([float], None), "x_min": (float, -2.0), "x_max": (float, 2.0),
                  "nx": (int, 81), "nt_coefficients": (int, 201)},
}


class ConfigError(ValueError):
    """A configuration file problem, citing the offending section/key."""


def _load_config(path: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _canonical(section: str, key: str, text, typ) -> str:
    """Parse ``text`` as ``typ`` and format it back, so the echo is a fixed point."""
    if isinstance(typ, tuple):
        if text not in typ:
            raise ConfigError(f"[{section}] {key} = {text!r} is not one of "
                              f"{', '.join(typ[:-1])} or {typ[-1]}")
        return text
    try:
        if isinstance(typ, list):
            return ",".join(str(typ[0](item)) for item in text.split(","))
        return str(typ(text))
    except ValueError as exc:
        name = f"comma-separated list of {typ[0].__name__}s" if isinstance(typ, list) else typ.__name__
        raise ConfigError(f"[{section}] {key} = {text!r} is not a valid {name}") from exc


def _resolve(raw: dict[str, dict[str, str]], command: str,
             overrides: dict[str, dict[str, str]]) -> dict[str, dict[str, str]]:
    """Fill defaults, apply the flag ``overrides``, validate and canonicalize.

    Returns section -> key -> canonical value text for the sections that
    ``command`` reads.
    """
    sections = ("problem", "benchmark") if command == "benchmark" else ("problem", "grid", "mc", "verify")
    for section in raw:
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}] for {command}")
    given = {s: {**raw.get(s, {}), **overrides.get(s, {})} for s in sections}
    kind_type, kind_default = _SCHEMA["problem"]["kind"]
    kind = _canonical("problem", "kind", given["problem"].get("kind", kind_default), kind_type)
    if command == "benchmark" and kind != "advertising":
        raise ConfigError("the benchmark subcommand supports kind = advertising only")
    per_kind = _PER_KIND[kind]

    cfg = {}
    for section in sections:
        schema = {key: (typ, per_kind.get(section, {}).get(key, default))
                  for key, (typ, default) in _SCHEMA[section].items()}
        if section == "problem":
            schema.update((key, (float, default)) for key, default in per_kind["problem"].items())
        for key in given[section]:
            if key not in schema:
                raise ConfigError(
                    f"[{section}] key {key!r} is not valid"
                    + (f" for problem kind {kind!r}" if section == "problem" else "")
                )
        cfg[section] = {key: _canonical(section, key, given[section].get(key, default), typ)
                        for key, (typ, default) in schema.items()
                        if key in given[section] or default is not None}

    if command == "benchmark" and "times" not in cfg["benchmark"]:
        horizon = float(cfg["problem"]["horizon"])
        cfg["benchmark"]["times"] = ",".join(str(q / 4 * horizon) for q in range(5))
    if "grid" in cfg and cfg["grid"]["boundary"] == "closed_form" and kind != "advertising":
        raise ConfigError("[grid] boundary = closed_form is only available for the "
                          "advertising problem; use extrapolate")
    if "verify" in cfg:
        _parse_policy_spec(cfg["verify"]["policy"])
    return cfg


def _echo_config(cfg: dict[str, dict[str, str]], out_dir: str) -> None:
    """Write ``cfg`` as INI: sections in schema order, ``kind`` first, other keys sorted."""
    lines = []
    for section in (s for s in _SCHEMA if s in cfg):
        lines.append(f"[{section}]")
        for key in sorted(cfg[section], key=lambda k: (k != "kind", k)):
            lines.append(f"{key} = {cfg[section][key]}")
        lines.append("")
    with open(os.path.join(out_dir, "config.ini"), "w") as fh:
        fh.write("\n".join(lines))


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Problem / policy construction from a resolved config
# ---------------------------------------------------------------------------


def _build_problem(cfg: dict):
    p = cfg["problem"]
    kind = p["kind"]
    if kind == "advertising":
        params = bm.AdvertisingParams(eta=float(p["eta"]), alpha=float(p["alpha"]),
                                      beta=float(p["beta"]), horizon=float(p["horizon"]))
        return bm.make_advertising_problem(params), params
    if kind == "exit_constant":
        return bm.make_exit_demo("constant", constant_value=float(p["constant"]),
                                 horizon=float(p["horizon"])), None
    if kind == "exit_expected_time":
        return bm.make_exit_demo("expected_exit_time", horizon=float(p["horizon"])), None
    return bm.make_discounted_demo(rate=float(p["rate"]), cost=float(p["cost"])), None


def _closed_form_source(cfg: dict, params):
    kind = cfg["problem"]["kind"]
    if kind == "advertising":
        return bm.advertising_solution(params)
    if kind == "exit_constant":
        return bm._constant_solution(float(cfg["problem"]["constant"]))
    if kind == "discounted_constant":
        return bm.discounted_demo_solution(rate=float(cfg["problem"]["rate"]),
                                           cost=float(cfg["problem"]["cost"]))
    return None  # exit_expected_time: no closed form, solve for the candidate


def _parse_policy_spec(spec: str) -> tuple[str, float | None]:
    if spec == "feedback":
        return "feedback", None
    if spec == "zero":
        return "constant", 0.0
    if spec.startswith("constant:"):
        try:
            return "constant", float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"[verify] policy = {spec!r}: constant value is not a number") from exc
    raise ConfigError(
        f"[verify] policy = {spec!r} must be feedback, zero, or constant:<value>"
    )


def _build_policy(cfg: dict, problem, params):
    kind_name, value = _parse_policy_spec(cfg["verify"]["policy"])
    if kind_name == "feedback":
        if cfg["problem"]["kind"] != "advertising":
            raise ConfigError(
                "[verify] policy = feedback requires the advertising problem "
                "(the only kind with a closed-form optimal feedback)"
            )
        return sde.FeedbackPolicy(
            lambda t, x: bm.advertising_feedback(params, t, x[:, 0]).reshape(-1, 1)
        )
    z = np.full(problem.control_dimension, value)
    if not np.all(problem.control_set.contains(z.reshape(1, -1))):
        raise ConfigError(
            f"[verify] policy constant {value} lies outside the admissible control set"
        )
    return sde.ConstantPolicy(z)


def _build_sim_config(cfg: dict) -> sde.SimConfig:
    m = cfg["mc"]
    return sde.SimConfig(dt=float(m["dt"]), n_paths=int(m["paths"]),
                         seed=int(m["seed"]), exit_rule=m["exit_rule"])


def _solve_field(cfg: dict, problem, params) -> tuple[hjb.SpaceTimeField, hjb.ResidualReport]:
    """The solved field and its residual report (see ``hjb._solve``)."""
    g = cfg["grid"]
    grid = hjb.Grid1D(x_min=float(g["x_min"]), x_max=float(g["x_max"]),
                      nx=int(g["nx"]), nt=int(g["nt"]))
    boundary = None
    if g["boundary"] == "closed_form":  # advertising only, as _resolve checked
        boundary = lambda t, x: bm.advertising_value(params, t, x)  # noqa: E731
    return hjb._solve(problem, grid, boundary)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: dict, out_dir: str) -> list[dict]:
    problem, params = _build_problem(cfg)
    field, residual_report = _solve_field(cfg, problem, params)
    field.to_csv(os.path.join(out_dir, "field.csv"))
    _write_json(os.path.join(out_dir, "residual.json"), {
        "sup_interior_residual": residual_report.sup_interior_residual,
        "excluded_nodes": list(residual_report.excluded_nodes),
        "grid": {"x_min": field.grid.x_min, "x_max": field.grid.x_max,
                 "nx": field.grid.nx, "nt": field.grid.nt,
                 "dx": field.grid.dx, "dt": field.grid.dt,
                 "stability_ratio": field.grid.stability_ratio},
        "config": cfg,
        "version": __version__,
    })
    return []


def _run_window(cfg: dict, problem) -> tuple[float, float | None]:
    """(t0, until) of a run: discounted kinds run from 0 to truncation_t1."""
    if isinstance(problem.horizon, DiscountedInfinite):
        return 0.0, float(cfg["verify"]["truncation_t1"])
    return float(cfg["verify"]["t0"]), None


def cmd_simulate(cfg: dict, out_dir: str) -> list[dict]:
    problem, params = _build_problem(cfg)
    policy = _build_policy(cfg, problem, params)
    sim = _build_sim_config(cfg)
    t0, until = _run_window(cfg, problem)
    x0 = float(cfg["verify"]["x0"])
    est = verify.estimate_cost(problem, policy, t0, x0, sim, until=until)
    batch = sde.simulate(problem, policy, t0, x0, sim, until=until,
                         path_range=(0, min(sim.n_paths, _N_DUMP_PATHS)))
    sde.dump_paths_csv(batch, os.path.join(out_dir, "paths.csv"))
    _write_json(os.path.join(out_dir, "estimate.json"), {
        **dataclasses.asdict(est),
        "paths_in_csv": batch.n_paths,
        "config": cfg,
        "version": __version__,
    })
    return []


def _hypotheses_dict(problem, cfg: dict) -> dict:
    if isinstance(problem.horizon, DiscountedInfinite):
        x0 = float(cfg["verify"]["x0"])
        region = (x0 - 1.0, x0 + 1.0)
    else:
        region = (float(cfg["grid"]["x_min"]), float(cfg["grid"]["x_max"]))
    rep = probe_hypotheses(problem, n_samples=200, seed=int(cfg["mc"]["seed"]),
                           sample_region=Domain.interval(region[0], region[1]))
    gir = rep.girsanov_sup_estimate
    return {
        "lipschitz_f0_estimate": rep.lipschitz_F0_estimate,
        "lipschitz_f1_estimate": rep.lipschitz_F1_estimate,
        "ellipticity_lambda0_estimate": rep.ellipticity_lambda0_estimate,
        "girsanov_sup_estimate": None if np.isinf(gir) else gir,
        "sample_region": [region[0], region[1]],
        "n_samples": rep.samples_used,
    }


def _diagnostics_dict(problem, source, residual_report, cfg: dict) -> dict:
    """``residual_report`` is a solved field's, None for a closed form."""
    out: dict = {"candidate_source": source.provenance}
    solved = source.grid is not None
    if solved:
        out["sup_interior_residual"] = residual_report.sup_interior_residual
        out["grid"] = {"x_min": source.grid.x_min, "x_max": source.grid.x_max,
                       "nx": source.grid.nx, "nt": source.grid.nt}
    if not isinstance(problem.horizon, DiscountedInfinite):
        lo, hi = float(cfg["grid"]["x_min"]), float(cfg["grid"]["x_max"])
        pad = 0.05 * (hi - lo)
        diag = hjb.gradient_diagnostics(
            source, problem,
            probe_points=None if solved else np.linspace(lo + pad, hi - pad, 40)[:, None],
        )
        out["weighted_gradient_sup"] = float(diag.weighted_gradient_sup)
        out["blowup_exponents"] = {
            repr(float(k)): (float(v) if v is not None else None)
            for k, v in diag.blowup_exponents.items()
        }
    return out


def cmd_verify(cfg: dict, out_dir: str) -> list[dict]:
    problem, params = _build_problem(cfg)
    policy = _build_policy(cfg, problem, params)
    sim = _build_sim_config(cfg)
    v = cfg["verify"]
    t0, until = _run_window(cfg, problem)
    x0 = float(v["x0"])
    tolerance = float(v["tolerance"]) if "tolerance" in v else None
    c1, c2 = float(v["c1"]), float(v["c2"])

    source, residual_report = _closed_form_source(cfg, params), None
    if source is None:
        source, residual_report = _solve_field(cfg, problem, params)

    certificate = verify.certify(problem, source, policy, t0, x0, sim, until=until,
                                 c1=c1, c2=c2, tolerance=tolerance, necessity_scan=True)
    report = certificate.evidence
    if isinstance(problem.horizon, DiscountedInfinite):
        certificate = None  # discounted reports carry the identity only

    hypotheses = _hypotheses_dict(problem, cfg)
    diagnostics = _diagnostics_dict(problem, source, residual_report, cfg)

    payload = {
        "identity": dataclasses.asdict(report),
        "certificate": None if certificate is None else {
            key: value for key, value in dataclasses.asdict(certificate).items()
            if key != "evidence"
        },
        "hypotheses": hypotheses,
        "diagnostics": diagnostics,
        "config": cfg,
        "version": __version__,
    }
    _write_json(os.path.join(out_dir, "report.json"), payload)
    _write_markdown(os.path.join(out_dir, "report.md"), cfg, report, certificate,
                    hypotheses, diagnostics)

    if report.passed:  # a verdict is inconclusive exactly when its report failed
        return []
    tol = report.tolerance_used
    causes = []
    if not report.identity_defect <= tol:
        causes.append("identity defect exceeds tolerance")
    if report.tail_bound is not None and report.tail_bound > tol:
        causes.append("truncation tail bound exceeds tolerance")
    return [{"check": "verification", "message": "; ".join(causes)}]


def _md_num(x: float | None) -> str:
    return "-" if x is None else f"{x:.6g}"


def _write_markdown(path, cfg, report, certificate, hypotheses, diagnostics) -> None:
    ts = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    lines = [
        "# Verification report",
        "",
        f"Generated: {ts}",
        "",
        f"Toolkit version {__version__}; problem kind `{cfg['problem']['kind']}`, "
        f"policy `{cfg['verify']['policy']}`, t0 = {cfg['verify']['t0']}, "
        f"x0 = {cfg['verify']['x0']}, paths = {cfg['mc']['paths']}, "
        f"dt = {cfg['mc']['dt']}, seed = {cfg['mc']['seed']}.",
        "",
        "## Hypotheses",
        "",
        "| quantity | sampled estimate |",
        "| --- | --- |",
    ]
    for key in ("lipschitz_f0_estimate", "lipschitz_f1_estimate",
                "ellipticity_lambda0_estimate", "girsanov_sup_estimate"):
        lines.append(f"| {key} | {_md_num(hypotheses[key])} |")
    lines += [
        f"| sample region | [{hypotheses['sample_region'][0]}, "
        f"{hypotheses['sample_region'][1]}] x {hypotheses['n_samples']} samples |",
        "",
        "## Field diagnostics",
        "",
        f"- candidate source: {diagnostics['candidate_source']}",
    ]
    if "sup_interior_residual" in diagnostics:
        g = diagnostics["grid"]
        lines.append(f"- solved on [{g['x_min']}, {g['x_max']}], nx = {g['nx']}, "
                     f"nt = {g['nt']}; sup interior residual "
                     f"{_md_num(diagnostics['sup_interior_residual'])}")
    if "weighted_gradient_sup" in diagnostics:
        lines.append(f"- weighted gradient sup (T-t)^(1/2) |v_x|: "
                     f"{_md_num(diagnostics['weighted_gradient_sup'])}")
        if diagnostics["blowup_exponents"]:
            pairs = ", ".join(f"x = {k}: {_md_num(v)}"
                              for k, v in diagnostics["blowup_exponents"].items())
            lines.append(f"- second-difference blow-up exponents at kinks: {pairs}")
    lines += [
        "",
        "## Identity table",
        "",
        "| v(t0, x0) | J_hat +- SE | gap +- SE | defect | tolerance | passed |",
        "| --- | --- | --- | --- | --- | --- |",
        f"| {_md_num(report.v_at_start)} "
        f"| {_md_num(report.cost.mean)} +- {_md_num(report.cost.std_error)} "
        f"| {_md_num(report.gap_integral.mean)} +- {_md_num(report.gap_integral.std_error)} "
        f"| {_md_num(report.identity_defect)} | {_md_num(report.tolerance_used)} "
        f"| {'yes' if report.passed else 'no'} |",
    ]
    if report.tail_magnitude is not None:
        lines.append("")
        lines.append(f"Truncation tail {_md_num(report.tail_magnitude)} "
                     f"(a-priori bound {_md_num(report.tail_bound)}).")
    lines += ["", "## Certificate", ""]
    if certificate is None:
        lines.append(f"- identity check {'passed' if report.passed else 'FAILED'} "
                     f"(discounted problems report the identity only)")
    else:
        lines.append(f"- verdict: **{certificate.verdict}**")
        lines.append(f"- optimality margin (gap integral): "
                     f"{_md_num(certificate.optimality_margin)}")
        if certificate.necessity_fraction is not None:
            lines.append(f"- necessity scan (conditional on v = V): fraction of "
                         f"(path, step) points with gap above allowance = "
                         f"{_md_num(certificate.necessity_fraction)}")
        lines.append(f"- {certificate.lower_bound_note}")
    for note in report.notes:
        lines.append(f"- note: {note}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


def cmd_benchmark(cfg: dict, out_dir: str) -> list[dict]:
    _, params = _build_problem(cfg)
    b = cfg["benchmark"]
    times = [float(s) for s in b["times"].split(",")]
    xs = np.linspace(float(b["x_min"]), float(b["x_max"]), int(b["nx"]))

    ts = np.linspace(0.0, params.horizon, int(b["nt_coefficients"]))
    with open(os.path.join(out_dir, "coefficients.csv"), "w") as fh:
        fh.write("t,a,b\n")
        for t in ts:
            a, bb = bm.advertising_coefficients(params, float(t))
            fh.write(f"{float(t)!r},{a!r},{bb!r}\n")

    with open(os.path.join(out_dir, "values.csv"), "w") as fh:
        fh.write("t,x,v,dvdx,feedback\n")
        for t in times:
            vs = bm.advertising_value(params, t, xs)
            gs = bm.advertising_gradient(params, t, xs)
            fs = bm.advertising_feedback(params, t, xs)
            for j in range(xs.size):
                fh.write(f"{float(t)!r},{float(xs[j])!r},{float(vs[j])!r},"
                         f"{float(gs[j])!r},{float(fs[j])!r}\n")

    checks = _benchmark_checks(params)
    _write_json(os.path.join(out_dir, "benchmark.json"),
                {**checks, "config": cfg, "version": __version__})

    failures = []
    if checks["terminal_defect"] > 1e-12:
        failures.append({"check": "terminal_conditions",
                         "message": f"|a(T)-1| or |b(T)+1| = {checks['terminal_defect']:.3e} > 1e-12"})
    if checks["ode_residual_sup"] > 1e-9:
        failures.append({"check": "ode_residual",
                         "message": f"coefficient ODE residual {checks['ode_residual_sup']:.3e} > 1e-9"})
    if checks["pde_residual_sup"] > 1e-8:
        failures.append({"check": "pde_residual",
                         "message": f"HJB residual on the positive branch {checks['pde_residual_sup']:.3e} > 1e-8"})
    if checks["feedback_consistency_sup"] > 1e-10:
        failures.append({"check": "feedback_consistency",
                         "message": f"closed-form vs argmin feedback deviation {checks['feedback_consistency_sup']:.3e} > 1e-10"})
    return failures


def _benchmark_checks(params: bm.AdvertisingParams) -> dict:
    """Self-checks of the closed forms: terminal data, ODEs, HJB, feedback."""
    eta, alpha, beta, T = params.eta, params.alpha, params.beta, params.horizon
    gamma = params.gamma
    a_T, b_T = bm.advertising_coefficients(params, T)
    terminal_defect = max(abs(a_T - 1.0), abs(b_T + 1.0))

    # ODE residuals via 5-point finite differences (independent of the algebra
    # that produced the closed forms).  The closed forms broadcast over t and x.
    h = 1e-3 * T
    tt = np.linspace(2 * h, T - 2 * h, 1000)

    def coeffs(t):
        return np.column_stack(bm.advertising_coefficients(params, t))

    d = (-coeffs(tt + 2 * h) + 8 * coeffs(tt + h) - 8 * coeffs(tt - h)
         + coeffs(tt - 2 * h)) / (12 * h)
    ab = coeffs(tt)
    res_a = d[:, 0] + gamma * ab[:, 0] + eta * ab[:, 0] ** (1.0 + 1.0 / eta)
    res_b = d[:, 1] - gamma * ab[:, 1]
    ode_residual_sup = float(max(np.max(np.abs(res_a)), np.max(np.abs(res_b))))

    # HJB residual on the positive branch: analytic space derivatives, a
    # finite-difference time derivative, and the supremum term obtained by
    # negating the canonical minimized Hamiltonian at p = -v_x, one sample
    # (and so one scalar t) per minimization.  (The x < 0 branch of this
    # closed form is a strong, not pointwise, solution and is deliberately
    # excluded.)
    rng = np.random.default_rng(0)
    n = 10_000
    t_s = rng.uniform(2 * h, T - 2 * h, n)
    x_s = rng.uniform(0.05, 5.0, n)
    prob = bm.make_advertising_problem(params)
    prob_min = canonicalize(prob)
    v_t = (-bm.advertising_value(params, t_s + 2 * h, x_s)
           + 8 * bm.advertising_value(params, t_s + h, x_s)
           - 8 * bm.advertising_value(params, t_s - h, x_s)
           + bm.advertising_value(params, t_s - 2 * h, x_s)) / (12 * h)
    a, _ = bm.advertising_coefficients(params, t_s)
    v_x = bm.advertising_gradient(params, t_s, x_s)
    v_xx = eta * (1.0 + eta) * a * x_s ** (eta - 1.0)
    h0 = np.array([hamiltonian._minimize_batch(prob_min, float(t_s[i]), x_s[i:i + 1, None],
                                               -v_x[i:i + 1, None])[0][0] for i in range(n)])
    res = v_t + 0.5 * beta ** 2 * x_s ** 2 * v_xx - alpha * x_s * v_x - h0
    pde_residual_sup = float(np.max(np.abs(res)))

    # Feedback consistency: closed-form feedback vs the generic argmin
    # machinery applied to the closed-form gradient.
    sol = bm.advertising_solution(params)
    fb = hamiltonian.feedback_map(prob, sol)
    xs_f = np.linspace(-3.0, 3.0, 101).reshape(-1, 1)
    dev = 0.0
    for t in np.linspace(0.0, T, 11):
        got = np.asarray(fb(float(t), xs_f)).reshape(-1)
        want = bm.advertising_feedback(params, float(t), xs_f[:, 0])
        dev = max(dev, float(np.max(np.abs(got - want))))
    feedback_consistency_sup = dev

    return {
        "a_at_0": float(bm.advertising_coefficients(params, 0.0)[0]),
        "b_at_0": float(bm.advertising_coefficients(params, 0.0)[1]),
        "terminal_defect": float(terminal_defect),
        "ode_residual_sup": ode_residual_sup,
        "pde_residual_sup": pde_residual_sup,
        "feedback_consistency_sup": feedback_consistency_sup,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="configuration file (INI)")
    common.add_argument("--out", metavar="DIR", required=True, help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override [mc] seed from the config")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted but has no effect yet (runs use one "
                             "thread); results will not depend on it")
    parser = argparse.ArgumentParser(
        prog="hjbverify",
        description="Solve HJB equations, simulate controlled diffusions, and "
                    "certify policy (sub)optimality via the fundamental identity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common],
                   help="solve the HJB equation; writes field.csv + residual.json")
    sub.add_parser("simulate", parents=[common],
                   help="simulate controlled paths; writes paths.csv + estimate.json")
    sub.add_parser("verify", parents=[common],
                   help="check the fundamental identity and certify the policy; "
                        "writes report.md + report.json")
    bench = sub.add_parser("benchmark", parents=[common],
                           help="emit closed-form benchmark tables + self-checks")
    bench.add_argument("name", help="benchmark name (advertising)")
    bench.add_argument("--eta", type=float, default=None)
    bench.add_argument("--alpha", type=float, default=None)
    bench.add_argument("--beta", type=float, default=None)
    bench.add_argument("--horizon", type=float, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _make_parser().parse_args(argv)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    try:
        overrides = {}
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        if args.command == "benchmark":
            if args.name != "advertising":
                raise ConfigError(f"unknown benchmark {args.name!r}; available: advertising")
            if args.seed is not None:
                raise ConfigError("--seed has no effect on the benchmark subcommand "
                                  "(it has no [mc] section and draws no random numbers)")
            overrides["problem"] = {flag: str(getattr(args, flag))
                                    for flag in ("eta", "alpha", "beta", "horizon")
                                    if getattr(args, flag) is not None}
        elif not args.config:
            raise ConfigError(f"the {args.command} subcommand requires --config")
        elif args.seed is not None:
            overrides["mc"] = {"seed": str(args.seed)}
        cfg = _resolve(_load_config(args.config) if args.config else {}, args.command, overrides)
        _echo_config(cfg, out_dir)
        failures = {"solve": cmd_solve, "simulate": cmd_simulate, "verify": cmd_verify,
                    "benchmark": cmd_benchmark}[args.command](cfg, out_dir)
    except (ValueError, RuntimeError, OSError) as exc:  # ConfigError, CoefficientError: ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        _write_json(os.path.join(out_dir, "failures.json"),
                    [{"check": "run", "message": str(exc)}])
        return 2
    if failures:
        _write_json(os.path.join(out_dir, "failures.json"), failures)
        for f in failures:
            print(f"FAILED {f['check']}: {f['message']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
