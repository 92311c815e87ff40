"""Tests of the benchmark itself: names, checks and the tracer.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import copy
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import hjb_workloads as wl
import layer_trace
from hjbverify import benchmarks as bm
from hjbverify import hjb, sde, verify

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Metric names
# ---------------------------------------------------------------------------


def test_per_layer_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert declared == {name: unit for name, (unit, _) in layer_trace.METRICS.items()}


def test_workload_names_match_benchmark_json():
    import run
    declared = [w["name"] for w in _benchmark_json()["workloads"]]
    assert declared == list(run.WORKLOADS) == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "box_scan_solve",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "worker.py", "hjb_workloads.py", "layer_trace.py"):
        (bench / name).write_text(open(os.path.join(BENCH, name)).read())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "box_scan_solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# certify_advertising checks
# ---------------------------------------------------------------------------

V_REF = wl.rk4_a0(wl.ETA, wl.ALPHA, wl.BETA, wl.HORIZON) * 2.0 ** 1.5


def test_rk4_oracle_matches_the_closed_form_coefficient():
    a0, _ = bm.advertising_coefficients(wl._advertising_params(), 0.0)
    assert wl.rk4_a0(wl.ETA, wl.ALPHA, wl.BETA, wl.HORIZON) == pytest.approx(a0, rel=1e-11)


def _good_certificates():
    feedback = {"verdict": verify.VERDICT_OPTIMAL, "margin": 0.0, "necessity_fraction": 0.0,
                "passed": True, "v_at_start": V_REF, "cost_mean": V_REF + 0.01,
                "cost_se": 0.018, "gap_mean": 0.0, "gap_se": 0.0, "defect": 0.01,
                "tolerance": 0.09, "n_paths": 2048}
    zero = dict(feedback, verdict=verify.VERDICT_SUBOPTIMAL, margin=0.155,
                necessity_fraction=0.9, cost_mean=V_REF - 0.155, gap_mean=0.155, gap_se=0.002)
    return feedback, zero


def test_certify_checks_pass_on_a_correct_result():
    assert wl.check_certify(*_good_certificates(), V_REF, wl.CERTIFY_DT) == []


@pytest.mark.parametrize("which,key,value", [
    ("feedback", "v_at_start", V_REF * 1.01),
    ("zero", "v_at_start", V_REF * 0.99),
    ("feedback", "margin", 1e-12),
    ("feedback", "necessity_fraction", 1e-4),
    ("feedback", "verdict", verify.VERDICT_INCONCLUSIVE),
    ("feedback", "passed", False),
    ("feedback", "cost_mean", V_REF + 0.1),
    ("zero", "verdict", verify.VERDICT_OPTIMAL),
    ("zero", "passed", False),
    ("zero", "margin", 0.019),
])
def test_certify_checks_catch_a_wrong_result(which, key, value):
    feedback, zero = _good_certificates()
    {"feedback": feedback, "zero": zero}[which][key] = value
    assert wl.check_certify(feedback, zero, V_REF, wl.CERTIFY_DT)


def test_repetitions_must_be_bit_identical():
    first = _good_certificates()
    again = copy.deepcopy(first)
    assert wl.check_identical(again, first) == []
    again[0]["cost_mean"] = np.nextafter(again[0]["cost_mean"], np.inf)
    assert wl.check_identical(again, first)


# ---------------------------------------------------------------------------
# exit_verify_cli checks
# ---------------------------------------------------------------------------


def _good_files(**identity):
    report = {
        "identity": {"v_at_start": 0.2499999, "passed": True,
                     "cost": {"mean": 0.2568, "std_error": 0.0064}, **identity},
        "certificate": {"verdict": verify.VERDICT_OPTIMAL, "optimality_margin": 0.0},
    }
    return {"config.ini": b"[mc]\nseed = 1\n",
            "report.json": json.dumps(report).encode(),
            "report.md": b"# Verification report\n\nGenerated: 2026-01-01T00:00:00Z\n\nrest\n"}


def test_exit_checks_pass_on_a_correct_result():
    files = _good_files()
    later = dict(files, **{"report.md": files["report.md"].replace(b"2026-01-01", b"2027-02-02")})
    assert wl.check_exit(0, files, None) == []
    assert wl.check_exit(0, later, files) == []


@pytest.mark.parametrize("rc,files", [
    (1, _good_files()),
    (0, dict(_good_files(), **{"failures.json": b"[]"})),
    (0, _good_files(v_at_start=0.25 * 1.03)),
    (0, _good_files(cost={"mean": 0.32, "std_error": 0.0064})),
    (0, _good_files(passed=False)),
])
def test_exit_checks_catch_a_wrong_result(rc, files):
    assert wl.check_exit(rc, files, None)


def test_exit_checks_catch_a_wrong_certificate():
    for cert in ({"verdict": verify.VERDICT_SUBOPTIMAL, "optimality_margin": 0.0},
                 {"verdict": verify.VERDICT_OPTIMAL, "optimality_margin": 1e-3}):
        files = _good_files()
        report = json.loads(files["report.json"])
        report["certificate"] = cert
        files["report.json"] = json.dumps(report).encode()
        assert wl.check_exit(0, files, None)


def test_exit_checks_catch_a_nondeterministic_repetition():
    first = _good_files()
    for name, change in (("report.json", b"0.2568"), ("config.ini", b"seed"), ("report.md", b"rest")):
        files = dict(first)
        files[name] = files[name].replace(change, change.upper() + b"9")
        assert wl.check_exit(0, files, first), name


# ---------------------------------------------------------------------------
# box_scan_solve checks
# ---------------------------------------------------------------------------

SAMPLES = np.array([[0.1, 1.0, -3.0], [0.5, 2.0, -0.2], [0.9, 4.0, 0.7]])


def test_box_checks_pass_on_the_analytic_values():
    values, argmins = wl.analytic_h0(SAMPLES[:, 2])
    assert wl.check_h0(SAMPLES, values, argmins) == []
    field = np.linspace(-2.0, 5.0, 12).reshape(3, 4)
    assert wl.check_field(field, field, field.copy()) == []


def test_box_checks_catch_a_wrong_h0_or_field():
    values, argmins = wl.analytic_h0(SAMPLES[:, 2])
    assert wl.check_h0(SAMPLES, values * 1.01, argmins)
    assert wl.check_h0(SAMPLES, values, argmins + 1e-5)
    field = np.linspace(-2.0, 5.0, 12).reshape(3, 4)
    assert wl.check_field(field * (1.0 + 1e-8), field, None)
    changed = field.copy()
    changed[1, 1] = np.nextafter(changed[1, 1], np.inf)
    assert wl.check_field(changed, field, field)


def test_analytic_h0_matches_the_registered_closed_form():
    problem = bm.make_advertising_problem(wl._advertising_params())
    p = np.linspace(-6.0, 1.0, 15)
    want_v, want_z = problem.closed_form_hamiltonian(0.0, np.ones_like(p), p)
    got_v, got_z = wl.analytic_h0(p)
    np.testing.assert_allclose(got_v, want_v, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(got_z, want_z, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# The tracer
# ---------------------------------------------------------------------------


def _small_certify(problem):
    params = wl._advertising_params()
    policy = sde.FeedbackPolicy(lambda t, x: bm.advertising_feedback(params, t, x[:, 0]).reshape(-1, 1))
    return verify.certify(problem, bm.advertising_solution(params), policy, 0.0, 2.0,
                          sde.SimConfig(dt=0.1, n_paths=8, seed=1))


def _small_exit_solve():
    return hjb.solve_exit(bm.make_exit_demo("expected_exit_time"), hjb.Grid1D(0.0, 1.0, 11, 30))


def test_traced_run_restores_every_wrapped_name():
    before = [layer_trace._lookup(owner, attr) for owner, attr, _ in layer_trace.TARGETS]
    assert all(obj is not None for obj in before)
    tracer = layer_trace.Tracer()
    problem = bm.make_advertising_problem(wl._advertising_params())
    with tracer.recording():
        inside = [layer_trace._lookup(owner, attr) for owner, attr, _ in layer_trace.TARGETS]
        _small_certify(problem)
    assert all(a is not b for a, b in zip(inside, before))
    assert all(a is b for a, b in zip(
        [layer_trace._lookup(owner, attr) for owner, attr, _ in layer_trace.TARGETS], before))

    with pytest.raises(ZeroDivisionError):
        with tracer.recording():
            1 / 0
    assert all(a is b for a, b in zip(
        [layer_trace._lookup(owner, attr) for owner, attr, _ in layer_trace.TARGETS], before))


def test_tracer_counts_read_at_the_layer_boundary():
    tracer = layer_trace.Tracer()
    problem = bm.make_advertising_problem(wl._advertising_params())
    for _ in range(2):
        with tracer.recording():
            _small_certify(problem)
        tracer.finish_op(via_cli=False)
    first, second = tracer.per_op
    for name, (unit, _) in layer_trace.METRICS.items():
        if unit == "count":
            assert first[name] == second[name], name
    assert first["sde.path_steps"] == 8 * 10
    assert first["sde.noise_draws"] == 8 * 10
    assert first["sde.live_step_ratio"] == 1.0
    assert first["verify.gap_points"] == 8 * 10
    assert first["hamiltonian.h0_rows"] == 8 * 10
    assert first["problem.user_calls_per_coeff_call"] == 1.0
    assert first["hjb.march_ns_per_node_step"] == 0.0


def test_tracer_counts_exit_solve_node_steps():
    tracer = layer_trace.Tracer()
    with tracer.recording():
        _small_exit_solve()
    metrics = tracer.finish_op(via_cli=False)
    assert metrics["hjb.march_ns_per_node_step"] > 0.0
    assert metrics["hamiltonian.h0_rows"] == 11 * 30
    assert metrics["hamiltonian.hcv_points_per_row"] == 1.0   # one control point


def test_a_missing_name_is_reported_absent_and_the_rest_still_run():
    gone = types.SimpleNamespace(__name__="gone")
    targets = [(gone if attr == "_chunk_terms" else owner, attr, kind)
               for owner, attr, kind in layer_trace.TARGETS]
    tracer = layer_trace.Tracer(targets)
    assert tracer.missing == ["gone._chunk_terms"]
    with tracer.recording():
        _small_certify(bm.make_advertising_problem(wl._advertising_params()))
    tracer.finish_op(via_cli=False)
    metrics = tracer.metrics()
    assert metrics["verify.gap_points"]["value"] is None
    assert metrics["verify.quadrature_ns_per_point"]["value"] is None
    assert metrics["cli.other_s"]["value"] is None
    assert metrics["sde.path_steps"]["value"] == 80


def test_workloads_build_their_inputs_from_the_seed(tmp_path):
    a = wl.WORKLOADS["box_scan_solve"].setup(5, str(tmp_path))
    b = wl.WORKLOADS["box_scan_solve"].setup(5, str(tmp_path))
    c = wl.WORKLOADS["box_scan_solve"].setup(6, str(tmp_path))
    assert np.array_equal(a["samples"], b["samples"])
    assert not np.array_equal(a["samples"], c["samples"])
    cert = wl.WORKLOADS["certify_advertising"].setup(5, str(tmp_path))
    assert cert["sim"].seed == 5
