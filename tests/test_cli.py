"""Command line: config echo, file outputs, gates, and exit codes."""

from __future__ import annotations

import importlib.metadata
import json
import logging
import math
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli there
    import tomli as tomllib

import hjbverify
from hjbverify import (
    VERDICT_INCONCLUSIVE,
    VERDICT_OPTIMAL,
    AdvertisingParams,
    SpaceTimeField,
    advertising_coefficients,
    cli,
)

# Frozen closed-form anchors (same derivation as in test_benchmarks).
A0 = 0.3003325459344889
B0 = -4.080624335026461
V0_AT_2 = 0.8494687193651894


def _config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def _json_of(out_dir, name):
    with open(out_dir / name) as fh:
        return json.load(fh)


def _run_failure(tmp_path, text, argv_extra=()):
    """Run `solve` on a config expected to be rejected; return the failure record."""
    cfg = _config(tmp_path, text)
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", cfg, "--out", str(out), *argv_extra])
    assert rc == 2
    (record,) = _json_of(out, "failures.json")
    assert record["check"] == "run"
    return record["message"]


class TestConfigValidation:
    def test_unknown_section_is_rejected(self, tmp_path):
        message = _run_failure(
            tmp_path,
            """\
            [problem]
            kind = advertising

            [typo]
            foo = 1
            """,
        )
        assert "unknown config section" in message

    def test_unknown_key_is_rejected(self, tmp_path):
        message = _run_failure(
            tmp_path,
            """\
            [problem]
            kind = advertising

            [grid]
            sigma = 1.0
            """,
        )
        assert "'sigma'" in message and "not valid" in message

    def test_unknown_kind_is_rejected(self, tmp_path):
        message = _run_failure(
            tmp_path,
            """\
            [problem]
            kind = portfolio
            """,
        )
        assert "not one of" in message

    def test_kind_specific_key_is_rejected(self, tmp_path):
        # `constant` belongs to exit_constant, not to the advertising problem.
        message = _run_failure(
            tmp_path,
            """\
            [problem]
            kind = advertising
            constant = 1.0
            """,
        )
        assert "for problem kind 'advertising'" in message

    def test_non_numeric_value_is_rejected(self, tmp_path):
        message = _run_failure(
            tmp_path,
            """\
            [problem]
            kind = advertising

            [grid]
            nx = many
            """,
        )
        assert "not a valid int" in message

    def test_bad_exit_rule_is_rejected(self, tmp_path):
        message = _run_failure(
            tmp_path,
            """\
            [problem]
            kind = advertising

            [mc]
            exit_rule = midpoint
            """,
        )
        assert "grid_crossing or brownian_bridge" in message

    @pytest.mark.parametrize("section, key, text, type_name", [
        ("problem", "eta", "half", "float"),
        ("grid", "nx", "4.5", "int"),
        ("mc", "paths", "1e4", "int"),
        ("verify", "x0", "2,0", "float"),
    ])
    def test_malformed_number_names_key_and_type(self, tmp_path, section, key, text,
                                                 type_name):
        body = f"[{section}]\n{key} = {text}\n"
        if section != "problem":
            body = "[problem]\nkind = advertising\n\n" + body
        message = _run_failure(tmp_path, body)
        assert f"[{section}] {key} = {text!r} is not a valid {type_name}" in message

    def test_malformed_benchmark_value_names_key_and_type(self, tmp_path):
        out = tmp_path / "out"
        cfg = _config(tmp_path, "[benchmark]\nnx = 8l\n")
        assert cli.main(["benchmark", "advertising", "--config", cfg, "--out", str(out)]) == 2
        (record,) = _json_of(out, "failures.json")
        assert "[benchmark] nx = '8l' is not a valid int" in record["message"]

    @pytest.mark.parametrize("section, key, allowed", [
        ("mc", "exit_rule", ("grid_crossing", "brownian_bridge")),
        ("grid", "boundary", ("closed_form", "extrapolate")),
    ])
    def test_bad_enumerated_value_lists_the_allowed_values(self, tmp_path, section, key,
                                                           allowed):
        message = _run_failure(
            tmp_path, f"[problem]\nkind = advertising\n\n[{section}]\n{key} = other\n"
        )
        assert f"[{section}] {key} = 'other' is not one of" in message
        assert all(value in message for value in allowed)

    @pytest.mark.parametrize("command, kind", [
        ("solve", "exit_expected_time"),
        ("verify", "exit_constant"),
        ("verify", "discounted_constant"),
    ])
    def test_closed_form_edges_only_for_advertising(self, tmp_path, command, kind):
        # No other kind has closed-form edges: the setting was once ignored
        # there, with exit status 0 and the setting echoed.
        cfg = _config(tmp_path, f"[problem]\nkind = {kind}\n\n[grid]\nboundary = closed_form\n")
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        (record,) = _json_of(out, "failures.json")
        assert record["check"] == "run"
        assert record["message"].startswith("[grid] boundary = closed_form is only available "
                                             "for the advertising problem")
        assert not (out / "config.ini").exists()

    def test_bad_policy_spec_is_rejected(self, tmp_path):
        message = _run_failure(
            tmp_path,
            """\
            [problem]
            kind = advertising

            [verify]
            policy = bang_bang
            """,
        )
        assert "feedback, zero, or constant:<value>" in message

    def test_feedback_policy_requires_advertising(self, tmp_path):
        cfg = _config(
            tmp_path,
            """\
            [problem]
            kind = exit_constant

            [verify]
            policy = feedback
            """,
        )
        out = tmp_path / "out"
        rc = cli.main(["verify", "--config", cfg, "--out", str(out)])
        assert rc == 2
        (record,) = _json_of(out, "failures.json")
        assert "requires the advertising problem" in record["message"]

    def test_missing_config_flag_is_rejected(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["solve", "--out", str(out)]) == 2
        (record,) = _json_of(out, "failures.json")
        assert "requires --config" in record["message"]

    def test_missing_config_file_is_rejected(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["solve", "--config", str(tmp_path / "nope.ini"),
                       "--out", str(out)])
        assert rc == 2
        (record,) = _json_of(out, "failures.json")
        assert "cannot read config file" in record["message"]

    def test_solve_rejects_discounted_kind(self, tmp_path):
        message = _run_failure(
            tmp_path,
            """\
            [problem]
            kind = discounted_constant
            """,
        )
        assert "finite-horizon" in message

    def test_nonpositive_threads_is_rejected(self, tmp_path, capsys):
        cfg = _config(tmp_path, "[problem]\nkind = advertising\n")
        rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out"),
                       "--threads", "0"])
        assert rc == 2
        assert "--threads" in capsys.readouterr().err
        (record,) = _json_of(tmp_path / "out", "failures.json")
        assert record == {"check": "run", "message": "--threads must be >= 1"}


class TestConfigEcho:
    def test_echo_is_canonical_and_a_fixed_point(self, tmp_path):
        cfg = _config(
            tmp_path,
            """\
            [problem]
            kind = exit_constant
            constant = 2.50
            horizon = 1.

            [grid]
            nx = 51
            nt = 40

            [mc]
            paths = 16
            dt = 0.05
            seed = 7
            """,
        )
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli.main(["solve", "--config", cfg, "--out", str(out1)]) == 0

        # Values are parsed and re-formatted, defaults are filled in.
        echoed = (out1 / "config.ini").read_text()
        assert "kind = exit_constant" in echoed
        assert "constant = 2.5" in echoed
        assert "horizon = 1.0" in echoed
        assert "boundary = extrapolate" in echoed  # default filled
        assert "exit_rule = grid_crossing" in echoed  # default filled

        # Re-running on the echo reproduces the echo and all outputs exactly.
        assert cli.main(["solve", "--config", str(out1 / "config.ini"),
                         "--out", str(out2)]) == 0
        for name in ("config.ini", "field.csv", "residual.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("kind, extra", [
        ("advertising", "eta = .5\nhorizon = 1"),
        ("exit_constant", "constant = 2.50"),
        ("exit_expected_time", "horizon = 3"),
        ("discounted_constant", "rate = 2\ncost = 5e-1"),
    ])
    def test_echo_is_a_fixed_point_for_every_kind(self, tmp_path, kind, extra):
        cfg = _config(tmp_path, f"[problem]\nkind = {kind}\n{extra}\n\n"
                                "[mc]\npaths = 012\ndt = 5e-2\n")
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        echoed = (out1 / "config.ini").read_text().splitlines()
        assert [l for l in echoed if l.startswith("[")] == [
            "[problem]", "[grid]", "[mc]", "[verify]"]
        assert echoed[1] == f"kind = {kind}"
        assert "paths = 12" in echoed and "dt = 0.05" in echoed
        assert cli.main(["simulate", "--config", str(out1 / "config.ini"),
                         "--out", str(out2)]) == 0
        for name in ("config.ini", "estimate.json", "paths.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("config, flags", [
        (None, ()),
        ("[problem]\nhorizon = 2\n\n[benchmark]\ntimes = 0, .5,1\nnx = 11\n", ()),
        (None, ("--eta", "0.3", "--horizon", "0.7")),
    ], ids=["defaults", "config", "flags"])
    def test_benchmark_echo_is_a_fixed_point(self, tmp_path, monkeypatch, config, flags):
        # The closed-form self-checks take seconds and read only the
        # parameters; the echo and the tables are what is checked here.
        monkeypatch.setattr(cli, "_benchmark_checks", lambda *_: dict.fromkeys(
            ("terminal_defect", "ode_residual_sup", "pde_residual_sup",
             "feedback_consistency_sup"), 0.0))
        argv = ["benchmark", "advertising", *flags]
        if config is not None:
            argv += ["--config", _config(tmp_path, config)]
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli.main([*argv, "--out", str(out1)]) == 0
        echoed = (out1 / "config.ini").read_text().splitlines()
        assert [l for l in echoed if l.startswith("[")] == ["[problem]", "[benchmark]"]
        assert echoed[1] == "kind = advertising"
        assert cli.main(["benchmark", "advertising", "--config", str(out1 / "config.ini"),
                         "--out", str(out2)]) == 0
        for name in ("config.ini", "coefficients.csv", "values.csv", "benchmark.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_is_echoed(self, tmp_path):
        cfg = _config(tmp_path, "[problem]\nkind = exit_constant\n\n"
                                "[grid]\nnx = 11\nnt = 10\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg, "--out", str(out),
                         "--seed", "99"]) == 0
        assert "seed = 99" in (out / "config.ini").read_text()


class TestSolveCommand:
    def test_constant_demo_field_and_residual(self, tmp_path):
        cfg = _config(
            tmp_path,
            """\
            [problem]
            kind = exit_constant
            constant = 2.5

            [grid]
            nx = 51
            nt = 40
            """,
        )
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert not (out / "failures.json").exists()

        # The scheme reproduces a constant solution exactly, and the field
        # round-trips through its CSV form.
        field = SpaceTimeField.from_csv(str(out / "field.csv"))
        assert field.grid.nx == 51 and field.grid.nt == 40
        assert float(np.max(np.abs(field.values - 2.5))) <= 1e-12

        # Rounding noise in the finite differences is amplified by 1/dx^2,
        # so the residual of an exactly-constant field sits near 1e-12.
        report = _json_of(out, "residual.json")
        assert report["sup_interior_residual"] <= 1e-10
        assert 0 in report["excluded_nodes"] and 50 in report["excluded_nodes"]
        assert report["grid"]["nx"] == 51
        assert report["config"]["problem"]["kind"] == "exit_constant"
        assert report["version"]

    def test_advertising_solve_with_closed_form_boundary(self, tmp_path):
        cfg = _config(
            tmp_path,
            """\
            [problem]
            kind = advertising

            [grid]
            nx = 101
            nt = 200
            """,
        )
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        field = SpaceTimeField.from_csv(str(out / "field.csv"))
        assert abs(field.value_at(0.0, np.array([[2.0]]))[0] - V0_AT_2) < 0.05
        report = _json_of(out, "residual.json")
        assert 0.0 <= report["sup_interior_residual"] < 1.0

    def test_extrapolation_edges_on_three_nodes_exit_2(self, tmp_path):
        # One interior node cannot carry a zero second difference at both
        # edges: a run error with failures.json, not a traceback.
        message = _run_failure(
            tmp_path,
            """\
            [problem]
            kind = advertising

            [grid]
            nx = 3
            nt = 10
            boundary = extrapolate
            """,
        )
        assert "extrapolation edges need nx >= 4" in message
        assert not (tmp_path / "out" / "field.csv").exists()


class TestSimulateCommand:
    def test_discounted_estimate_matches_closed_form(self, tmp_path):
        cfg = _config(
            tmp_path,
            """\
            [problem]
            kind = discounted_constant

            [mc]
            paths = 64
            dt = 0.05
            seed = 2

            [verify]
            truncation_t1 = 10.0
            """,
        )
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0

        est = _json_of(out, "estimate.json")
        # Constant cost c discounted at rate r, truncated at T1: (c/r)(1-e^{-r T1}).
        assert est["mean"] == pytest.approx(1.0 - math.exp(-10.0), abs=1e-9)
        # Per-path costs are bitwise identical, but np.std sees ~1 ulp of
        # spread because summing n identical doubles is not exact.
        assert est["std_error"] <= 1e-15
        assert est["n_paths"] == 64
        assert est["discarded_diverged"] == 0
        assert est["paths_in_csv"] == 64
        assert est["config"]["verify"]["truncation_t1"] == "10.0"

        lines = (out / "paths.csv").read_text().splitlines()
        assert lines[0] == "path,step,t,x1,z1,exited"
        assert len(lines) == 1 + 64 * (200 + 1)

    def test_threads_flag_does_not_change_outputs(self, tmp_path):
        cfg = _config(
            tmp_path,
            """\
            [problem]
            kind = advertising

            [mc]
            paths = 40
            dt = 0.02
            seed = 5
            """,
        )
        out1, out4 = tmp_path / "t1", tmp_path / "t4"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1),
                         "--threads", "1"]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(out4),
                         "--threads", "4"]) == 0
        for name in ("config.ini", "estimate.json", "paths.csv"):
            assert (out1 / name).read_bytes() == (out4 / name).read_bytes()


_VERIFY_ADVERTISING = """\
[problem]
kind = advertising

[mc]
paths = 200
dt = 0.01
seed = 3

[verify]
policy = feedback
"""


class TestVerifyCommand:
    def test_feedback_policy_certified_optimal(self, tmp_path):
        cfg = _config(tmp_path, _VERIFY_ADVERTISING)
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert not (out / "failures.json").exists()

        report = _json_of(out, "report.json")
        identity = report["identity"]
        assert identity["passed"] is True
        assert identity["gap_integral"]["mean"] == 0.0
        assert identity["v_at_start"] == pytest.approx(V0_AT_2, rel=1e-12)
        assert identity["notes"] == []
        assert identity["tail_magnitude"] is None

        certificate = report["certificate"]
        assert certificate["verdict"] == VERDICT_OPTIMAL
        assert certificate["necessity_fraction"] == 0.0
        assert "closed-form" in certificate["lower_bound_note"]

        assert report["hypotheses"]["n_samples"] == 200
        assert report["diagnostics"]["candidate_source"] == "closed_form"
        assert report["config"]["verify"]["policy"] == "feedback"

        md = (out / "report.md").read_text()
        assert "## Identity table" in md
        assert f"verdict: **{VERDICT_OPTIMAL}**" in md

    def test_reports_deterministic_up_to_timestamp(self, tmp_path):
        cfg = _config(tmp_path, _VERIFY_ADVERTISING)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["verify", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["verify", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

        def split(path):
            lines = path.read_text().splitlines()
            stamped = [l for l in lines if l.startswith("Generated:")]
            rest = [l for l in lines if not l.startswith("Generated:")]
            return stamped, rest

        stamped1, rest1 = split(out1 / "report.md")
        stamped2, rest2 = split(out2 / "report.md")
        assert len(stamped1) == len(stamped2) == 1
        assert rest1 == rest2

    def test_tight_tolerance_gates_with_exit_1(self, tmp_path):
        cfg = _config(
            tmp_path,
            """\
            [problem]
            kind = advertising

            [mc]
            paths = 100
            dt = 0.01
            seed = 13

            [verify]
            policy = feedback
            tolerance = 1e-15
            """,
        )
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 1

        (record,) = _json_of(out, "failures.json")
        assert record["check"] == "verification"
        assert record["message"] == "identity defect exceeds tolerance"

        # The report is still written so the failure can be inspected.
        report = _json_of(out, "report.json")
        assert report["identity"]["passed"] is False
        assert report["identity"]["tolerance_used"] == 1e-15
        assert report["certificate"]["verdict"] == VERDICT_INCONCLUSIVE

    @pytest.mark.parametrize("key, value", [("c2", "inf"), ("c1", "nan"), ("tolerance", "-1")])
    def test_an_unusable_allowance_exits_2(self, tmp_path, key, value):
        # With c2 = inf the zero policy on advertising (suboptimal by default)
        # was certified optimal with exit 0 and "tolerance_used": Infinity.
        cfg = _config(tmp_path, f"[problem]\nkind = advertising\n\n"
                                f"[mc]\npaths = 50\ndt = 0.01\n\n[verify]\npolicy = zero\n{key} = {value}\n")
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
        (record,) = _json_of(out, "failures.json")
        assert record["check"] == "run"
        assert record["message"].startswith(f"{key} must be a finite number >= 0, got ")
        assert not (out / "report.json").exists()

    def test_solved_candidate_for_exit_problem(self, tmp_path):
        cfg = _config(
            tmp_path,
            """\
            [problem]
            kind = exit_expected_time

            [grid]
            nx = 101
            nt = 300

            [mc]
            paths = 300
            dt = 0.05
            seed = 4
            exit_rule = brownian_bridge
            """,
        )
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0

        report = _json_of(out, "report.json")
        assert report["diagnostics"]["candidate_source"] == "solved"
        assert report["diagnostics"]["sup_interior_residual"] >= 0.0
        assert report["identity"]["v_at_start"] == pytest.approx(0.25, abs=5e-3)
        assert report["certificate"]["verdict"] == VERDICT_OPTIMAL
        assert "not asserted" in report["certificate"]["lower_bound_note"]

    def test_discounted_identity_report(self, tmp_path):
        cfg = _config(
            tmp_path,
            """\
            [problem]
            kind = discounted_constant

            [mc]
            paths = 32
            dt = 0.05
            seed = 6
            """,
        )
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0

        report = _json_of(out, "report.json")
        assert report["certificate"] is None
        identity = report["identity"]
        assert identity["passed"] is True
        assert identity["v_at_start"] == 1.0
        assert identity["tail_bound"] == pytest.approx(math.exp(-20.0), rel=1e-12)

        md = (out / "report.md").read_text()
        assert "identity check passed" in md

    def test_short_truncation_names_the_tail_bound(self, tmp_path):
        # A constant cost is matched exactly by the candidate, so the defect
        # is round-off; only e^(-rate*T1)*sup|v| = e^-2 exceeds the tolerance.
        cfg = _config(
            tmp_path,
            """\
            [problem]
            kind = discounted_constant

            [mc]
            paths = 50
            dt = 0.01

            [verify]
            truncation_t1 = 2.0
            """,
        )
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 1

        identity = _json_of(out, "report.json")["identity"]
        assert identity["passed"] is False
        assert identity["identity_defect"] <= identity["tolerance_used"]
        assert identity["tail_bound"] > identity["tolerance_used"]
        (record,) = _json_of(out, "failures.json")
        assert record == {"check": "verification",
                          "message": "truncation tail bound exceeds tolerance"}

    def test_exit_constant_candidate_rejects_a_wider_batch(self, caplog):
        # The 1-d constant candidate once filled a value per row of any width.
        source = cli._closed_form_source({"problem": {"kind": "exit_constant", "constant": 2.5}}, None)
        assert source.value_at(0.0, np.array([[0.2], [0.7]])).tolist() == [2.5, 2.5]
        with caplog.at_level(logging.WARNING, logger="hjbverify"):
            for probe in (source.value_at, source.gradient_at):
                with pytest.raises(ValueError, match=r"\(P, 1\) batch of points, got shape \(2, 2\)"):
                    probe(0.0, np.array([[0.25, 0.75], [0.5, 0.9]]))
        assert not caplog.records


class TestBenchmarkCommand:
    def test_default_tables_and_self_checks(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["benchmark", "advertising", "--out", str(out)]) == 0
        assert not (out / "failures.json").exists()

        header, *rows = (out / "coefficients.csv").read_text().splitlines()
        assert header == "t,a,b"
        assert len(rows) == 201
        t0, a0, b0 = (float(s) for s in rows[0].split(","))
        tT, aT, bT = (float(s) for s in rows[-1].split(","))
        assert t0 == 0.0 and a0 == pytest.approx(A0, rel=1e-12)
        assert b0 == pytest.approx(B0, rel=1e-12)
        assert tT == 1.0 and aT == pytest.approx(1.0, rel=1e-12) and bT == -1.0

        header, *rows = (out / "values.csv").read_text().splitlines()
        assert header == "t,x,v,dvdx,feedback"
        assert len(rows) == 5 * 81  # five times on an 81-point x grid
        t, x, v, _, feedback = (float(s) for s in rows[80].split(","))
        assert (t, x) == (0.0, 2.0)
        assert v == pytest.approx(V0_AT_2, rel=1e-12)
        assert feedback == pytest.approx(A0 ** 2 * 2.0, rel=1e-12)

        checks = _json_of(out, "benchmark.json")
        assert checks["a_at_0"] == pytest.approx(A0, rel=1e-12)
        assert checks["b_at_0"] == pytest.approx(B0, rel=1e-12)
        assert checks["terminal_defect"] <= 1e-12
        assert checks["ode_residual_sup"] <= 1e-9
        assert checks["pde_residual_sup"] <= 1e-8
        assert checks["feedback_consistency_sup"] <= 1e-10

        echoed = (out / "config.ini").read_text()
        assert "kind = advertising" in echoed
        assert "times = 0.0,0.25,0.5,0.75,1.0" in echoed

    def test_flag_overrides_and_echo_round_trip(self, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli.main(["benchmark", "advertising", "--out", str(out1),
                         "--eta", "0.3", "--alpha", "2.0", "--beta", "1.0",
                         "--horizon", "0.7"]) == 0
        echoed = (out1 / "config.ini").read_text()
        assert "eta = 0.3" in echoed and "horizon = 0.7" in echoed

        first = (out1 / "coefficients.csv").read_text().splitlines()[1]
        a0_want, _ = advertising_coefficients(
            AdvertisingParams(eta=0.3, alpha=2.0, beta=1.0, horizon=0.7), 0.0
        )
        assert float(first.split(",")[1]) == pytest.approx(a0_want, rel=1e-12)

        assert cli.main(["benchmark", "advertising", "--out", str(out2),
                         "--config", str(out1 / "config.ini")]) == 0
        for name in ("config.ini", "coefficients.csv", "values.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_self_checks_match_the_scalar_loop(self):
        # The closed forms are evaluated on whole sample arrays; this is the
        # one-point-at-a-time loop they replaced.  Array and scalar NumPy
        # kernels may differ by an ulp; the finite-difference stencils
        # (coefficient sum 18, divided by 12h = 0.012) turn an ulp of
        # |v|, |a|, |b| <= 12 into about 3e-12, hence the 1e-10 bound.
        from hjbverify import benchmarks as bm
        from hjbverify.hamiltonian import _minimize_batch
        from hjbverify.problem import canonicalize

        params = AdvertisingParams()
        eta, alpha, beta, T = params.eta, params.alpha, params.beta, params.horizon
        got = cli._benchmark_checks(params)

        h = 1e-3 * T
        tt = np.linspace(2 * h, T - 2 * h, 1000)

        def coeffs(t):
            return np.array([bm.advertising_coefficients(params, float(u)) for u in t])

        d = (-coeffs(tt + 2 * h) + 8 * coeffs(tt + h) - 8 * coeffs(tt - h)
             + coeffs(tt - 2 * h)) / (12 * h)
        ab = coeffs(tt)
        res_a = d[:, 0] + params.gamma * ab[:, 0] + eta * ab[:, 0] ** (1.0 + 1.0 / eta)
        res_b = d[:, 1] - params.gamma * ab[:, 1]
        ode = max(np.max(np.abs(res_a)), np.max(np.abs(res_b)))

        rng = np.random.default_rng(0)
        t_s = rng.uniform(2 * h, T - 2 * h, 10_000)
        x_s = rng.uniform(0.05, 5.0, 10_000)
        prob_min = canonicalize(bm.make_advertising_problem(params))
        pde = 0.0
        for t, x in zip(t_s.tolist(), x_s.tolist()):
            v_t = (-bm.advertising_value(params, t + 2 * h, x)
                   + 8 * bm.advertising_value(params, t + h, x)
                   - 8 * bm.advertising_value(params, t - h, x)
                   + bm.advertising_value(params, t - 2 * h, x)) / (12 * h)
            a, _ = bm.advertising_coefficients(params, t)
            v_x = float(bm.advertising_gradient(params, t, x))
            v_xx = eta * (1.0 + eta) * a * x ** (eta - 1.0)
            h0, _ = _minimize_batch(prob_min, t, np.array([[x]]), np.array([[-v_x]]))
            pde = max(pde, abs(v_t + 0.5 * beta ** 2 * x ** 2 * v_xx - alpha * x * v_x
                               - float(h0[0])))

        assert got["ode_residual_sup"] == pytest.approx(ode, abs=1e-10)
        assert got["pde_residual_sup"] == pytest.approx(pde, abs=1e-10)
        assert (got["a_at_0"], got["b_at_0"]) == bm.advertising_coefficients(params, 0.0)

    def test_invalid_parameters_exit_2(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["benchmark", "advertising", "--out", str(out),
                       "--eta", "0.5", "--alpha", "0.9", "--beta", "2.0"])
        assert rc == 2
        (record,) = _json_of(out, "failures.json")
        assert "validity" in record["message"]

    def test_horizon_past_blowup_exit_2(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["benchmark", "advertising", "--out", str(out),
                       "--alpha", "0.30", "--horizon", "2.0"])
        assert rc == 2
        (record,) = _json_of(out, "failures.json")
        assert "shorten the horizon" in record["message"]

    def test_unknown_benchmark_exit_2(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["benchmark", "gbm", "--out", str(out)])
        assert rc == 2
        (record,) = _json_of(out, "failures.json")
        assert "unknown benchmark" in record["message"]

    def test_seed_flag_rejected_exit_2(self, tmp_path):
        # The benchmark draws no random numbers; a seed it would ignore is an error.
        out = tmp_path / "out"
        assert cli.main(["benchmark", "advertising", "--seed", "5", "--out", str(out)]) == 2
        (record,) = _json_of(out, "failures.json")
        assert "--seed has no effect on the benchmark" in record["message"]
        assert not (out / "benchmark.json").exists()


SUBCOMMANDS = ("solve", "simulate", "verify", "benchmark")


def _declared_console_script():
    """The `hjbverify` entry of `[project.scripts]` in pyproject.toml."""
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "hjbverify" in scripts, "pyproject.toml declares no `hjbverify` script"
    spec = scripts["hjbverify"]
    module, _, attr = spec.partition(":")
    assert module and attr, f"script entry {spec!r} is not of the form module:attr"
    return spec


def _is_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def _package_env():
    """The environment of a fresh interpreter that imports this hjbverify."""
    package_root = str(Path(hjbverify.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def _assert_help_output(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: hjbverify")
    assert "{" + ",".join(SUBCOMMANDS) + "}" in proc.stdout


class TestEntryPoint:
    def test_console_script_is_installed(self):
        # Runs the declared entry point the way the wrapper that pip generates
        # for `[project.scripts]` does, so the contract is checked from the
        # source tree whether or not the package is installed.
        module, _, attr = _declared_console_script().partition(":")
        code = (
            "import importlib, sys\n"
            "sys.argv[0] = 'hjbverify'\n"
            f"m = importlib.import_module({module!r})\n"
            f"sys.exit(getattr(m, {attr!r})())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "--help"],
            capture_output=True, text=True, env=_package_env(), timeout=120,
        )
        _assert_help_output(proc)

    @pytest.mark.skipif(not _is_installed("hjbverify"),
                        reason="hjbverify distribution is not installed")
    def test_installed_console_script_runs(self):
        dist = importlib.metadata.distribution("hjbverify")
        (entry,) = [ep for ep in dist.entry_points
                    if ep.group == "console_scripts" and ep.name == "hjbverify"]
        assert entry.value == _declared_console_script()
        script = shutil.which("hjbverify")
        assert script is not None
        proc = subprocess.run([script, "--help"], capture_output=True, text=True,
                              timeout=120)
        _assert_help_output(proc)

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "solve" in out and "benchmark" in out

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err


# Runs the CLI with argv in a fresh interpreter; prints its exit code and the
# SciPy modules the process loaded (none when argv is empty: the import alone).
_SCIPY_PROBE = """
import json, sys
from hjbverify import cli
rc = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""
_TINY_MC = "[mc]\npaths = 20\ndt = 0.05\n"
_TINY_GRID = "[grid]\nnx = 21\nnt = 40\n"


class TestScipyLoadsOnFirstUse:
    """``scipy.special`` loads with the first noise draw; nothing else imports
    SciPy.  A PDE solve calls the LAPACK that NumPy's wheel bundles."""

    @pytest.mark.parametrize("command, kind, sections, wanted", [
        (None, None, "", set()),
        ("benchmark", None, "", set()),
        ("solve", "advertising", _TINY_GRID, set()),
        ("simulate", "advertising", _TINY_MC, {"scipy.special"}),
        ("verify", "discounted_constant", _TINY_MC, {"scipy.special"}),
        ("verify", "exit_expected_time", _TINY_GRID + _TINY_MC, {"scipy.special"}),
    ], ids=["import", "benchmark", "solve", "simulate", "verify_closed_form",
            "verify_solved_field"])
    def test_each_entry_point_loads_only_what_it_calls(self, tmp_path, command, kind,
                                                       sections, wanted):
        argv = []
        if command == "benchmark":
            argv = ["benchmark", "advertising", "--out", str(tmp_path / "out")]
        elif command is not None:
            cfg = _config(tmp_path, f"[problem]\nkind = {kind}\n{sections}")
            argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
        proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv],
                              capture_output=True, text=True, env=_package_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        rc, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert rc == 0, proc.stderr
        if not wanted:
            assert loaded == []
        assert {"scipy.linalg", "scipy.special"} & set(loaded) == wanted
