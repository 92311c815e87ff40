"""tools/byte_identity.py, the CLI output-identity gate: its pure helpers, and a
small slice of its config set run end to end."""

import hashlib
import importlib.util
import json
import os
import subprocess

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TOOL = os.path.join(_ROOT, "tools", "byte_identity.py")
_spec = importlib.util.spec_from_file_location("byte_identity", _TOOL)
byte_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_identity)


@pytest.mark.parametrize("name, command", [("sim_adv", "simulate"), ("ver_exit", "verify"),
                                           ("solve_box", "solve")])
def test_command_of_maps_each_prefix(name, command):
    assert byte_identity.command_of(name) == command


def test_command_of_rejects_an_unknown_prefix():
    with pytest.raises(ValueError, match="no known command prefix"):
        byte_identity.command_of("bench_adv")


def test_file_hash_drops_generated_lines_from_report_md_only(tmp_path):
    stamped = b"# Report\nGenerated: 2024-01-01T00:00:00\nverdict: ok\n"
    plain = b"# Report\nverdict: ok\n"
    for name, data in (("report.md", stamped), ("notes.md", stamped), ("plain.md", plain)):
        (tmp_path / name).write_bytes(data)
    want = hashlib.sha256(plain).hexdigest()
    assert byte_identity.file_hash(str(tmp_path / "report.md")) == want
    assert byte_identity.file_hash(str(tmp_path / "plain.md")) == want
    assert byte_identity.file_hash(str(tmp_path / "notes.md")) == hashlib.sha256(stamped).hexdigest()


def test_diff_reports_differs_missing_and_new():
    want = {"a/x.csv": "1", "a/y.json": "2", "b/z.csv": "3"}
    got = {"a/x.csv": "1", "a/y.json": "9", "c/w.csv": "4"}
    assert byte_identity.diff(got, want) == [
        "differs: a/y.json", "missing: b/z.csv", "new: c/w.csv"]
    assert byte_identity.diff(want, dict(want)) == []


def test_src_lines_counts_like_wc_l(tmp_path):
    pkg = tmp_path / "src" / "hjbverify"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\n\n# no final newline")
    (pkg / "notes.txt").write_text("not python\n")
    files = sorted(str(p) for p in pkg.glob("*.py"))
    wc = subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True)
    total = int(wc.stdout.split("\n")[-2].split()[0])
    assert byte_identity.src_lines(str(tmp_path)) == total == 4


# One verify config per candidate kind: an advertising closed form, a constant
# exit closed form, a solved exit field and a discounted closed form.
_PINNED = ("ver_adv_feedback", "ver_exit_constant", "ver_exit_expected_time",
           "ver_discounted_constant")


def test_one_verify_run_per_candidate_kind_is_byte_identical(tmp_path):
    with open(os.path.join(_ROOT, "BENCH_26.json")) as fh:
        ref = json.load(fh)["byte_identity"]
    got = byte_identity.run_configs({name: ref["configs"][name] for name in _PINNED},
                                    _ROOT, str(tmp_path))
    want = {k: v for k, v in ref["files"].items() if k.split("/")[0] in _PINNED}
    assert len(want) == 12
    assert byte_identity.diff(got, want) == []
