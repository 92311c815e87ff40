"""Hash the CLI outputs of a fixed config set and diff them against a BENCH file.

Usage, from anywhere::

    python tools/byte_identity.py --against BENCH_9.json [--root CHECKOUT] [--work DIR] [--json OUT]

The config set is the ``byte_identity.configs`` of the ``--against`` file
(name -> INI text).  Each config is written to ``<work>/<name>.ini`` and run
as ``python -m hjbverify.cli <command> --config <name>.ini --out <name>``
in ``<work>``, with ``<root>/src`` on ``PYTHONPATH``; the command is the
name's prefix (``sim_`` simulate, ``ver_`` verify, ``solve_`` solve).  Every
output file is hashed with sha256, ``report.md`` without its ``Generated:``
line (the wall-clock stamp).  The hashes are compared with the file's
``byte_identity.files``; the exit code is 1 when any file differs, is
missing or is new.  The summary line also gives the line count of
``<root>/src/hjbverify/*.py``.  ``--json`` writes ``{"configs", "files",
"differs_from_parent", "src_lines"}`` (the names whose hash differs from
``--against``) for a new BENCH file.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = {"sim_": "simulate", "ver_": "verify", "solve_": "solve"}


def command_of(name: str) -> str:
    for prefix, command in COMMANDS.items():
        if name.startswith(prefix):
            return command
    raise ValueError(f"config {name!r} has no known command prefix ({', '.join(COMMANDS)})")


def file_hash(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "report.md":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"Generated:"))
    return hashlib.sha256(data).hexdigest()


def run_configs(configs: dict, root: str, work: str) -> dict:
    """Run every config through the CLI of ``root``; returns {"name/file": sha256}."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    hashes = {}
    for name, text in sorted(configs.items()):
        with open(os.path.join(work, f"{name}.ini"), "w") as fh:
            fh.write(text)
        # A failing run (exit code 1 or 2) still writes failures.json, which is hashed.
        subprocess.run([sys.executable, "-m", "hjbverify.cli", command_of(name),
                        "--config", f"{name}.ini", "--out", name],
                       cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        out = os.path.join(work, name)
        for fname in sorted(os.listdir(out)):
            hashes[f"{name}/{fname}"] = file_hash(os.path.join(out, fname))
    return hashes


def src_lines(root: str) -> int:
    """Lines of ``<root>/src/hjbverify/*.py``, as ``wc -l`` counts them."""
    total = 0
    for name in glob.glob(os.path.join(root, "src", "hjbverify", "*.py")):
        with open(name, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def diff(got: dict, want: dict) -> list[str]:
    """One line per file that differs, is missing from ``got`` or is new in it."""
    lines = [f"differs: {k}" for k in sorted(got.keys() & want.keys()) if got[k] != want[k]]
    lines += [f"missing: {k}" for k in sorted(want.keys() - got.keys())]
    lines += [f"new: {k}" for k in sorted(got.keys() - want.keys())]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", required=True, help="BENCH_<n>.json with a byte_identity section")
    ap.add_argument("--root", default=ROOT, help="checkout whose src/ is run (default: this one)")
    ap.add_argument("--work", default=None, help="directory for configs and outputs (default: a temp dir)")
    ap.add_argument("--json", default=None, help="write configs, hashes and differences here")
    args = ap.parse_args(argv)
    with open(args.against) as fh:
        ref = json.load(fh)["byte_identity"]
    work = args.work or tempfile.mkdtemp(prefix="byte_identity_")
    os.makedirs(work, exist_ok=True)
    root = os.path.abspath(args.root)
    got = run_configs(ref["configs"], root, work)
    lines = diff(got, ref["files"])
    n_src = src_lines(root)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"configs": ref["configs"], "files": got,
                       "differs_from_parent": sorted(k for k in got.keys() & ref["files"].keys()
                                                     if got[k] != ref["files"][k]),
                       "src_lines": n_src},
                      fh, indent=1)
            fh.write("\n")
    for line in lines:
        print(line)
    print(f"{len(got)} files hashed, {len(lines)} differences against {args.against}; "
          f"src/hjbverify is {n_src} lines")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
