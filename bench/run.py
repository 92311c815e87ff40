"""hjbverify benchmark: one command, three workloads, end-to-end or traced.

Usage, from the root of a checkout (``src/hjbverify`` must be there)::

    python3 bench/run.py --workload certify_advertising --seed 1 --seconds 30 --trace 0

Each run starts the workload in a fresh worker process (``bench/worker.py``)
and, for ``--trace 0``, first starts ``SETUP_PROBES`` set-up-only processes
one after the other, so that ``setup_s`` is a median over several cold
starts.  Nothing runs in parallel.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics for ``--trace 0``, the per-layer metrics for
``--trace 1``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("certify_advertising", "exit_verify_cli", "box_scan_solve")
SETUP_PROBES = 3
TIMEOUT_S = 170.0
# Pin BLAS/OpenMP pools to one thread: the workloads are elementwise NumPy and
# tiny banded solves, and idle pool threads only add noise on a small machine.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _worker(args, out_dir: str, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t-spawn", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker for {args.workload} did not finish in time")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {args.workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run(args) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    out_dir = os.path.join(OUT_ROOT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    setups = []
    if not args.trace:
        setups = [_worker(args, out_dir, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    res = _worker(args, out_dir, deadline, setup_only=False)
    if not res["op_times"]:
        raise BenchError(f"no {args.workload} operation completed")
    if args.trace:
        metrics = res["per_layer"]
        print(f"traced op median {statistics.median(res['op_times']):.4f} s over "
              f"{len(res['op_times'])} operations", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [res["setup_s"]]), "unit": "s"},
            "op_s": {"value": statistics.median(res["op_times"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "hjbverify", "__init__.py")):
        print(f"error: no hjbverify source tree at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
