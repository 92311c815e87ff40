"""One benchmark process: set up one workload, run its operations, report.

Started by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``.
``--t-spawn`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, the imports of
hjbverify, NumPy and SciPy, and building the workload's inputs.

With ``--setup-only`` the process stops after set-up.  Otherwise it runs one
untimed warm-up operation, reads its peak RSS, then runs timed operations
until ``--seconds`` have passed (at least ``MIN_OPS``).  Every operation, the warm-up included, is
checked outside its timed region.  With ``--trace 1`` the timed operations
run under :class:`layer_trace.Tracer`.  The last line of standard output is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import sys
import time
import traceback

MIN_OPS = 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # The CLI's logging.basicConfig is a no-op once the root logger has a
    # handler: keep per-operation INFO lines off the terminal.
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    import hjb_workloads

    workload = hjb_workloads.WORKLOADS[args.workload]
    # NumPy seed sequences and the CLI's hypothesis probe reject negative seeds.
    state = workload.setup(args.seed & (2**63 - 1), args.out)
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import layer_trace
        tracer = layer_trace.Tracer()
        for name in tracer.missing:
            print(f"trace: {name} no longer exists; its metrics are reported as null",
                  file=sys.stderr)

    counts = {"attempted": 0, "failed": 0, "check_failures": 0}
    baseline = None

    def attempt(traced: bool) -> float | None:
        """One checked operation; its wall time, or None when it raised."""
        nonlocal baseline
        counts["attempted"] += 1
        workload.prepare(state)
        start = time.perf_counter()
        try:
            if traced:
                with tracer.recording():
                    result = workload.op(state)
            else:
                result = workload.op(state)
        except Exception:
            counts["failed"] += 1
            traceback.print_exc()
            return None
        elapsed = time.perf_counter() - start
        if traced:
            tracer.finish_op(workload.via_cli)
        bad = workload.check(state, result, baseline)
        if bad:
            counts["failed"] += 1
            counts["check_failures"] += 1
            for line in bad:
                print(f"check failed ({args.workload}): {line}", file=sys.stderr)
        elif baseline is None:
            baseline = result
        return elapsed

    attempt(traced=False)                        # warm-up: fills caches, finishes lazy imports
    # Peak memory of a process that ran one operation, as one CLI call does.
    # Later repetitions can raise ru_maxrss by ~8% or not, depending on how
    # the allocator reuses freed blocks (seed-dependent, same live arrays).
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_times = []
    deadline = time.perf_counter() + args.seconds
    while len(op_times) < MIN_OPS or time.perf_counter() < deadline:
        elapsed = attempt(traced=tracer is not None)
        if elapsed is None:
            if counts["attempted"] > 2 * MIN_OPS and not op_times:
                break                            # every operation raises
            continue
        op_times.append(elapsed)

    out = {
        "setup_s": setup_s,
        "op_times": op_times,
        "peak_rss_mb": peak_rss_mb,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "correct": counts["check_failures"] == 0,
    }
    if tracer is not None:
        out["per_layer"] = tracer.metrics()
        tracer.dump_spans(os.path.join(args.out, f"spans-seed{args.seed}.json"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
