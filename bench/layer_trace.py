"""Per-layer spans, recorded from outside the program.

While :meth:`Tracer.recording` is active, the tracer replaces names of
``hjbverify``'s modules — as the *calling* module looks them up — with
wrappers that time each call as a span and read counts from its arguments
and return value.  On exit every replaced name is restored to the original
object.  A span's self time is its duration minus the durations of its
direct child spans (calls are strictly nested on one thread).

The spans of one operation are kept in memory; :meth:`Tracer.finish_op`
folds them into per-operation metrics and keeps only the first operation's
spans for :meth:`Tracer.dump_spans`.

A name that no longer exists is reported as missing, and every metric that
depends on it is reported as ``None`` (absent); the rest still run.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import threading
import time
from contextlib import contextmanager

import numpy as np

from hjbverify import cli, hjb, problem, sde, verify

# (owner, attribute, span kind).  Owners are the modules that make the call,
# or the class whose method every caller reaches.
_COEFFICIENTS = ("f0", "f1", "diff", "cost_rate", "terminal", "boundary")
TARGETS = (
    [(verify, "simulate_chunks", "sde.simulate"),
     (sde, "gaussian_increments", "sde.noise"),
     (sde, "_bridge_uniforms", "sde.noise"),
     (sde.FeedbackPolicy, "controls_at", "sde.policy"),
     (sde.ConstantPolicy, "controls_at", "sde.policy")]
    + [(problem.ControlProblem, name, f"problem.{name}") for name in _COEFFICIENTS]
    + [(problem, "batch_call", "problem.user_call"),
       (hjb, "_minimize_batch", "hamiltonian.h0"),
       (verify, "_minimize_batch", "hamiltonian.h0"),
       (verify, "_chunk_terms", "verify.quadrature"),
       (hjb.SpaceTimeField, "value_at", "hjb.field_probe"),
       (hjb.SpaceTimeField, "gradient_at", "hjb.field_probe"),
       (hjb, "solve_exit", "hjb.solve"),
       (hjb, "solve_parabolic", "hjb.solve"),
       (hjb, "residual", "hjb.residual"),
       (hjb, "gradient_diagnostics", "hjb.diagnostics"),
       (cli, "probe_hypotheses", "cli.hypotheses"),
       (cli, "_write_json", "cli.report"),
       (cli, "_write_markdown", "cli.report")]
)


def target_label(owner, attr: str) -> str:
    return f"{getattr(owner, '__name__', owner)}.{attr}"


def _lookup(owner, attr: str):
    """The object behind a target name: a class's own attribute, a module's global."""
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


# Per-layer metrics: name -> (unit, span kinds it needs).
METRICS = {
    "sde.noise_ns_per_draw": ("ns", ("sde.noise",)),
    "sde.noise_draws": ("count", ("sde.noise",)),
    "sde.step_ns_per_path_step": ("ns", ("sde.simulate",)),
    "sde.path_steps": ("count", ("sde.simulate",)),
    "sde.live_step_ratio": ("ratio", ("sde.simulate",)),
    "sde.stored_mb_per_chunk": ("MB", ("sde.simulate",)),
    "sde.policy_ns_per_row": ("ns", ("sde.policy",)),
    "problem.coeff_calls": ("count", ("problem.coeff",)),
    "problem.coeff_rows": ("count", ("problem.coeff",)),
    "problem.coeff_ns_per_row": ("ns", ("problem.coeff",)),
    "problem.user_calls_per_coeff_call": ("ratio", ("problem.coeff", "problem.user_call")),
    "hamiltonian.h0_rows": ("count", ("hamiltonian.h0",)),
    "hamiltonian.h0_us_per_row": ("us", ("hamiltonian.h0",)),
    "hamiltonian.hcv_calls_per_row": ("count", ("hamiltonian.h0", "problem.coeff")),
    "hamiltonian.hcv_points_per_row": ("count", ("hamiltonian.h0", "problem.coeff")),
    "verify.gap_points": ("count", ("verify.quadrature",)),
    "verify.quadrature_ns_per_point": ("ns", ("verify.quadrature",)),
    "hjb.march_ns_per_node_step": ("ns", ("hjb.solve",)),
    "hjb.field_probe_ns_per_point": ("ns", ("hjb.field_probe",)),
    "hjb.residual_s": ("s", ("hjb.residual",)),
    "hjb.diagnostics_s": ("s", ("hjb.diagnostics",)),
    "cli.hypotheses_s": ("s", ("cli.hypotheses",)),
    "cli.report_s": ("s", ("cli.report",)),
    "cli.other_s": ("s", ("*",)),
}

_MB = float(1 << 20)


def _layer(kind: str) -> str:
    """Coefficient spans are named per method; metrics group them."""
    return "problem.coeff" if kind.startswith("problem.") and kind != "problem.user_call" else kind


class Tracer:
    """Records spans while :meth:`recording` is active; see the module docstring."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.kinds: list[str] = []
        self._kind_id: dict[str, int] = {}
        self.missing: list[str] = []
        self._local = threading.local()
        self.per_op: list[dict] = []
        self.first_spans: list | None = None
        for owner, attr, kind in targets:
            self._kind(kind)
            if _lookup(owner, attr) is None and target_label(owner, attr) not in self.missing:
                self.missing.append(target_label(owner, attr))
        self._root = self._kind("op")

    def _kind(self, kind: str) -> int:
        if kind not in self._kind_id:
            self._kind_id[kind] = len(self.kinds)
            self.kinds.append(kind)
        return self._kind_id[kind]

    # -- span bookkeeping ---------------------------------------------------

    @property
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, kind_id: int) -> list:
        stack = self._stack
        span = [kind_id, time.perf_counter_ns(), 0, stack[-1][4] if stack else -1,
                len(self._spans), None]
        self._spans.append(span)
        stack.append(span)
        return span

    def _end(self, span: list, counts: dict | None = None) -> None:
        span[2] = time.perf_counter_ns()
        if counts:
            span[5] = {**(span[5] or {}), **counts}
        self._stack.pop()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, original, kind: str):
        kid = self._kind(kind)
        if kind == "sde.simulate":
            return self._wrap_chunks(original, kid)
        if kind == "problem.user_call":
            return self._wrap_batch_call(original)
        counter = _COUNTERS.get(kind)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._begin(kid)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self._end(span, counter(args, kwargs, result) if counter and result is not None else None)
        return wrapper

    def _wrap_chunks(self, original, kid: int):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            chunks = original(*args, **kwargs)
            while True:
                span = self._begin(kid)
                batch = None
                try:
                    batch = next(chunks)
                except StopIteration:
                    return
                finally:
                    self._end(span, None if batch is None else _batch_counts(batch))
                yield batch
        return wrapper

    def _wrap_batch_call(self, original):
        @functools.wraps(original)
        def wrapper(fn, *args, **kwargs):
            stack = self._stack
            owner = stack[-1] if stack else None

            def counted(*a, **k):
                if owner is not None:
                    owner[5] = owner[5] or {}
                    owner[5]["user_calls"] = owner[5].get("user_calls", 0) + 1
                return fn(*a, **k)
            return original(counted, *args, **kwargs)
        return wrapper

    @contextmanager
    def recording(self):
        """Trace one operation: install the wrappers, restore them on exit."""
        self._spans: list = []
        installed = []
        try:
            for owner, attr, kind in self.targets:
                original = _lookup(owner, attr)
                if original is None:
                    continue
                setattr(owner, attr, self._wrap(original, kind))
                installed.append((owner, attr, original))
            root = self._begin(self._root)
            try:
                yield
            finally:
                self._end(root)
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)

    # -- metrics ----------------------------------------------------------------

    def finish_op(self, via_cli: bool) -> dict:
        """Fold the last operation's spans into its per-layer metrics."""
        spans = self._spans
        self._spans = []
        if self.first_spans is None:
            self.first_spans = spans
        metrics = _op_metrics(spans, self.kinds, via_cli)
        self.per_op.append(metrics)
        return metrics

    def metrics(self) -> dict:
        """Median over the traced operations; None for metrics with a missing name."""
        missing_layers = {_layer(kind) for owner, attr, kind in self.targets
                          if target_label(owner, attr) in self.missing}
        out = {}
        for name, (unit, needs) in METRICS.items():
            absent = bool(missing_layers) if needs == ("*",) else bool(missing_layers & set(needs))
            value = None
            if not absent and self.per_op:
                value = float(np.median([m[name] for m in self.per_op]))
                if unit == "count" and value == int(value):
                    value = int(value)
            out[name] = {"value": value, "unit": unit}
        return out

    def dump_spans(self, path: str) -> None:
        """Write the first traced operation's spans: [kind, start_ns, duration_ns, parent]."""
        spans = self.first_spans or []
        t0 = spans[0][1] if spans else 0
        with open(path, "w") as fh:
            json.dump({"kinds": self.kinds, "missing": self.missing,
                       "spans": [[s[0], s[1] - t0, s[2] - s[1], s[3]] for s in spans]}, fh)


# ---------------------------------------------------------------------------
# Counts read at the layer boundary
# ---------------------------------------------------------------------------


def _batch_counts(batch) -> dict:
    steps = int(batch.n_steps)
    stop = np.full(batch.n_paths, steps, dtype=np.int64)
    for name in ("exit_step", "diverged_step"):
        marks = getattr(batch, name, None)
        if marks is not None:
            stop = np.where(marks >= 0, np.minimum(stop, marks), stop)
    stored = sum(v.nbytes for f in dataclasses.fields(batch)
                 if isinstance(v := getattr(batch, f.name), np.ndarray))
    return {"path_steps": int(batch.n_paths) * steps,
            "live_steps": int(np.sum(np.minimum(stop, steps))),
            "stored_bytes": int(stored)}


def _rows_of_result(args, kwargs, result) -> dict:
    return {"rows": int(np.shape(result)[0])}


def _rows_of_arg2(args, kwargs, result) -> dict:
    """Rows of the state batch x in controls_at(self, t, x, k) and _minimize_batch(prob, t, x, p)."""
    return {"rows": int(np.shape(args[2])[0])}


def _probe_points(args, kwargs, result) -> dict:
    x = np.asarray(args[2])
    return {"points": int(x.shape[0]) if x.ndim else 1}


def _node_steps(args, kwargs, result) -> dict:
    return {"node_steps": int(result.grid.nx) * int(result.grid.nt)}


def _gap_points(args, kwargs, result) -> dict:
    return {"points": int(getattr(result, "n_points", 0))}


def _noise_draws(args, kwargs, result) -> dict:
    return {"draws": int(np.size(result))}


_COUNTERS = {
    "sde.noise": _noise_draws,
    "sde.policy": _rows_of_arg2,
    "hamiltonian.h0": _rows_of_arg2,
    "verify.quadrature": _gap_points,
    "hjb.field_probe": _probe_points,
    "hjb.solve": _node_steps,
    **{f"problem.{name}": _rows_of_result for name in _COEFFICIENTS},
}


def _op_metrics(spans: list, kinds: list[str], via_cli: bool) -> dict:
    n = len(spans)
    duration = np.array([s[2] - s[1] for s in spans], dtype=np.int64)
    child = np.zeros(n, dtype=np.int64)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_ns = duration - child

    time_ns: dict[str, int] = {}
    count: dict[str, float] = {}
    coeff_calls = stored_max = 0
    hcv_calls = hcv_points = 0
    h0 = kinds.index("hamiltonian.h0")
    for i, s in enumerate(spans):
        layer = _layer(kinds[s[0]])
        time_ns[layer] = time_ns.get(layer, 0) + int(self_ns[i])
        coeff_calls += layer == "problem.coeff"
        for key, value in (s[5] or {}).items():
            count[f"{layer}.{key}"] = count.get(f"{layer}.{key}", 0) + value
        if layer == "sde.simulate" and s[5]:
            stored_max = max(stored_max, s[5]["stored_bytes"])
        if kinds[s[0]] == "problem.cost_rate" and s[3] >= 0 and spans[s[3]][0] == h0:
            hcv_calls += 1
            hcv_points += (s[5] or {}).get("rows", 0)

    def per(layer: str, key: str, scale: float = 1.0) -> float:
        units = count.get(f"{layer}.{key}", 0)
        return time_ns.get(layer, 0) / units / scale if units else 0.0

    def secs(layer: str) -> float:
        return time_ns.get(layer, 0) / 1e9

    path_steps = count.get("sde.simulate.path_steps", 0)
    h0_rows = count.get("hamiltonian.h0.rows", 0)
    return {
        "sde.noise_ns_per_draw": per("sde.noise", "draws"),
        "sde.noise_draws": count.get("sde.noise.draws", 0),
        "sde.step_ns_per_path_step": per("sde.simulate", "path_steps"),
        "sde.path_steps": path_steps,
        "sde.live_step_ratio": count.get("sde.simulate.live_steps", 0) / path_steps if path_steps else 0.0,
        "sde.stored_mb_per_chunk": stored_max / _MB,
        "sde.policy_ns_per_row": per("sde.policy", "rows"),
        "problem.coeff_calls": coeff_calls,
        "problem.coeff_rows": count.get("problem.coeff.rows", 0),
        "problem.coeff_ns_per_row": per("problem.coeff", "rows"),
        "problem.user_calls_per_coeff_call":
            count.get("problem.coeff.user_calls", 0) / coeff_calls if coeff_calls else 0.0,
        "hamiltonian.h0_rows": h0_rows,
        "hamiltonian.h0_us_per_row": per("hamiltonian.h0", "rows", 1e3),
        "hamiltonian.hcv_calls_per_row": hcv_calls / h0_rows if h0_rows else 0.0,
        "hamiltonian.hcv_points_per_row": hcv_points / h0_rows if h0_rows else 0.0,
        "verify.gap_points": count.get("verify.quadrature.points", 0),
        "verify.quadrature_ns_per_point": per("verify.quadrature", "points"),
        "hjb.march_ns_per_node_step": per("hjb.solve", "node_steps"),
        "hjb.field_probe_ns_per_point": per("hjb.field_probe", "points"),
        "hjb.residual_s": secs("hjb.residual"),
        "hjb.diagnostics_s": secs("hjb.diagnostics"),
        "cli.hypotheses_s": secs("cli.hypotheses"),
        "cli.report_s": secs("cli.report"),
        "cli.other_s": secs("op") if via_cli else 0.0,
    }
