"""Spans around calls into the aoisched layers, recorded from outside the package.

``Tracer.install`` replaces module functions and class methods of
``aoisched`` with timing wrappers and ``uninstall`` restores them.  Each
call at a layer boundary becomes a span: name, start, end, parent span and
run id (the id of its root span).  Calls made every slot (the policy
methods and the per-UE metric hooks) would need millions of spans, so they
are aggregated per enclosing span as (calls, ns) instead.  Everything stays
in memory until :meth:`Tracer.write`.

Self time of a span is its duration minus the time of the calls made
inside it, both kept spans and aggregated calls.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

from aoisched import cli, metrics, policies, sim, solver

POLICIES = ("hier", "vw", "rd", "cmu")

# Span record fields.
NAME, START, END, PARENT, RUN, CHILD_NS, HOT, SIZE = range(8)


class _TimedGenerator:
    """A numpy Generator whose ``random`` draws are recorded as spans."""

    def __init__(self, gen, random):
        self._gen = gen
        self.random = random

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter_ns()
        self.spans: list[list] = []
        # Open spans, innermost last: [span id, child ns, {name: [calls, ns]}].
        self._stack: list[list] = [[-1, 0, {}]]
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, size=None, result=None):
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent = stack[-1]
                sid = len(spans)
                run = spans[parent[0]][RUN] if parent[0] >= 0 else sid
                rec = [name, 0, 0, parent[0], run, 0, None,
                       size(args) if size else 0]
                spans.append(rec)
                frame = [sid, 0, {}]
                stack.append(frame)
                rec[START] = t0 = now()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[END] = t1 = now()
                    stack.pop()
                    rec[CHILD_NS], rec[HOT] = frame[1], frame[2]
                    parent[1] += t1 - t0
                return result(out) if result else out
            return wrapper
        return make

    def _hot(self, name, per_policy=False):
        stack, now = self._stack, time.perf_counter_ns
        names = {p: f"{name}.{p}" for p in POLICIES}

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = now() - t0
                    frame = stack[-1]
                    frame[1] += d
                    key = names[args[0].name] if per_policy else name
                    agg = frame[2].get(key)
                    if agg is None:
                        frame[2][key] = [1, d]
                    else:
                        agg[0] += 1
                        agg[1] += d
            return wrapper
        return make

    def _timed_generators(self, streams):
        draw = self._span("rng.draw")
        arrival, policy, success = streams
        wrap = lambda g: _TimedGenerator(g, draw(g.random))  # noqa: E731
        return [wrap(g) for g in arrival], wrap(policy), wrap(success)

    def _targets(self):
        span, hot = self._span, self._hot
        targets = [
            (cli, "main", span("cli.main")),
            (cli, "sweep", span("sim.sweep")),
            (cli, "lower_bound", span("solver.lower_bound")),
            (sim, "run", span("sim.run", size=lambda a: a[0].horizon)),
            (sim, "build_policy", span("sim.build_policy")),
            (sim, "substreams", span("rng.substreams", result=self._timed_generators)),
            (sim, "validate", span("model.validate")),
            (solver, "validate", span("model.validate")),
            (policies, "compute_t_star", span("solver.compute_t_star")),
            (sim, "assemble_cost", span("metrics.assemble_cost")),
            (metrics, "report_rows", span("metrics.report_rows")),
            (metrics.UeMetrics, "finalize", span("metrics.finalize")),
            (metrics.UeMetrics, "on_arrival", hot("metrics.on_arrival")),
            (metrics.UeMetrics, "on_delivery", hot("metrics.on_delivery")),
            (metrics.UeMetrics, "latency_now", hot("metrics.latency_now")),
            (policies.HierarchicalPolicy, "update_virtual_weights",
             hot("policies.update_virtual_weights")),
        ]
        for cls in (policies.HierarchicalPolicy, policies.RandomizedPolicy,
                    policies.CmuPolicy):
            for method in ("update_index", "select", "on_outcome"):
                targets.append((cls, method, hot(f"policies.{method}", per_policy=True)))
        return targets

    def install(self) -> None:
        for owner, attr, make in self._targets():
            original = vars(owner)[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, s (total), self_s, size (sum of sizes)."""
        out: dict[str, dict[str, float]] = {}

        def add(name, calls, ns, self_ns, size=0):
            e = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0})
            e["calls"] += calls
            e["s"] += ns / 1e9
            e["self_s"] += self_ns / 1e9
            e["size"] += size

        hot_groups = [self._stack[0][2]]
        for rec in self.spans:
            dur = rec[END] - rec[START]
            add(rec[NAME], 1, dur, dur - rec[CHILD_NS], rec[SIZE])
            hot_groups.append(rec[HOT] or {})
        for group in hot_groups:
            for name, (calls, ns) in group.items():
                add(name, calls, ns, ns)
        return out

    def write(self, path: Path) -> None:
        """One JSON object per line per span; times in ns since the tracer began."""
        with open(path, "w") as fh:
            for sid, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": rec[NAME],
                    "start_ns": rec[START] - self.origin, "end_ns": rec[END] - self.origin,
                    "parent": rec[PARENT], "run": rec[RUN],
                    "self_ns": rec[END] - rec[START] - rec[CHILD_NS],
                    "calls_inside": rec[HOT] or {},
                }) + "\n")
