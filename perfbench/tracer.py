"""Layer tracing from outside the program: wrap public functions, time calls.

Calls coarser than one simulation step become spans (name, id, parent,
start, end, self time).  Per-step calls (``StepKernel.apply``, occupancy
rebuilds, policy ``greens``, ...) are only counted and timed, aggregated
under the nearest enclosing span, so memory stays small.  A call's self time
is its duration minus the time of the wrapped calls made inside it.

The wrappers only time and count; arguments and results pass through
unchanged, so traced outputs are byte-identical to untraced ones.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager

import numpy as np

from roadphases import cli, control, dynamics, metrics, topology

_MODULES = {m.__name__.rsplit(".", 1)[1]: m
            for m in (cli, control, dynamics, metrics, topology)}

SPAN, CALL = "span", "call"

# (module, attribute path, traced name, kind).  Targets are looked up when
# tracing starts; one the program no longer has is skipped, and its metrics
# read 0.
TARGETS = (
    ("topology", "parse_topology_text", "topology.build", SPAN),
    ("dynamics", "StepKernel.__init__", "dynamics.kernel_build", SPAN),
    ("dynamics", "StepKernel.apply", "dynamics.apply", CALL),
    ("dynamics", "StepKernel.occupancy", "dynamics.occupancy", CALL),
    ("dynamics", "init_occupancy", "dynamics.init_occupancy", SPAN),
    ("control", "OpenLoopPolicy.greens", "control.greens.open_loop", CALL),
    ("control", "LocalFeedbackPolicy.greens",
     "control.greens.local_feedback", CALL),
    ("control", "GlobalFeedbackPolicy.greens",
     "control.greens.global_feedback", CALL),
    ("control", "global_feedback_timing", "control.timing", CALL),
    ("control", "build_lq_model", "control.build_lq_model", SPAN),
    ("control", "solve_lqr", "control.solve_lqr", SPAN),
    ("cli", "make_policy", "cli.make_policy", SPAN),
    ("metrics", "sweep_diagram", "metrics.sweep", SPAN),
    ("metrics", "run_response_trace", "metrics.response", SPAN),
    ("metrics", "distance_to_uniform", "metrics.distance", CALL),
    ("metrics", "classify_phases_empirical", "metrics.classify", SPAN),
    ("cli", "main", "cli.main", SPAN),
)


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_s", "attrs",
                 "calls")

    def __init__(self, span_id: int, name: str, parent: int | None):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.attrs: dict = {}
        # name -> [count, total_s, self_s, lane-steps (apply only)]
        self.calls: dict[str, list] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "self_s": self.self_s,
                "attrs": self.attrs,
                "calls": {k: {"count": c, "total_s": t, "self_s": s}
                          for k, (c, t, s, _) in self.calls.items()}}


class Tracer:
    """Collects spans and per-step aggregates while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root = Span(0, "bench", None)
        self._last_id = 0
        self._open = [self.root]          # enclosing spans
        self._child = [[0.0]]             # child-time accumulator per frame
        self.apply_us = array("d")        # one sample per apply call
        self._kernels: dict = {}          # kernel -> [calls, state bytes]
        self.lqr_models: set[bytes] = set()
        self.riccati_iterations = 0

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, args, kwargs):
        self._last_id += 1
        s = Span(self._last_id, name, self._open[-1].id)
        frame = [0.0]
        self._open.append(s)
        self._child.append(frame)
        s.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            s.end = time.perf_counter()
            self._child.pop()
            self._child[-1][0] += s.end - s.start
            s.child_s = frame[0]
            self._open.pop()
            self.spans.append(s)
        self._annotate(s, args, result)
        return result

    def _call_wrapper(self, name: str, fn):
        """Per-step wrapper: count and time under the enclosing span.

        Kept flat (no helper calls) because it runs on every step.
        """
        child, open_spans, clock = self._child, self._open, time.perf_counter
        apply = name == "dynamics.apply"
        samples, kernels = self.apply_us, self._kernels

        def traced(*args, **kwargs):
            frame = [0.0]
            child.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child.pop()
                child[-1][0] += dt
                calls = open_spans[-1].calls
                rec = calls.get(name)
                if rec is None:
                    rec = calls[name] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if apply:
                    x = args[1]
                    lanes = x.shape[0] if x.ndim > 1 else 1
                    rec[3] += lanes
                    samples.append(dt * 1e6)
                    st = kernels.get(args[0])
                    if st is None:
                        st = kernels[args[0]] = [0, 0]
                    st[0] += 1
                    st[1] += args[2].nbytes + 2 * x.nbytes
        return traced

    def apply_lanes(self, span_name: str | None = None) -> int:
        """Lane-steps advanced by apply, optionally under one span name."""
        return sum(s.calls.get("dynamics.apply", (0, 0, 0, 0))[3]
                   for s in (self.root, *self.spans)
                   if span_name in (None, s.name))

    def apply_bytes(self) -> int:
        """Computed, not measured: each call reads the kernel's index arrays
        and the state once and writes the new state once; cache reuse and
        temporaries are ignored."""
        return sum(calls * sum(v.nbytes for v in vars(kernel).values()
                               if isinstance(v, np.ndarray)) + state
                   for kernel, (calls, state) in self._kernels.items())

    def _annotate(self, s: Span, args, result) -> None:
        if s.name == "cli.main":
            argv = list(args[0]) if args else []
            commands = [v for v in argv if v in ("simulate", "diagram",
                                                 "eigen", "phases",
                                                 "response")]
            s.attrs["command"] = commands[0] if commands else "?"
        elif s.name == "metrics.sweep":
            s.attrs["runs"] = sum(p.seed_count for p in result.points)
        elif s.name == "control.solve_lqr":
            # the gain depends on B, Q and R only (not on xbar, ubar)
            model = args[0]
            self.lqr_models.add(b"".join(np.ascontiguousarray(m).tobytes()
                                         for m in (model.B, model.Q,
                                                   model.R)))
            s.attrs["iterations"] = getattr(result, "iterations", 0)
            self.riccati_iterations += s.attrs["iterations"]

    # -- installing --------------------------------------------------------

    def _wrapper(self, name: str, kind: str, fn):
        if kind == CALL:
            return self._call_wrapper(name, fn)

        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target: on its class, or in every module holding it."""
        undo = []
        try:
            for module, path, name, kind in TARGETS:
                *outer, attr = path.split(".")
                owner = _MODULES[module]
                for part in outer:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrapped = self._wrapper(name, kind, original)
                homes = [owner] if outer else [
                    m for m in _MODULES.values()
                    if getattr(m, attr, None) is original]
                for home in homes:
                    undo.append((home, attr, original))
                    setattr(home, attr, wrapped)
            yield self
        finally:
            for home, attr, original in reversed(undo):
                setattr(home, attr, original)

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [s.to_json() for s in
                                 [self.root, *self.spans]]}, fh)
