"""In-memory span tracing around calls into the ``repro`` layers.

The traced run wraps a fixed list of public functions and methods (the
layer boundaries, see ``LAYER_TARGETS``) and appends a phase middleware
to each engine's scheduler. Every call becomes one span: name, start,
end and the index of the enclosing span. Spans stay in memory until the
run ends; :meth:`Tracer.dump` writes them out.

A target that no longer exists (a later change moved or renamed it) is
reported as absent with a warning and left unwrapped, so the untraced
benchmark never depends on where a layer boundary sits.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import warnings
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (span name, "module:attr" or "module:Class.method").
LAYER_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("fields.sample_grid", "repro.fields.base:sample_grid"),
    ("sim.read_many", "repro.sim.sensing:DiskSensor.read_many"),
    ("sim.exchange", "repro.sim.radio:Radio.exchange"),
    ("sim.exchange", "repro.sim.netmodel.network:NetworkModel.exchange"),
    ("core.estimate_own_curvature", "repro.core.cma:estimate_own_curvature"),
    ("core.plan_move", "repro.core.cma:plan_move"),
    ("core.solve_osd", "repro.core.fra:solve_osd"),
    ("geometry.interp_build",
     "repro.geometry.interpolation:LinearSurfaceInterpolator.__init__"),
    ("geometry.evaluate_grid",
     "repro.geometry.interpolation:LinearSurfaceInterpolator.evaluate_grid"),
    ("geometry.delaunay_insert",
     "repro.geometry.delaunay:DelaunayTriangulation.insert"),
    ("surfaces.reconstruct", "repro.surfaces.reconstruction:reconstruct_surface"),
    ("surfaces.delta", "repro.surfaces.metrics:volume_difference"),
    ("graphs.unit_disk_graph", "repro.graphs.geometric:unit_disk_graph"),
    ("graphs.relay", "repro.graphs.relay:plan_relays"),
    ("graphs.relay", "repro.graphs.relay:count_required_relays"),
    ("obs.sink", "repro.obs.sinks:JsonlSink.write"),
    ("runtime.checkpoint", "repro.runtime.checkpoint:CheckpointManager.save"),
)

#: Phase names the middleware reports on their own; the rest of the round
#: (capture, trace sampling, failure injection, clock advance) is "other".
PHASES = ("sense", "exchange", "plan", "constrain_move", "lcm", "measure")


class Tracer:
    """Collect spans and per-span counts while installed."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _wrapped(self, fn: Callable, name: str,
                 on_result: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0,
                      stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self, targets=LAYER_TARGETS,
                on_result: Optional[Dict[str, Callable]] = None) -> None:
        """Wrap every resolvable target; record the others as absent."""
        on_result = on_result or {}
        for name, target in targets:
            try:
                owner, attr, original = _resolve(target)
            except (ImportError, AttributeError) as exc:
                self.absent.append(target)
                warnings.warn(
                    f"trace target {target} is absent ({exc}); "
                    f"{name} is not measured", RuntimeWarning, stacklevel=2,
                )
                continue
            wrapper = self._wrapped(original, name, on_result.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                # A module-level function is also bound, by name, in every
                # module that imported it: rebind each identical reference.
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", None)
                    if not namespace:
                        continue
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Dict[str, float] = {}
        for i, (name, start, end, _parent) in enumerate(spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for record in self.spans:
            out[record[0]] = out.get(record[0], 0) + 1
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON: one ``[name, start, end, parent]`` each."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "absent": self.absent,
                       "spans": self.spans}, fh, separators=(",", ":"))


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class PhaseSpans:
    """Scheduler middleware: one span per round and one per phase.

    Appended last to ``scheduler.middleware``, so its phase span is the
    innermost context around ``phase.run``.
    """

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def around_round(self, ctx):
        return self._tracer.span("runtime.step")

    def on_round_start(self, ctx) -> None:
        pass

    def around_phase(self, phase, ctx):
        name = getattr(phase, "name", "other")
        return self._tracer.span(
            f"runtime.{name}" if name in PHASES else "runtime.other"
        )

    def on_round_end(self, ctx, record) -> None:
        pass


def attach_phase_spans(engine, tracer: Tracer) -> None:
    """Append :class:`PhaseSpans` to the engine's scheduler, if it has one."""
    middleware = getattr(getattr(engine, "scheduler", None), "middleware", None)
    if not isinstance(middleware, list):
        target = "MobileSimulation.scheduler.middleware"
        if target not in tracer.absent:
            tracer.absent.append(target)
            warnings.warn(
                f"trace target {target} is absent; runtime.* phase times "
                "are not measured", RuntimeWarning, stacklevel=2,
            )
        return
    middleware.append(PhaseSpans(tracer))
