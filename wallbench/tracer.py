"""Traced runs: wrap each layer's public functions from outside the program.

:class:`Tracer` replaces each target attribute with a timing wrapper on
entry and puts the original object back on exit, so untraced runs execute
the program exactly as shipped.  A target is wrapped at the name its caller
binds (``repro.optimization.hybrid.multistart_slsqp``, not the definition in
``constrained``), or as a class attribute for methods.

Three kinds of wrapper exist:

* span wrappers record name, start, end, parent span, thread and the
  current operation id (a game, campaign or request);
* protocol wrappers (the scalar model calls and their ``*_many`` twins)
  only count and time, charging the time to the enclosing span, because a
  solve makes about a hundred thousand scalar calls;
* the cache wrapper counts hits and misses.

Self time is a span's duration minus its child spans and the protocol time
charged to it.  Spans stay in memory and are written out at the end as
Chrome trace-event JSON (``chrome://tracing`` or Perfetto opens it).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers in report order.  ``cli`` has no spans: its cost is the
#: fresh-interpreter import, timed by the harness.  ``client`` is the
#: benchmark's own HTTP client, kept apart so ``service`` is server time.
LAYERS = (
    "cli",
    "api",
    "runtime",
    "core",
    "optimization",
    "protocols",
    "simulation",
    "validation",
    "store",
    "service",
    "client",
)

#: ``(layer, span name, owner, attribute)``.  ``owner`` is a module path,
#: or ``module:Class`` for a method.
SPAN_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("api", "api.run", "repro.api", "run"),
    ("api", "api.run", "repro.service.workers", "run_experiment"),
    ("api", "api.plan", "repro.api.engine", "expand_plan"),
    ("api", "api.serialize", "repro.api.results:ResultSet", "json_text"),
    ("runtime", "runtime.run", "repro.runtime.batch:BatchRunner", "run"),
    ("core", "core.game", "repro.core.bargaining:NashBargainingSolver", "solve"),
    ("core", "core.p1", "repro.core.bargaining:NashBargainingSolver", "solve_energy_problem"),
    ("core", "core.p2", "repro.core.bargaining:NashBargainingSolver", "solve_delay_problem"),
    ("core", "core.p4", "repro.core.bargaining:NashBargainingSolver", "solve_bargaining_problem"),
    ("optimization", "optimization.grid", "repro.optimization.hybrid", "grid_search"),
    ("optimization", "optimization.polish", "repro.optimization.hybrid", "slsqp_solve"),
    ("optimization", "optimization.multistart", "repro.optimization.hybrid", "multistart_slsqp"),
    ("validation", "validation.campaign", "repro.api.engine", "run_campaign"),
    ("simulation", "simulation.run", "repro.validation.campaign", "simulate_protocol"),
    ("store", "store.get", "repro.store.store:ResultStore", "get"),
    ("store", "store.put", "repro.store.store:ResultStore", "put"),
    ("service", "service.http", "repro.service.server:_Handler", "do_GET"),
    ("service", "service.http", "repro.service.server:_Handler", "do_POST"),
    ("service", "service.exec", "repro.service.workers:WorkerPool", "_execute"),
    ("client", "service.client", "repro.service.client:ServiceClient", "_request"),
)

#: Spans of the (P1), (P2) and (P4) solves.
_STAGES = ("core.p1", "core.p2", "core.p4")

#: Methods each concrete protocol class gets its own wrapper for.
SCALAR_METHODS = ("system_energy", "system_latency", "capacity_margin")
BATCHED_METHODS = ("energy_many", "latency_many", "capacity_margin_many")

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("api.plan_s", "s"),
    ("api.run_s", "s"),
    ("api.serialize_s", "s"),
    ("api.self_s", "s"),
    ("runtime.tasks", "count"),
    ("runtime.cache_hits", "count"),
    ("runtime.cache_misses", "count"),
    ("runtime.self_s", "s"),
    ("core.games", "count"),
    ("core.p1_s", "s"),
    ("core.p2_s", "s"),
    ("core.p4_s", "s"),
    ("core.self_s", "s"),
    ("optimization.grid_s", "s"),
    ("optimization.grid_calls", "count"),
    ("optimization.polish_s", "s"),
    ("optimization.polish_calls", "count"),
    ("optimization.multistart_s", "s"),
    ("optimization.multistart_calls", "count"),
    ("optimization.evaluations", "count"),
    ("optimization.multistart_win_ratio", "ratio"),
    ("optimization.infeasible", "count"),
    ("optimization.self_s", "s"),
    ("protocols.scalar_calls", "count"),
    ("protocols.scalar_s", "s"),
    ("protocols.batched_calls", "count"),
    ("protocols.batched_points", "count"),
    ("protocols.batched_s", "s"),
    ("simulation.runs", "count"),
    ("simulation.s", "s"),
    ("simulation.events", "count"),
    ("simulation.events_per_s", "1/s"),
    ("validation.self_s", "s"),
    ("store.get_calls", "count"),
    ("store.get_s", "s"),
    ("store.hit_ratio", "ratio"),
    ("store.put_calls", "count"),
    ("store.put_s", "s"),
    ("store.bytes_written", "bytes"),
    ("store.self_s", "s"),
    ("service.queue_wait_ms", "ms"),
    ("service.exec_ms", "ms"),
    ("service.http_ms", "ms"),
    ("service.executions", "count"),
    ("service.self_s", "s"),
    ("harness.untraced_s", "s"),
    ("harness.generator_late_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
)


def resolve_owner(owner: str) -> Any:
    """The module, or the class for ``module:Class``, that holds a target."""
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def protocol_classes() -> List[type]:
    """Every registered protocol model class."""
    from repro.protocols.registry import available_protocols, protocol_class

    return [protocol_class(name) for name in available_protocols()]


@dataclass
class Span:
    """One timed call at a layer boundary."""

    span_id: int
    name: str
    layer: str
    parent: Optional["Span"]
    thread: int
    op: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    protocol_s: float = 0.0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.protocol_s


class _ProtocolTally:
    """Protocol call counters of one thread (merged at the end)."""

    def __init__(self) -> None:
        self.scalar_calls = 0
        self.scalar_s = 0.0
        self.batched_calls = 0
        self.batched_points = 0
        self.batched_s = 0.0


class Tracer:
    """Install the wrappers on ``__enter__``, restore every original on exit."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: List[_ProtocolTally] = []
        self._saved: List[Tuple[Any, str, bool, Any]] = []
        self.origin = 0.0

    # ------------------------------------------------------------------ #
    # Thread-local state
    # ------------------------------------------------------------------ #

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tally(self) -> _ProtocolTally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = _ProtocolTally()
            with self._lock:
                self._tallies.append(tally)
        return tally

    def set_op(self, op: str) -> None:
        """Tag spans opened on this thread from now on with ``op``."""
        self._local.op = op

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def _span_wrapper(self, layer: str, name: str, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(
                span_id=next(tracer._ids),
                name=name,
                layer=layer,
                parent=parent,
                thread=threading.get_ident(),
                op=getattr(tracer._local, "op", ""),
                start=time.perf_counter(),
            )
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as error:
                span.args["raised"] = type(error).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                tracer.spans.append(span)
            tracer._annotate(span, args, result)
            return result

        return wrapper

    def _annotate(self, span: Span, args: Tuple[Any, ...], result: Any) -> None:
        """Record what a finished span returned, for the per-layer counts."""
        name = span.name
        if name.startswith("optimization."):
            span.args["evaluations"] = int(getattr(result, "evaluations", 0))
        elif name in _STAGES:
            span.args["method"] = getattr(result, "solver", "")
        elif name == "simulation.run":
            span.args["events"] = int(getattr(result, "processed_events", 0))
        elif name == "runtime.run":
            span.args["tasks"] = len(args[1]) if len(args) > 1 else 0
        elif name == "store.get":
            span.args["hit"] = result is not None
        elif name == "store.put" and result:
            store, digest = args[0], args[1]
            # Size of the record file the put just published.
            span.args["bytes"] = store._record_path(digest).stat().st_size

    def _protocol_wrapper(self, original: Callable, batched: bool) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(model: Any, *args: Any, **kwargs: Any) -> Any:
            local = tracer._local
            depth = getattr(local, "protocol_depth", 0)
            if depth:
                # A protocol method calling another: count the outer one only.
                return original(model, *args, **kwargs)
            local.protocol_depth = 1
            started = time.perf_counter()
            try:
                return original(model, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                local.protocol_depth = 0
                tally = tracer._tally()
                if batched:
                    tally.batched_calls += 1
                    tally.batched_points += len(args[0]) if args else 0
                    tally.batched_s += elapsed
                else:
                    tally.scalar_calls += 1
                    tally.scalar_s += elapsed
                stack = tracer._stack()
                if stack:
                    stack[-1].protocol_s += elapsed

        return wrapper

    def _cache_wrapper(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            with tracer._lock:
                if result is None:
                    tracer.cache_misses += 1
                else:
                    tracer.cache_hits += 1
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # Install / restore
    # ------------------------------------------------------------------ #

    def _replace(self, holder: Any, attribute: str, wrapper: Callable) -> None:
        own = attribute in vars(holder)
        original = vars(holder)[attribute] if own else getattr(holder, attribute)
        self._saved.append((holder, attribute, own, original))
        setattr(holder, attribute, wrapper)

    def __enter__(self) -> "Tracer":
        from repro.runtime.cache import SolveCache

        self.origin = time.perf_counter()
        for layer, name, owner, attribute in SPAN_TARGETS:
            holder = resolve_owner(owner)
            self._replace(holder, attribute, self._span_wrapper(layer, name, getattr(holder, attribute)))
        for cls in protocol_classes():
            for attribute in SCALAR_METHODS:
                self._replace(cls, attribute, self._protocol_wrapper(getattr(cls, attribute), False))
            for attribute in BATCHED_METHODS:
                self._replace(cls, attribute, self._protocol_wrapper(getattr(cls, attribute), True))
        self._replace(SolveCache, "get", self._cache_wrapper(SolveCache.get))
        return self

    def __exit__(self, *_: object) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every original object, newest replacement first."""
        while self._saved:
            holder, attribute, own, original = self._saved.pop()
            if own:
                setattr(holder, attribute, original)
            else:
                delattr(holder, attribute)

    # ------------------------------------------------------------------ #
    # Reports
    # ------------------------------------------------------------------ #

    def _named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def _total(self, name: str) -> float:
        return sum(span.duration for span in self._named(name))

    def layer_self_times(self) -> Dict[str, float]:
        """Self seconds per layer; protocol time is the ``protocols`` layer."""
        totals = {layer: 0.0 for layer in LAYERS if layer != "cli"}
        for span in self.spans:
            totals[span.layer] += span.self_s
        totals["protocols"] = sum(t.scalar_s + t.batched_s for t in self._tallies)
        return totals

    def root_seconds(self) -> float:
        """Seconds covered by spans that have no parent span."""
        return sum(span.duration for span in self.spans if span.parent is None)

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics the spans and counters give."""
        tallies = self._tallies
        selfs = self.layer_self_times()
        gets = self._named("store.get")
        puts = self._named("store.put")
        sims = self._named("simulation.run")
        sim_s = sum(span.duration for span in sims)
        events = sum(span.args.get("events", 0) for span in sims)
        evaluations = sum(
            span.args.get("evaluations", 0)
            for span in self.spans
            if span.name.startswith("optimization.")
        )
        stages = [span for span in self.spans if span.name in _STAGES]
        solved = [span for span in stages if "method" in span.args]
        multistart_wins = sum(
            1 for span in solved if span.args["method"] == "hybrid(multistart-slsqp)"
        )
        return {
            "api.plan_s": self._total("api.plan"),
            "api.run_s": self._total("api.run"),
            "api.serialize_s": self._total("api.serialize"),
            "api.self_s": selfs["api"],
            "runtime.tasks": sum(s.args.get("tasks", 0) for s in self._named("runtime.run")),
            "runtime.cache_hits": self.cache_hits,
            "runtime.cache_misses": self.cache_misses,
            "runtime.self_s": selfs["runtime"],
            "core.games": len(self._named("core.game")),
            "core.p1_s": self._total("core.p1"),
            "core.p2_s": self._total("core.p2"),
            "core.p4_s": self._total("core.p4"),
            "core.self_s": selfs["core"],
            "optimization.grid_s": self._total("optimization.grid"),
            "optimization.grid_calls": len(self._named("optimization.grid")),
            "optimization.polish_s": self._total("optimization.polish"),
            "optimization.polish_calls": len(self._named("optimization.polish")),
            "optimization.multistart_s": self._total("optimization.multistart"),
            "optimization.multistart_calls": len(self._named("optimization.multistart")),
            "optimization.evaluations": evaluations,
            "optimization.multistart_win_ratio": multistart_wins / len(solved) if solved else 0.0,
            "optimization.infeasible": sum(
                1 for span in stages if span.args.get("raised") == "InfeasibleProblemError"
            ),
            "optimization.self_s": selfs["optimization"],
            "protocols.scalar_calls": sum(t.scalar_calls for t in tallies),
            "protocols.scalar_s": sum(t.scalar_s for t in tallies),
            "protocols.batched_calls": sum(t.batched_calls for t in tallies),
            "protocols.batched_points": sum(t.batched_points for t in tallies),
            "protocols.batched_s": sum(t.batched_s for t in tallies),
            "simulation.runs": len(sims),
            "simulation.s": sim_s,
            "simulation.events": events,
            "simulation.events_per_s": events / sim_s if sim_s > 0 else 0.0,
            "validation.self_s": selfs["validation"],
            "store.get_calls": len(gets),
            "store.get_s": sum(span.duration for span in gets),
            "store.hit_ratio": (
                sum(1 for span in gets if span.args.get("hit")) / len(gets) if gets else 0.0
            ),
            "store.put_calls": len(puts),
            "store.put_s": sum(span.duration for span in puts),
            "store.bytes_written": sum(span.args.get("bytes", 0) for span in puts),
            "store.self_s": selfs["store"],
            "service.executions": len(self._named("service.exec")),
            "service.self_s": selfs["service"],
        }

    def http_server_ms(self) -> float:
        """Mean seconds-as-ms the request handlers took (0 without requests)."""
        handled = self._named("service.http")
        if not handled:
            return 0.0
        return 1000.0 * statistics.fmean(span.duration for span in handled)

    def client_request_ms(self) -> float:
        """Mean client-observed HTTP request time in ms (0 without requests)."""
        sent = self._named("service.client")
        if not sent:
            return 0.0
        return 1000.0 * statistics.fmean(span.duration for span in sent)

    def write_chrome_trace(self, path: Path) -> Path:
        """Write every span as a Chrome trace-event ``X`` (complete) event."""
        threads: Dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = threads.setdefault(span.thread, len(threads) + 1)
            args = {"op": span.op, "self_us": round(span.self_s * 1e6, 3), **span.args}
            if span.parent is not None:
                args["parent"] = span.parent.span_id
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": round((span.start - self.origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": 1,
                    "tid": tid,
                    "id": span.span_id,
                    "args": args,
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return path


def self_time_table(selfs: Dict[str, float], wall: float, untraced: float) -> str:
    """Plain-text table of self seconds per layer plus the untraced rest."""
    lines = [f"{'layer':<14}{'self_s':>10}{'share':>9}"]
    for layer, seconds in sorted(selfs.items(), key=lambda item: -item[1]):
        share = 100.0 * seconds / wall if wall > 0 else 0.0
        lines.append(f"{layer:<14}{seconds:>10.4f}{share:>8.1f}%")
    share = 100.0 * untraced / wall if wall > 0 else 0.0
    lines.append(f"{'(untraced)':<14}{untraced:>10.4f}{share:>8.1f}%")
    lines.append(f"{'wall':<14}{wall:>10.4f}{100.0:>8.1f}%")
    return "\n".join(lines)
