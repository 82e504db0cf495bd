"""Outside-in layer trace for the perfbench workloads.

Spans are recorded around each layer's public entry points, from the
benchmark's own code; nothing under ``src/`` knows it is traced:

* ``net.eventq``: a queue proxy handed to ``Network(engine=...)``;
* ``net.node``: each node's ``receive``/``inject``;
* ``net.port``: each port's ``enqueue``, plus transmit completions
  attributed through ``Simulator.callback_hook``;
* ``sched`` / ``schedulers.fifo``: each port scheduler's ``enqueue`` and
  ``dequeue`` (``push``/``pull``/``pull_batch`` in the lean replay);
* ``net.sinks``: ``SinkRegistry.record`` via ``Node.set_delivery_handler``;
* ``net.sources``: source callbacks, attributed through the hook.

A span's self time is its duration minus its child spans. A fired event
whose callback is not itself a span (a source tick, a transmit
completion) is charged, by the hook, its elapsed time minus the spans it
opened. The engine loop's own time is whatever the callbacks and the
loop's queue pops/peeks leave of the run's wall time.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.net.port import OutputPort
from repro.net.sources import TrafficSource

__all__ = ["KEEP_SPANS", "Tracer", "TracedQueue", "instrument_lean",
           "instrument_nodes", "instrument_ports", "layer_of", "sched_role"]

#: Spans kept in memory for the JSONL dump; aggregates cover every span.
KEEP_SPANS = 200_000


def layer_of(span_name: str) -> str:
    """``"net.port.enqueue"`` -> ``"net.port"``."""
    return span_name.rpartition(".")[0]


def _trace_id(args: tuple) -> Optional[int]:
    """The packet uid carried by a call's first argument, if any.

    An event (queue push) carries its packet in its own ``args``.
    """
    if not args:
        return None
    first = args[0]
    uid = getattr(first, "uid", None)
    if uid is None:
        inner = getattr(first, "args", None)
        if inner:
            uid = getattr(inner[0], "uid", None)
    return uid


class Tracer:
    """Span stack, per-span aggregates and the kept span records."""

    def __init__(self) -> None:
        self._stack: List[list] = []
        #: Kept spans as ``[id, name, start, end, parent_id, trace_id]``.
        self.records: List[list] = []
        #: Kept top-level spans opened inside the current event callback,
        #: re-parented under that callback's owner span by the hook.
        self._orphans: List[list] = []
        #: span name -> [calls, self seconds]
        self.spans: Dict[str, list] = {}
        #: hook owner name -> [events, self seconds]
        self.owners: Dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._owner_of: Dict[Any, tuple] = {}
        #: Free-form exact counters (dequeue hits, items, ...).
        self.counts: Counter = Counter()
        self.max_backlog = 0
        #: Simulated queue wait of every dequeued packet, seconds.
        self.waits: List[float] = []
        self.n = 0
        self._cb_top = 0.0
        #: Seconds inside event callbacks (hook-measured) and inside the
        #: engine loop's own queue pops and peeks.
        self.cb_total = 0.0
        self.loop_queue = 0.0
        #: Seconds of every top-level span (the lean loop's children).
        self.top_total = 0.0

    def begin(self) -> None:
        """Zero every aggregate: what ran before (the build) is not traced.

        Wrappers hold references to these containers, so they are
        cleared in place.
        """
        self._stack.clear()
        self.records.clear()
        self._orphans.clear()
        for agg in self.spans.values():
            agg[0], agg[1] = 0, 0.0
        self.owners.clear()
        self.counts.clear()
        self.waits.clear()
        self.max_backlog = 0
        self.n = 0
        self._cb_top = self.cb_total = self.loop_queue = self.top_total = 0.0

    # -- wrapping --------------------------------------------------------------

    def span(
        self,
        name: str,
        fn: Callable,
        post: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """Wrap ``fn`` so every call records a ``name`` span.

        ``post(result)`` runs after the span closed, for exact counters.
        """
        agg = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack
        records = self.records
        orphans = self._orphans
        keep = KEEP_SPANS
        perf = time.perf_counter
        tracer = self

        def wrapper(*args):
            parent = stack[-1] if stack else None
            sid = tracer.n
            tracer.n = sid + 1
            frame = [0.0, sid, None]
            if sid < keep:
                frame[2] = _trace_id(args)
                if frame[2] is None and parent is not None:
                    frame[2] = parent[2]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                agg[0] += 1
                agg[1] += d - frame[0]
                if parent is None:
                    tracer._cb_top += d
                    tracer.top_total += d
                else:
                    parent[0] += d
            if sid < keep:
                trace = frame[2]
                if trace is None:
                    trace = getattr(out, "uid", None)
                rec = [sid, name, t0, t1,
                       None if parent is None else parent[1], trace]
                records.append(rec)
                if parent is None:
                    orphans.append(rec)
            if post is not None:
                post(out)
            return out

        wrapper._perfbench_span = name
        return wrapper

    def loop_span(self, name: str, fn: Callable) -> Callable:
        """Wrap a call the engine loop itself makes (queue pop/peek).

        Its time belongs to no event callback, so the hook must not
        subtract it from the next callback's owner.
        """
        agg = self.spans.setdefault(name, [0, 0.0])
        records = self.records
        keep = KEEP_SPANS
        perf = time.perf_counter
        tracer = self

        def wrapper():
            sid = tracer.n
            tracer.n = sid + 1
            t0 = perf()
            out = fn()
            t1 = perf()
            d = t1 - t0
            agg[0] += 1
            agg[1] += d
            tracer.loop_queue += d
            if sid < keep:
                records.append([sid, name, t0, t1, None, None])
            return out

        return wrapper

    def hook(self, event, elapsed: float) -> None:
        """``Simulator.callback_hook``: charge the callback to its owner."""
        fn = event.fn
        key = getattr(fn, "__func__", fn)
        owner = self._owner_of.get(key)
        if owner is None:
            owner = self._owner_of[key] = _classify(fn)
        name, spanned = owner
        agg = self.owners[name]
        agg[0] += 1
        agg[1] += elapsed - self._cb_top
        self._cb_top = 0.0
        self.cb_total += elapsed
        orphans = self._orphans
        if spanned:
            # The callback is a span already; what is left is the
            # wrapper's own call overhead, charged to the same layer.
            orphans.clear()
            return
        sid = self.n
        self.n = sid + 1
        if sid < KEEP_SPANS:
            end = time.perf_counter()
            trace = orphans[0][5] if orphans else None
            self.records.append([sid, name, end - elapsed, end, None, trace])
            for rec in orphans:
                rec[4] = sid
        orphans.clear()

    # -- results ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        agg = self.spans.get(name)
        return agg[0] if agg else 0

    def self_s(self, name: str) -> float:
        agg = self.spans.get(name)
        return agg[1] if agg else 0.0

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer: spans plus hook-charged owners."""
        out: Dict[str, float] = defaultdict(float)
        for name, (_calls, seconds) in self.spans.items():
            out[layer_of(name)] += seconds
        for name, (_events, seconds) in self.owners.items():
            out[layer_of(name)] += seconds
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, trace in self.records:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "trace": trace,
                }) + "\n")


def _classify(fn: Callable) -> tuple:
    """(owner name, is-a-span) for a fired event's callback."""
    name = getattr(fn, "_perfbench_span", None)
    if name is not None:
        return name, True
    owner = getattr(fn, "__self__", None)
    if isinstance(owner, TrafficSource):
        return "net.sources.fire", False
    if isinstance(owner, OutputPort):
        return "net.port.tx_complete", False
    return "net.engine.other", False


class TracedQueue:
    """Event-queue proxy: spans around ``push``, ``pop`` and ``peek``."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.kind = inner.kind
        self.push = tracer.span("net.eventq.push", inner.push)
        self.pop = tracer.loop_span("net.eventq.pop", inner.pop)
        self.peek = tracer.loop_span("net.eventq.peek", inner.peek)

    @property
    def size(self) -> int:
        return self.inner.size

    def peek_time(self):
        return self.inner.peek_time()

    def stats(self):
        return self.inner.stats()


def sched_role(scheduler) -> str:
    """Access-port FIFOs are their own layer; every other discipline is
    the workload's scheduler under test, ``sched``."""
    module = type(scheduler).__module__
    return "schedulers.fifo" if module.endswith(".fifo") else "sched"


def instrument_nodes(tracer: Tracer, net) -> None:
    """Wrap node entry points and the sink; call before sources attach,
    because ``attach_source`` captures the source host's ``inject``."""
    record = tracer.span("net.sinks.record", net.sinks.record)
    for node in net.nodes.values():
        receive = tracer.span("net.node.receive", node.receive)
        node.receive = receive
        node.inject = receive
        node.set_delivery_handler(record)


def instrument_ports(tracer: Tracer, net) -> None:
    """Wrap every port's ``enqueue`` and its scheduler's datapath."""
    sim = net.sim
    counts = tracer.counts
    waits = tracer.waits

    for node in net.nodes.values():
        for port in node.ports.values():
            port.enqueue = tracer.span("net.port.enqueue", port.enqueue)
            sched = port.scheduler
            role = sched_role(sched)

            def on_dequeue(packet, role=role):
                if packet is not None:
                    counts[role + ".hits"] += 1
                    counts[role + ".items"] += 1
                    waits.append(sim.now - packet.enqueued_at)

            def on_enqueue(_accepted, sched=sched, role=role):
                if role == "sched" and sched.backlog > tracer.max_backlog:
                    tracer.max_backlog = sched.backlog

            sched.enqueue = tracer.span(role + ".enqueue", sched.enqueue,
                                        on_enqueue)
            sched.dequeue = tracer.span(role + ".dequeue", sched.dequeue,
                                        on_dequeue)


def instrument_lean(tracer: Tracer, sched) -> None:
    """Wrap a flat core's scalar lane: ``push``, ``pull``, ``pull_batch``."""
    counts = tracer.counts

    def on_push(_accepted):
        if sched.backlog > tracer.max_backlog:
            tracer.max_backlog = sched.backlog

    def on_pull(item):
        if item is not None:
            counts["sched.hits"] += 1
            counts["sched.items"] += 1

    def on_batch(items):
        if items:
            counts["sched.hits"] += 1
            counts["sched.items"] += len(items)
            counts["sched.batch_items"] += len(items)

    sched.push = tracer.span("sched.push", sched.push, on_push)
    sched.pull = tracer.span("sched.pull", sched.pull, on_pull)
    sched.pull_batch = tracer.span("sched.pull_batch", sched.pull_batch,
                                   on_batch)
