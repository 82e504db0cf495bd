"""Measure one workload: set-up, timed repeats, goldens, optional trace.

Timing method. Each engine repeat builds a fresh network and runs its
horizon as equal simulated windows of ``Network.run(until=...)`` (the
same events in the same order as one call). A window's host time is its
fastest across the repeats, so interference that hits one repeat in one
window does not count. Repeats continue until ``seconds`` have passed,
and at least ``min_repeats`` run. A lean repeat is one whole replay.

An op is one repeat. It fails when its outputs differ from the committed
golden for the workload's spec and horizon or, without one, from the
other repeats.
"""

from __future__ import annotations

import gc
import inspect
import json
import math
import os
import statistics
import time
from collections import Counter
from functools import partial
from typing import Dict, List, Optional

from layers import (
    KEEP_SPANS,
    TracedQueue,
    Tracer,
    instrument_lean,
    instrument_nodes,
    instrument_ports,
    sched_role,
)
from repro.fastpath import FAST_CORES
from repro.fastpath.netloop import run_single_bottleneck_fast
from repro.net.eventq import CalendarQueue
from repro.schedulers.registry import available_schedulers, register_scheduler
from workloads import (
    WORKLOADS,
    Outputs,
    Workload,
    build,
    engine_outputs,
    equivalence_check,
    lean_outputs,
    run_lean,
)

__all__ = ["MIN_REPEATS", "Result", "find_golden", "load_goldens",
           "peak_rss_mb", "percentile", "run_workload"]

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")

MIN_REPEATS = 3
#: Set-up is built at least this many times and for at least this long;
#: the median build is reported.
SETUP_MIN_BUILDS = 9
SETUP_MIN_SECONDS = 1.0
#: Horizon of the equivalence checks against the repo's scenario functions.
EQUIVALENCE_HORIZON = 1.0

_SETUP_SHARES = {
    "net.scenario.add_link_pct": "add_link",
    "net.routing.compute_routes_pct": "compute_routes",
    "net.scenario.add_flow_pct": "add_flow",
    "net.scenario.attach_source_pct": "attach_source",
}


class Result:
    """Everything one measured run reports."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        #: Human-readable lines printed before the metrics.
        self.notes: List[str] = []
        #: Correctness problems that are not a single failed op.
        self.problems: List[str] = []

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def load_goldens(path: str = GOLDENS_PATH) -> Dict:
    with open(path) as fh:
        return json.load(fh)


def find_golden(goldens: Dict, workload: str, signature: str,
                horizon: float) -> Optional[Dict]:
    """The committed outputs for these inputs, or None.

    Goldens are matched by spec signature, so a workload whose inputs do
    not depend on the seed finds its golden under any seed.
    """
    for entry in goldens.get(workload, {}).values():
        if entry["spec"] == signature and entry["horizon"] == horizon:
            return entry
    return None


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """This process's peak resident set, from Linux's ``VmHWM``.

    Not ``ru_maxrss``: Linux carries that across ``execve``, so a process
    would start at the peak of whatever spawned it.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


# -- set-up and untraced repeats -----------------------------------------------


def _measure_setup(wl: Workload, spec, phases: Dict[str, float]) -> List[float]:
    clock = time.perf_counter
    times: List[float] = []
    started = clock()
    while (len(times) < SETUP_MIN_BUILDS
           or clock() - started < SETUP_MIN_SECONDS):
        gc.collect()
        t0 = clock()
        if wl.kind == "lean":
            run_lean(0.0)
        else:
            build(spec, phases=phases)
        times.append(clock() - t0)
    return times


def _engine_repeat(spec, horizon: float, windows: int):
    gc.collect()
    net = build(spec)
    clock = time.perf_counter
    times = []
    for k in range(windows):
        until = horizon * (k + 1) / windows
        t0 = clock()
        net.run(until=until)
        times.append(clock() - t0)
    return times, engine_outputs(net)


def _lean_repeat(horizon: float):
    gc.collect()
    t0 = time.perf_counter()
    run = run_lean(horizon)
    return [time.perf_counter() - t0], lean_outputs(run)


def _repeats(wl: Workload, spec, horizon: float, seconds: float,
             min_repeats: int):
    """Per-repeat window times and outputs, for ``seconds`` of host time."""
    clock = time.perf_counter
    started = clock()
    window_times: List[List[float]] = []
    outputs: List[Outputs] = []
    while len(outputs) < min_repeats or clock() - started < seconds:
        if wl.kind == "lean":
            times, out = _lean_repeat(horizon)
        else:
            times, out = _engine_repeat(spec, horizon, wl.windows)
        window_times.append(times)
        outputs.append(out)
    return window_times, outputs


def _count_failures(outputs: List[Outputs], golden: Optional[Dict],
                    counts_ref: Optional[str]) -> int:
    def key(out: Outputs):
        return (out.digest, out.delivered, out.drops)

    if golden is not None:
        want = (golden["digest"], golden["delivered"], golden["drops"])
    else:
        want = Counter(map(key, outputs)).most_common(1)[0][0]
    return sum(
        key(out) != want
        or (counts_ref is not None and out.flow_counts != counts_ref)
        for out in outputs
    )


# -- traced repeat -------------------------------------------------------------


def _traced_engine(spec, horizon: float, windows: int, tracer: Tracer):
    inner = CalendarQueue()
    gc.collect()
    net = build(
        spec,
        engine=TracedQueue(inner, tracer),
        on_nodes=partial(instrument_nodes, tracer),
        on_links=partial(instrument_ports, tracer),
    )
    net.sim.callback_hook = tracer.hook
    tracer.begin()
    clock = time.perf_counter
    wall = 0.0
    for k in range(windows):
        until = horizon * (k + 1) / windows
        t0 = clock()
        net.run(until=until)
        wall += clock() - t0
    return net, inner, wall


def _traced_lean(horizon: float, tracer: Tracer):
    """One replay whose scheduler core has its scalar lane wrapped.

    The replay builds its scheduler by registry name, so a factory that
    returns the real core, wrapped, is registered under that name for
    the duration of the call.
    """
    name = inspect.signature(
        run_single_bottleneck_fast).parameters["scheduler"].default
    real = FAST_CORES[name.partition(":")[0]]
    available_schedulers()  # load the registry before overriding an entry

    def factory(**kwargs):
        sched = real(**kwargs)
        instrument_lean(tracer, sched)
        return sched

    register_scheduler(name, factory)
    try:
        tracer.begin()
        gc.collect()
        t0 = time.perf_counter()
        run = run_lean(horizon)
        wall = time.perf_counter() - t0
    finally:
        register_scheduler(name, real)
    return run, wall, real.__module__


def _layer_metrics_engine(tracer: Tracer, net, inner, wall: float,
                          delivered: int, result: Result) -> Dict[str, float]:
    layers = tracer.layer_self()
    loop_self = wall - tracer.cb_total - tracer.loop_queue
    ports = [p for node in net.nodes.values() for p in node.ports.values()]
    under_test = [p.scheduler for p in ports
                  if sched_role(p.scheduler) == "sched"]
    served = tracer.counts["sched.items"]
    result.notes.append(
        "layers: loop = net.engine (Simulator.run), sched = "
        + " + ".join(sorted({type(s).__module__.removeprefix("repro.")
                             for s in under_test})))

    def share(layer: str) -> float:
        return 100.0 * layers.get(layer, 0.0) / wall

    deq = tracer.calls("sched.dequeue")
    events = net.sim.events_processed
    return {
        "loop.self_s": loop_self,
        "loop.share_pct": 100.0 * loop_self / wall,
        "net.eventq.ops": sum(tracer.calls(f"net.eventq.{op}")
                              for op in ("push", "pop", "peek")),
        "net.eventq.share_pct": share("net.eventq"),
        "net.eventq.max_depth": net.sim.max_heap_depth,
        "net.eventq.resizes": inner.resizes,
        "net.engine.events": events,
        "net.engine.events_per_pkt": events / delivered,
        "net.sources.fires": tracer.owners["net.sources.fire"][0],
        "net.sources.share_pct": share("net.sources"),
        "net.node.receives": tracer.calls("net.node.receive"),
        "net.node.hops_per_pkt": tracer.calls("net.node.receive") / delivered,
        "net.node.share_pct": share("net.node"),
        "net.port.enqueues": tracer.calls("net.port.enqueue"),
        "net.port.drops": sum(p.drops for p in ports),
        "net.port.share_pct": share("net.port"),
        "net.port.sim_wait_p99_ms": 1e3 * percentile(tracer.waits, 99),
        "sched.enqueues": tracer.calls("sched.enqueue"),
        "sched.dequeues": deq,
        "sched.dequeue_hit_ratio": tracer.counts["sched.hits"] / deq,
        "sched.ns_per_dequeue": 1e9 * tracer.self_s("sched.dequeue") / served,
        "sched.self_s": layers.get("sched", 0.0),
        "sched.share_pct": share("sched"),
        "sched.max_backlog": tracer.max_backlog,
        "sched.terms_per_dequeue": sum(getattr(s, "terms_scanned", 0)
                                       for s in under_test) / served,
        "sched.items_per_pull_batch": 0.0,
        "schedulers.fifo.enqueues": tracer.calls("schedulers.fifo.enqueue"),
        "schedulers.fifo.dequeues": tracer.calls("schedulers.fifo.dequeue"),
        "schedulers.fifo.share_pct": share("schedulers.fifo"),
        "net.sinks.records": tracer.calls("net.sinks.record"),
        "net.sinks.share_pct": share("net.sinks"),
    }


def _layer_metrics_lean(tracer: Tracer, run, wall: float, module: str,
                        result: Result) -> Dict[str, float]:
    layers = tracer.layer_self()
    loop_self = wall - tracer.top_total
    result.notes.append(
        "layers: loop = fastpath.netloop, sched = "
        + module.removeprefix("repro."))
    served = tracer.counts["sched.items"]
    calls = tracer.calls("sched.pull") + tracer.calls("sched.pull_batch")
    batches = tracer.calls("sched.pull_batch")
    metrics: Dict[str, float] = dict.fromkeys(_ENGINE_ONLY, 0)
    metrics.update({
        "loop.self_s": loop_self,
        "loop.share_pct": 100.0 * loop_self / wall,
        "sched.enqueues": tracer.calls("sched.push"),
        "sched.dequeues": calls,
        "sched.dequeue_hit_ratio": tracer.counts["sched.hits"] / calls,
        "sched.ns_per_dequeue": 1e9 * (tracer.self_s("sched.pull")
                                       + tracer.self_s("sched.pull_batch"))
        / served,
        "sched.self_s": layers.get("sched", 0.0),
        "sched.share_pct": 100.0 * layers.get("sched", 0.0) / wall,
        "sched.max_backlog": tracer.max_backlog,
        "sched.terms_per_dequeue": run.terms_scanned / served,
        "sched.items_per_pull_batch":
            tracer.counts["sched.batch_items"] / batches if batches else 0.0,
    })
    return metrics


#: Per-layer metrics of layers the lean replay does not have.
_ENGINE_ONLY = (
    "net.eventq.ops", "net.eventq.share_pct", "net.eventq.max_depth",
    "net.eventq.resizes", "net.engine.events", "net.engine.events_per_pkt",
    "net.sources.fires", "net.sources.share_pct", "net.node.receives",
    "net.node.hops_per_pkt", "net.node.share_pct", "net.port.enqueues",
    "net.port.drops", "net.port.share_pct", "net.port.sim_wait_p99_ms",
    "schedulers.fifo.enqueues", "schedulers.fifo.dequeues",
    "schedulers.fifo.share_pct", "net.sinks.records", "net.sinks.share_pct",
) + tuple(_SETUP_SHARES)


# -- one workload --------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    horizon: Optional[float] = None,
    min_repeats: int = MIN_REPEATS,
    spans_path: Optional[str] = None,
) -> Result:
    """Measure workload ``name`` on ``seed``.

    With ``trace`` the result holds the per-layer metrics (plus the
    untraced numbers they need), else the end-to-end metrics.
    ``horizon`` overrides the workload's simulated seconds (tests use a
    tiny one); ``spans_path`` receives the kept spans as JSONL.
    """
    wl = WORKLOADS[name]
    horizon = wl.horizon if horizon is None else horizon
    goldens = load_goldens()
    spec = wl.spec(seed)
    signature = spec.signature()
    result = Result()
    result.notes.append(f"inputs: {spec.name} signature {signature[:16]}, "
                        f"horizon {horizon} s, seed {seed}")

    golden = find_golden(goldens, name, signature, horizon)
    counts_ref = None
    if wl.kind == "lean":
        engine_golden = find_golden(goldens, "bottleneck-n512", signature,
                                    horizon)
        if engine_golden is not None:
            counts_ref = engine_golden["flow_counts"]
    result.notes.append("golden: " + ("committed" if golden is not None
                                      else "none for these inputs; repeats "
                                      "are checked against each other"))

    phases: Dict[str, float] = {}
    setup = _measure_setup(wl, spec, phases)
    window_times, outputs = _repeats(wl, spec, horizon, seconds, min_repeats)
    best = [min(ts) for ts in zip(*window_times)]
    first = outputs[0]
    pkts_per_s = first.delivered / sum(best)
    result.notes.append(
        f"outputs: digest {first.digest[:16]} delivered {first.delivered} "
        f"drops {first.drops}; {len(outputs)} repeats x {len(best)} windows")

    if not trace:
        result.metrics = {
            "pkts_per_s": pkts_per_s,
            "window_ms_p50": 1e3 * statistics.median(best),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        tracer = Tracer()
        if wl.kind == "lean":
            run, wall, module = _traced_lean(horizon, tracer)
            traced = lean_outputs(run)
            metrics = _layer_metrics_lean(tracer, run, wall, module, result)
        else:
            net, inner, wall = _traced_engine(spec, horizon, wl.windows,
                                              tracer)
            traced = engine_outputs(net)
            metrics = _layer_metrics_engine(tracer, net, inner, wall,
                                            traced.delivered, result)
            total = sum(phases.values())
            metrics.update({metric: 100.0 * phases[phase] / total
                            for metric, phase in _SETUP_SHARES.items()})
        if traced != first:
            result.problems.append("traced run's outputs differ from the "
                                   "untraced run's")
        outputs.append(traced)
        metrics.update({
            "loop.window_ms_p90": 1e3 * percentile(best, 90),
            "trace.overhead_pct": 100.0 * (pkts_per_s * wall
                                           / traced.delivered - 1.0),
            "trace.spans": tracer.n,
            "trace.wall_s": wall,
        })
        result.metrics = metrics
        if spans_path is not None:
            tracer.write_jsonl(spans_path)
            result.notes.append(f"spans: {min(tracer.n, KEEP_SPANS)} of "
                                f"{tracer.n} written to {spans_path}")

    # After peak_rss_mb is read: the check builds engine networks, which
    # would otherwise set the lean replay's peak.
    result.problems += equivalence_check(
        wl, seed, min(EQUIVALENCE_HORIZON, horizon))
    result.ops = len(outputs)
    result.failed = _count_failures(outputs, golden, counts_ref)
    return result
