"""The four packet-path workloads: seeded inputs, construction, outputs.

Every engine workload is a :class:`~repro.shard.topology.TopologySpec`
made from ``--seed`` and built through the public ``Network`` API, with
each build phase timed. ``lean-n512`` replays the bottleneck inputs
through :func:`repro.fastpath.netloop.run_single_bottleneck_fast`.

A workload's outputs are a delivery digest, the delivered packet count
and the drop count; the committed goldens in ``goldens.json`` pin them
per spec signature and horizon.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional

from repro.bench.scenarios import dumbbell_network, single_bottleneck_network
from repro.fastpath.netloop import run_single_bottleneck_fast
from repro.net.eventq import CalendarQueue
from repro.net.scenario import Network, fat_tree
from repro.shard.build import build_network, make_source
from repro.shard.digest import network_delivery_digest
from repro.shard.topology import (
    FlowDecl,
    LinkSpec,
    NodeSpec,
    SourceDecl,
    TopologySpec,
)

__all__ = [
    "BUILD_PHASES",
    "WORKLOADS",
    "Outputs",
    "Workload",
    "bottleneck_spec",
    "build",
    "dumbbell_spec",
    "engine_outputs",
    "equivalence_check",
    "fattree_spec",
    "flow_counts_digest",
    "lean_outputs",
    "run_lean",
]

N_BACKGROUND = 512
MTU = 200
UNIT_BPS = 16_000

#: Build phases timed by :func:`build`, in build order.
BUILD_PHASES = ("add_node", "add_link", "compute_routes", "add_flow",
                "attach_source")


class Outputs(NamedTuple):
    """What one repeat produced; compared against the goldens."""

    digest: str
    delivered: int
    drops: int
    #: Digest of the per-flow delivered counts (the lean cross-check).
    flow_counts: str


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: ``"engine"`` (full event engine) or ``"lean"`` (netloop replay).
    kind: str
    spec: Callable[[int], TopologySpec]
    #: Simulated seconds per repeat.
    horizon: float
    #: Equal simulated windows per repeat; each is one timed
    #: ``Network.run(until=...)`` call.
    windows: int


# -- seeded inputs -------------------------------------------------------------


def bottleneck_spec(seed: int) -> TopologySpec:
    """The inputs of ``single_bottleneck_network("srr", 512)``.

    One tagged 32 kb/s CBR flow plus 512 CBR flows sending 15% over their
    16 kb/s reservation, all starting at t=0, into one 10 Mb/s SRR port.
    The scenario has no randomness: ``seed`` is accepted and unused.
    """
    del seed
    srr = (("quantum", MTU),)
    flows = [FlowDecl("tag", "src", "dst", weight=2)]
    sources = [SourceDecl("tag", "cbr", (("rate_bps", 32_000),
                                         ("packet_size", MTU)))]
    for i in range(N_BACKGROUND):
        flows.append(FlowDecl(f"bg{i}", "src", "dst", weight=1))
        sources.append(SourceDecl(f"bg{i}", "cbr", (
            ("rate_bps", UNIT_BPS * 1.15), ("packet_size", MTU),
        )))
    return TopologySpec(
        name=f"bottleneck[n{N_BACKGROUND}]",
        nodes=(NodeSpec("src"), NodeSpec("R"), NodeSpec("dst")),
        links=(
            LinkSpec("src", "R", rate_bps=100e6, delay=0.0005),
            LinkSpec("R", "dst", rate_bps=10e6, delay=0.001,
                     scheduler="srr", scheduler_kwargs=srr),
        ),
        flows=tuple(flows),
        sources=tuple(sources),
        default_scheduler="fifo",
    )


def dumbbell_spec(seed: int) -> TopologySpec:
    """The inputs of ``dumbbell_network("srr", seed=seed)`` (paper Fig. 8).

    500 background CBR flows, f1/f2 and two Pareto on/off best-effort
    flows seeded ``seed`` and ``seed + 1``, over two 10 Mb/s SRR hops;
    best-effort queues hold at most 400 packets.
    """
    hosts = [f"h{i}" for i in range(5)]
    dests = [f"d{i}" for i in range(5)]
    srr = (("quantum", MTU),)
    links = [LinkSpec(h, "R0", rate_bps=100e6, delay=0.001) for h in hosts]
    links.append(LinkSpec("R0", "R1", rate_bps=10e6, delay=0.010,
                          scheduler="srr", scheduler_kwargs=srr))
    links.append(LinkSpec("R1", "R2", rate_bps=10e6, delay=0.010,
                          scheduler="srr", scheduler_kwargs=srr))
    links += [LinkSpec("R2", d, rate_bps=100e6, delay=0.001) for d in dests]

    def cbr(fid: str, rate: float) -> SourceDecl:
        return SourceDecl(fid, "cbr", (("rate_bps", rate),
                                       ("packet_size", MTU)))

    def pareto(fid: str, s: int) -> SourceDecl:
        return SourceDecl(fid, "pareto", (("peak_rate_bps", 4_000_000),
                                          ("packet_size", MTU), ("seed", s)))

    flows = [FlowDecl("f1", "h0", "d0", weight=2),
             FlowDecl("f2", "h1", "d1", weight=64)]
    sources = [cbr("f1", 32_000), cbr("f2", 1_024_000)]
    for i in range(500):
        flows.append(FlowDecl(f"bg{i}", "h2", "d2", weight=1))
        sources.append(cbr(f"bg{i}", UNIT_BPS))
    flows += [FlowDecl("be1", "h3", "d3", weight=1, max_queue=400),
              FlowDecl("be2", "h4", "d4", weight=1, max_queue=400)]
    sources += [pareto("be1", seed), pareto("be2", seed + 1)]
    return TopologySpec(
        name="dumbbell[paper]",
        nodes=tuple(NodeSpec(n) for n in hosts + ["R0", "R1", "R2"] + dests),
        links=tuple(links),
        flows=tuple(flows),
        sources=tuple(sources),
        default_scheduler="fifo",
    )


def fattree_spec(seed: int) -> TopologySpec:
    """``fat_tree(k=6, flows_per_host=2, scheduler="drr")`` with each CBR
    source's start offset drawn from ``seed`` within its first interval.

    99 nodes, 324 ports, 108 flows, 6 hops per packet, DRR everywhere.
    """
    spec = fat_tree(k=6, flows_per_host=2, scheduler="drr")
    rng = random.Random(seed)
    sources = []
    for decl in spec.sources:
        params = decl.kwargs()
        interval = params["packet_size"] * 8.0 / params["rate_bps"]
        params["start_at"] = rng.random() * interval
        sources.append(dataclasses.replace(decl, params=tuple(params.items())))
    return dataclasses.replace(spec, sources=tuple(sources))


#: Most horizons keep one repeat near a host second, so a run holds 15 or
#: more repeats: on a shared host slowdowns last seconds, and a window's
#: fastest time over that many repeats is what makes runs agree. The
#: dumbbell's cost depends on its Pareto seed (burst volume, event-queue
#: width changes); its longer horizon halves that spread across seeds.
#: ``lean-n512`` uses the bottleneck's horizon so its per-flow counts can
#: be checked against that golden.
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("bottleneck-n512", "engine", bottleneck_spec, 5.0, 100),
        Workload("lean-n512", "lean", bottleneck_spec, 5.0, 1),
        Workload("dumbbell-paper", "engine", dumbbell_spec, 10.0, 100),
        Workload("fattree-drr-k6", "engine", fattree_spec, 2.0, 100),
    )
}


# -- building ------------------------------------------------------------------


def build(
    spec: TopologySpec,
    *,
    engine=None,
    phases: Optional[Dict[str, float]] = None,
    on_nodes: Optional[Callable[[Network], None]] = None,
    on_links: Optional[Callable[[Network], None]] = None,
) -> Network:
    """Build ``spec`` through the public ``Network`` API, in spec order.

    ``engine`` is handed to ``Network(engine=...)`` (a queue instance is
    accepted; the default is a calendar queue). ``phases`` accumulates
    host seconds per :data:`BUILD_PHASES` entry. ``on_nodes`` runs after
    the nodes exist and ``on_links`` after the ports exist: a tracer
    wraps entry points there, before sources capture them.
    """
    clock = time.perf_counter
    marks = [clock()]
    net = Network(
        default_scheduler=spec.default_scheduler,
        default_scheduler_kwargs=dict(spec.default_scheduler_kwargs),
        engine=engine if engine is not None else CalendarQueue(),
    )
    for node in spec.nodes:
        net.add_node(node.name)
    marks.append(clock())
    if on_nodes is not None:
        on_nodes(net)
    marks.append(clock())
    for link in spec.links:
        net.add_link(
            link.a, link.b, rate_bps=link.rate_bps, delay=link.delay,
            scheduler=link.scheduler,
            scheduler_kwargs=dict(link.scheduler_kwargs) or None,
            cost=link.cost, bidirectional=link.bidirectional,
            buffer_packets=link.buffer_packets,
        )
    marks.append(clock())
    if on_links is not None:
        on_links(net)
    marks.append(clock())
    net.compute_routes()
    marks.append(clock())
    for flow in spec.flows:
        net.add_flow(flow.flow_id, flow.src, flow.dst, weight=flow.weight,
                     max_queue=flow.max_queue)
    marks.append(clock())
    for decl in spec.sources:
        net.attach_source(decl.flow_id, make_source(decl.kind, decl.kwargs()))
    marks.append(clock())
    if phases is not None:
        # marks[1]..[2] and marks[3]..[4] bracket the hooks: not setup.
        spans = (marks[1] - marks[0], marks[3] - marks[2],
                 marks[5] - marks[4], marks[6] - marks[5],
                 marks[7] - marks[6])
        for phase, seconds in zip(BUILD_PHASES, spans):
            phases[phase] = phases.get(phase, 0.0) + seconds
    return net


# -- outputs -------------------------------------------------------------------


def flow_counts_digest(counts: Dict[Hashable, int]) -> str:
    """sha256 of the per-flow delivered packet counts."""
    h = hashlib.sha256()
    for flow_id in sorted(counts, key=repr):
        h.update(f"{flow_id!r}={counts[flow_id]};".encode())
    return h.hexdigest()


def engine_outputs(net: Network) -> Outputs:
    counts = {fid: rec.packets for fid, rec in net.sinks.flows.items()}
    drops = sum(port.drops for node in net.nodes.values()
                for port in node.ports.values())
    return Outputs(network_delivery_digest(net), net.sinks.total_packets,
                   drops, flow_counts_digest(counts))


def _lean_counts(run) -> Dict[str, int]:
    """A lean replay's per-flow delivered counts under engine flow ids."""
    counts = {"tag": run.delivered[0]}
    for i in range(run.n_flows):
        counts[f"bg{i}"] = run.delivered[i + 1]
    return {fid: n for fid, n in counts.items() if n}


def lean_outputs(run) -> Outputs:
    h = hashlib.sha256()
    for slot in range(run.n_flows + 1):
        h.update(repr((slot, run.delivered[slot], run.delivered_bytes[slot],
                       run.delay_sum[slot], run.delay_max[slot])).encode())
    return Outputs(h.hexdigest(), run.total_delivered, 0,
                   flow_counts_digest(_lean_counts(run)))


def run_lean(horizon: float):
    """One lean replay with the netloop's default scheduler."""
    return run_single_bottleneck_fast(N_BACKGROUND, horizon)


# -- equivalence ---------------------------------------------------------------


def _run_digest(net: Network, horizon: float) -> Outputs:
    net.run(until=horizon)
    return engine_outputs(net)


def equivalence_check(wl: Workload, seed: int, horizon: float) -> List[str]:
    """Compare the benchmark's inputs with the repo's scenario functions.

    Returns one message per mismatch (empty when everything agrees):
    the spec-built bottleneck and dumbbell must digest equal to
    ``single_bottleneck_network`` / ``dumbbell_network``, the fat-tree
    build must equal ``repro.shard.build.build_network`` of the same
    spec, and the lean replay's per-flow counts must equal the engine's.
    """
    spec = wl.spec(seed)
    ours = _run_digest(build(spec), horizon)
    if wl.name == "bottleneck-n512":
        ref = _run_digest(single_bottleneck_network("srr", N_BACKGROUND),
                          horizon)
    elif wl.name == "dumbbell-paper":
        ref = _run_digest(dumbbell_network("srr", seed=seed), horizon)
    elif wl.name == "fattree-drr-k6":
        ref = _run_digest(build_network(spec), horizon)
    else:
        lean = lean_outputs(run_lean(horizon))
        if lean.flow_counts != ours.flow_counts:
            return [f"{wl.name}: lean per-flow delivered counts differ from "
                    f"the event engine's over {horizon} s"]
        return []
    if ref.digest != ours.digest:
        return [f"{wl.name}: spec-built digest {ours.digest[:16]} != "
                f"reference {ref.digest[:16]} over {horizon} s"]
    return []
