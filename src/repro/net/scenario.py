"""The Network builder: topology + schedulers + flows + sources in one place.

This is the ns-2 "Tcl script" replacement. Typical use::

    net = Network(default_scheduler="srr")
    net.add_node("h0"); net.add_node("r0"); net.add_node("d0")
    net.add_link("h0", "r0", rate_bps=100e6, delay=0.001)
    net.add_link("r0", "d0", rate_bps=10e6, delay=0.010)
    net.add_flow("f1", "h0", "d0", weight=2)
    net.attach_source("f1", CBRSource(rate_bps=32_000, packet_size=200))
    net.run(until=30.0)
    delays = net.sinks.delays("f1")

Scheduler selection: a registry name (plus kwargs) per network, optionally
overridden per link. Each *direction* of each link gets its own scheduler
instance. Flows are registered (flow id + weight) at every output port on
their path, exactly as a signalling protocol/CAC would install state.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..core.errors import ConfigurationError, DuplicateFlowError
from ..core.interfaces import PacketScheduler
from ..core.packet import Packet
from ..schedulers.registry import create_scheduler
from ..shard.topology import (
    FlowDecl,
    LinkSpec,
    NodeSpec,
    SourceDecl,
    TopologySpec,
)
from .engine import Simulator
from .link import Link
from .node import Node
from .port import OutputPort
from .routing import compute_next_hops, shortest_path
from .shaping import TokenBucketShaper
from .sinks import SinkRegistry
from .sources import TrafficSource

__all__ = [
    "FlowSpec",
    "Network",
    "dumbbell_of_dumbbells",
    "fat_tree",
]

SchedulerSpec = Tuple[str, Dict]


class FlowSpec:
    """Bookkeeping for one registered flow."""

    __slots__ = ("flow_id", "src", "dst", "weight", "path", "ports", "sources", "shaper")

    def __init__(
        self,
        flow_id: Hashable,
        src: str,
        dst: str,
        weight: float,
        path: List[str],
        ports: List[OutputPort],
    ) -> None:
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.weight = weight
        self.path = path
        self.ports = ports
        self.sources: List[TrafficSource] = []
        self.shaper: Optional[TokenBucketShaper] = None


class Network:
    """A simulated packet network with pluggable per-port schedulers.

    ``engine`` is an event-queue instance handed to the
    :class:`~repro.net.engine.Simulator` (a profiling proxy, say);
    ``None`` builds a fresh calendar queue.
    """

    def __init__(
        self,
        default_scheduler: str = "drr",
        default_scheduler_kwargs: Optional[Dict] = None,
        *,
        engine: Optional[object] = None,
    ) -> None:
        self.sim = Simulator(queue=engine)
        self.nodes: Dict[str, Node] = {}
        self.adjacency: Dict[str, List[Tuple[str, float]]] = {}
        self.sinks = SinkRegistry(self.sim)
        self.default_scheduler = default_scheduler
        self.default_scheduler_kwargs = dict(default_scheduler_kwargs or {})
        self.flows: Dict[Hashable, FlowSpec] = {}
        self._routes_current = False
        self._seq: Dict[Hashable, int] = {}

    # -- topology ----------------------------------------------------------

    def add_node(self, name: str) -> Node:
        """Create a node (host or router — same thing here)."""
        if name in self.nodes:
            raise ConfigurationError(f"node {name!r} already exists")
        node = Node(name, deliver=self.sinks.record)
        self.nodes[name] = node
        self.adjacency[name] = []
        return node

    def add_link(
        self,
        a: str,
        b: str,
        rate_bps: float,
        delay: float = 0.0,
        *,
        scheduler: Optional[str] = None,
        scheduler_kwargs: Optional[Dict] = None,
        cost: float = 1.0,
        bidirectional: bool = True,
        buffer_packets: Optional[int] = None,
    ) -> None:
        """Connect ``a`` and ``b``; each direction gets its own scheduler.

        ``scheduler``/``scheduler_kwargs`` override the network default
        for this link (e.g. a G-3 bottleneck with an explicit capacity);
        ``buffer_packets`` caps the shared drop-tail buffer per direction.
        """
        self._add_direction(a, b, rate_bps, delay, scheduler,
                            scheduler_kwargs, cost, buffer_packets)
        if bidirectional:
            self._add_direction(b, a, rate_bps, delay, scheduler,
                                scheduler_kwargs, cost, buffer_packets)

    def _add_direction(
        self,
        src: str,
        dst: str,
        rate_bps: float,
        delay: float,
        scheduler: Optional[str],
        scheduler_kwargs: Optional[Dict],
        cost: float,
        buffer_packets: Optional[int] = None,
    ) -> None:
        for name in (src, dst):
            if name not in self.nodes:
                raise ConfigurationError(f"unknown node {name!r}")
        if dst in self.nodes[src].ports:
            raise ConfigurationError(f"link {src!r}->{dst!r} already exists")
        sched = self._make_scheduler(scheduler, scheduler_kwargs)
        port = OutputPort(
            self.sim,
            Link(rate_bps, delay),
            sched,
            self.nodes[dst],
            name=f"{src}->{dst}",
            buffer_packets=buffer_packets,
        )
        self.nodes[src].ports[dst] = port
        self.adjacency[src].append((dst, cost))
        self._routes_current = False

    def _make_scheduler(
        self, name: Optional[str], kwargs: Optional[Dict]
    ) -> PacketScheduler:
        if name is None:
            name = self.default_scheduler
            merged = dict(self.default_scheduler_kwargs)
        else:
            merged = {}
        merged.update(kwargs or {})
        if callable(name):
            # A factory (e.g. a pre-configured HierarchicalScheduler
            # builder) instead of a registry name.
            return name(**merged)
        return create_scheduler(name, **merged)

    def port(self, src: str, dst: str) -> OutputPort:
        """The output port of the ``src -> dst`` link direction."""
        try:
            return self.nodes[src].ports[dst]
        except KeyError:
            raise ConfigurationError(f"no link {src!r}->{dst!r}") from None

    def compute_routes(self) -> None:
        """(Re)build every node's next-hop table."""
        tables = compute_next_hops(self.adjacency)
        for name, node in self.nodes.items():
            node.routes = tables.get(name, {})
        self._routes_current = True

    # -- flows -------------------------------------------------------------

    def add_flow(
        self,
        flow_id: Hashable,
        src: str,
        dst: str,
        weight: float = 1,
        *,
        max_queue: Optional[int] = None,
        flow_kwargs: Optional[Dict] = None,
    ) -> FlowSpec:
        """Register a flow on every output port along its route.

        ``weight`` is passed to each port's scheduler verbatim — integer
        slot/weight units for the round-robin family, any positive real
        for the timestamp family, 0 for best-effort under G-3/RRR.
        ``flow_kwargs`` are forwarded to every port scheduler's
        ``add_flow`` (e.g. ``{"class_id": "voice"}`` for hierarchical
        ports).
        """
        if flow_id in self.flows:
            raise DuplicateFlowError(flow_id)
        if not self._routes_current:
            self.compute_routes()
        path = shortest_path(self.adjacency, src, dst)
        ports: List[OutputPort] = []
        extra = flow_kwargs or {}
        try:
            for here, nxt in zip(path, path[1:]):
                port = self.nodes[here].ports[nxt]
                port_weight = weight
                if weight == 0 and not port.scheduler.supports_zero_weight:
                    # Best-effort class: schedulers without an explicit f0
                    # class carry the flow at minimal weight instead (work
                    # conservation hands it the residual bandwidth anyway).
                    port_weight = 1
                try:
                    port.scheduler.add_flow(
                        flow_id, port_weight, max_queue=max_queue, **extra
                    )
                except TypeError:
                    # This port's discipline does not take the extra
                    # kwargs (e.g. class_id on a FIFO access port):
                    # register plainly.
                    port.scheduler.add_flow(
                        flow_id, port_weight, max_queue=max_queue
                    )
                ports.append(port)
        except Exception:
            # Roll back the partial install: a flow rejected at port k
            # must not stay registered at ports 0..k-1, or a later
            # re-add/release would leak or double-count state there.
            for port in ports:
                if port.scheduler.has_flow(flow_id):
                    port.scheduler.remove_flow(flow_id)
            raise
        spec = FlowSpec(flow_id, src, dst, weight, path, ports)
        self.flows[flow_id] = spec
        self._seq[flow_id] = 0
        return spec

    def remove_flow(self, flow_id: Hashable) -> None:
        """Tear a flow's state out of every port on its path.

        Attached sources are stopped first so a removed flow cannot keep
        injecting packets that every downstream port would then reject as
        unknown.
        """
        spec = self.flows.pop(flow_id, None)
        if spec is None:
            raise ConfigurationError(f"unknown flow {flow_id!r}")
        for source in spec.sources:
            if hasattr(source, "stop_at"):
                source.stop_at = self.sim.now
        for port in spec.ports:
            if port.scheduler.has_flow(flow_id):
                port.scheduler.remove_flow(flow_id)

    # -- fault injection ----------------------------------------------------

    def set_link_state(
        self, a: str, b: str, *, up: bool, drop_queued: bool = False
    ) -> int:
        """Take the ``a -> b`` direction down or back up.

        Returns packets dropped (nonzero only for down + ``drop_queued``).
        """
        port = self.port(a, b)
        if up:
            port.link_up()
            return 0
        return port.link_down(drop_queued=drop_queued)

    def attach_source(
        self,
        flow_id: Hashable,
        source: TrafficSource,
        *,
        shaper: Optional[TokenBucketShaper] = None,
    ) -> TrafficSource:
        """Bind a traffic source (optionally behind a leaky bucket) to a
        flow and schedule its start."""
        spec = self.flows.get(flow_id)
        if spec is None:
            raise ConfigurationError(
                f"add_flow({flow_id!r}, ...) before attaching a source"
            )
        inject = self.nodes[spec.src].inject
        if shaper is not None:
            shaper.bind(self.sim, inject)
            spec.shaper = shaper
            deliver: Callable[[Packet], None] = shaper.offer
        else:
            deliver = inject

        def emit(size: int) -> None:
            seq = self._seq[flow_id]
            self._seq[flow_id] = seq + 1
            packet = Packet(
                flow_id,
                size,
                created_at=self.sim.now,
                seq=seq,
                src=spec.src,
                dst=spec.dst,
            )
            deliver(packet)

        source.bind(self.sim, emit)
        if getattr(source, "wants_feedback", False):
            source.bind_feedback(flow_id, self.sinks)
        source.start()
        spec.sources.append(source)
        return source

    # -- execution ---------------------------------------------------------

    def run(self, until: float) -> int:
        """Advance the simulation to ``until`` seconds."""
        if not self._routes_current:
            self.compute_routes()
        return self.sim.run(until=until)

    def engine_stats(self) -> Dict[str, float]:
        """The simulator's observability counters (see ``Simulator.stats``)."""
        return self.sim.stats()

    def total_backlog(self) -> int:
        """Packets queued across every port (conservation checks)."""
        return sum(
            port.backlog
            for node in self.nodes.values()
            for port in node.ports.values()
        )

    def __repr__(self) -> str:
        return (
            f"Network(nodes={len(self.nodes)}, flows={len(self.flows)}, "
            f"t={self.sim.now:.3f}s)"
        )


# ---------------------------------------------------------------------------
# Multi-hop topology generators (TopologySpec producers)
# ---------------------------------------------------------------------------
#
# These return pure-data TopologySpec values (repro.shard.topology), not
# live Networks: repro.shard.build.build_network materialises one, and
# the spec's signature names the exact scenario a run used. Group labels
# mark router groups: everything hanging off one router pair (or one
# fat-tree pod) shares a group.
#
# Tie hygiene: both generators stagger per-flow CBR rates and start
# offsets by flow index, so no two flows share an emission grid. Packets
# of different flows then rarely reach a port at the same instant, and a
# port's service order is decided by its scheduler rather than by the
# engine's sequence-number tie-break between simultaneous events. The
# stagger is part of the spec's content: perfbench's fattree-drr-k6
# golden is keyed by the spec signature, so it must not change.


def _cbr_decl(
    flow_id: str, flow_index: int, rate_bps: float, packet_size: int
) -> SourceDecl:
    """A CBR source whose rate and start offset are unique per flow.

    Pairwise-distinct rates (linear in the flow index) plus staggered
    starts keep any two flows' emission instants from coinciding (see
    "Tie hygiene" above). The increment is small enough that even a
    512-flow fat-tree stays inside aggregate capacity (max multiplier
    ~1.7x at index 511).
    """
    rate = rate_bps * (1.0 + 0.00131 * flow_index)
    start = 0.00173 * (flow_index + 1)
    return SourceDecl(
        flow_id=flow_id,
        kind="cbr",
        params=(
            ("rate_bps", rate),
            ("packet_size", packet_size),
            ("start_at", start),
        ),
    )


def dumbbell_of_dumbbells(
    groups: int = 2,
    hosts_per_group: int = 2,
    *,
    scheduler: str = "srr",
    access_bps: float = 20e6,
    bottleneck_bps: float = 2e6,
    trunk_bps: float = 10e6,
    local_delay: float = 0.0003,
    bottleneck_delay: float = 0.001,
    trunk_delay: float = 0.004,
    rate_bps: float = 96_000.0,
    packet_size: int = 200,
) -> TopologySpec:
    """A chain of dumbbells: one classic dumbbell per router group.

    Group ``g`` is hosts ``g{g}h*`` -> router ``g{g}L`` -> bottleneck ->
    router ``g{g}R`` -> sinks ``g{g}d*``; trunk links ``g{g}R -- g{g+1}L``
    chain the groups. Trunks carry slightly distinct delays (the minimum
    is ``trunk_delay``), so cross-group paths differ in latency. Each
    host drives one intra-group flow and one flow into the next group
    (the last group's wraps back across the whole chain).
    """
    if groups < 1 or hosts_per_group < 1:
        raise ConfigurationError(
            "need at least one group and one host per group"
        )
    nodes: List[NodeSpec] = []
    links: List[LinkSpec] = []
    flows: List[FlowDecl] = []
    sources: List[SourceDecl] = []
    for g in range(groups):
        nodes.append(NodeSpec(f"g{g}L", group=g))
        nodes.append(NodeSpec(f"g{g}R", group=g))
        links.append(LinkSpec(
            f"g{g}L", f"g{g}R", rate_bps=bottleneck_bps,
            delay=bottleneck_delay,
        ))
        for i in range(hosts_per_group):
            nodes.append(NodeSpec(f"g{g}h{i}", group=g))
            nodes.append(NodeSpec(f"g{g}d{i}", group=g))
            links.append(LinkSpec(
                f"g{g}h{i}", f"g{g}L", rate_bps=access_bps,
                delay=local_delay,
            ))
            links.append(LinkSpec(
                f"g{g}R", f"g{g}d{i}", rate_bps=access_bps,
                delay=local_delay,
            ))
    for g in range(groups - 1):
        links.append(LinkSpec(
            f"g{g}R", f"g{g + 1}L", rate_bps=trunk_bps,
            delay=trunk_delay * (1.0 + g / 8.0),
        ))
    index = 0
    for g in range(groups):
        for i in range(hosts_per_group):
            local = FlowDecl(
                f"fg{g}l{i}", f"g{g}h{i}", f"g{g}d{i}", weight=i + 1
            )
            flows.append(local)
            sources.append(
                _cbr_decl(local.flow_id, index, rate_bps, packet_size)
            )
            index += 1
            if groups > 1:
                cross = FlowDecl(
                    f"fg{g}x{i}", f"g{g}h{i}",
                    f"g{(g + 1) % groups}d{i}", weight=i + 1,
                )
                flows.append(cross)
                sources.append(
                    _cbr_decl(cross.flow_id, index, rate_bps, packet_size)
                )
                index += 1
    return TopologySpec(
        name=f"dumbbell2[g{groups}xh{hosts_per_group}]",
        nodes=tuple(nodes),
        links=tuple(links),
        flows=tuple(flows),
        sources=tuple(sources),
        default_scheduler=scheduler,
    )


def fat_tree(
    k: int = 4,
    *,
    scheduler: str = "srr",
    host_bps: float = 40e6,
    edge_bps: float = 40e6,
    core_bps: float = 20e6,
    host_delay: float = 0.0002,
    agg_delay: float = 0.0005,
    core_delay: float = 0.002,
    rate_bps: float = 128_000.0,
    packet_size: int = 200,
    flows_per_host: int = 1,
) -> TopologySpec:
    """A k-ary fat-tree: k pods of (k/2 edge + k/2 agg) switches,
    (k/2)^2 cores, k^3/4 hosts.

    Pod ``p`` is router group ``p``; core ``x`` joins group ``x % k``
    (round-robin), so the only links between groups are agg<->core, all
    at ``core_delay``. Every host sends ``flows_per_host`` flows to its
    positional mirror in the following pods.
    """
    if k < 2 or k % 2:
        raise ConfigurationError(f"fat-tree arity must be even >= 2, got {k}")
    if not 1 <= flows_per_host <= k - 1:
        raise ConfigurationError(
            f"flows_per_host must be in 1..{k - 1}, got {flows_per_host}"
        )
    half = k // 2
    nodes: List[NodeSpec] = []
    links: List[LinkSpec] = []
    for p in range(k):
        for j in range(half):
            nodes.append(NodeSpec(f"p{p}e{j}", group=p))
            nodes.append(NodeSpec(f"p{p}a{j}", group=p))
            for m in range(half):
                nodes.append(NodeSpec(f"p{p}e{j}h{m}", group=p))
    for x in range(half * half):
        nodes.append(NodeSpec(f"c{x}", group=x % k))
    for p in range(k):
        for j in range(half):
            for m in range(half):
                links.append(LinkSpec(
                    f"p{p}e{j}h{m}", f"p{p}e{j}", rate_bps=host_bps,
                    delay=host_delay,
                ))
            for jj in range(half):
                links.append(LinkSpec(
                    f"p{p}e{j}", f"p{p}a{jj}", rate_bps=edge_bps,
                    delay=agg_delay,
                ))
            for r in range(half):
                links.append(LinkSpec(
                    f"p{p}a{j}", f"c{j * half + r}", rate_bps=core_bps,
                    delay=core_delay,
                ))
    flows: List[FlowDecl] = []
    sources: List[SourceDecl] = []
    index = 0
    for p in range(k):
        for j in range(half):
            for m in range(half):
                for f in range(flows_per_host):
                    q = (p + 1 + f) % k
                    flow = FlowDecl(
                        f"f_p{p}e{j}h{m}_q{q}",
                        f"p{p}e{j}h{m}", f"p{q}e{j}h{m}",
                        weight=1 + (j + m) % 3,
                    )
                    flows.append(flow)
                    sources.append(_cbr_decl(
                        flow.flow_id, index, rate_bps, packet_size
                    ))
                    index += 1
    return TopologySpec(
        name=f"fat_tree[k{k}]",
        nodes=tuple(nodes),
        links=tuple(links),
        flows=tuple(flows),
        sources=tuple(sources),
        default_scheduler=scheduler,
    )
