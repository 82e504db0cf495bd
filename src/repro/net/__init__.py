"""A from-scratch discrete-event network simulator (the ns-2 stand-in).

Components: an event engine (:mod:`~repro.net.engine`), links and
scheduler-equipped output ports (:mod:`~repro.net.link`,
:mod:`~repro.net.port`), forwarding nodes (:mod:`~repro.net.node`), static
shortest-path routing (:mod:`~repro.net.routing`), traffic sources
(:mod:`~repro.net.sources`), leaky-bucket shaping
(:mod:`~repro.net.shaping`), delivery records (:mod:`~repro.net.sinks`),
the service-trace probe (:mod:`~repro.net.monitors`), and the
:class:`~repro.net.scenario.Network` builder that wires them together.
"""

from .engine import Event, Simulator
from .eventq import CalendarQueue
from .link import Link
from .monitors import ServiceTrace
from .node import Node
from .port import OutputPort
from .routing import compute_next_hops, shortest_path
from .scenario import FlowSpec, Network
from .shaping import TokenBucketShaper
from .sinks import DeliveryRecord, FlowRecord, SinkRegistry
from .sources import (
    BurstSource,
    CBRSource,
    ExponentialOnOffSource,
    ParetoOnOffSource,
    PoissonSource,
    TrafficSource,
    WindowSource,
)

__all__ = [
    "BurstSource",
    "CBRSource",
    "CalendarQueue",
    "DeliveryRecord",
    "Event",
    "ExponentialOnOffSource",
    "FlowRecord",
    "FlowSpec",
    "Link",
    "Network",
    "Node",
    "OutputPort",
    "ParetoOnOffSource",
    "PoissonSource",
    "ServiceTrace",
    "SinkRegistry",
    "Simulator",
    "TokenBucketShaper",
    "TrafficSource",
    "WindowSource",
    "compute_next_hops",
    "shortest_path",
]
