"""Materialise a TopologySpec as one :class:`~repro.net.scenario.Network`.

:func:`build_network` adds every node, link, flow and source of the spec
in spec order. The ordering IS the determinism contract: engine sequence
numbers and scheduler state are allocated in add order, so two builds of
the same spec run bit-identically on either event-queue backend.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.errors import ConfigurationError
from ..net import sources as _sources
from ..net.scenario import Network
from .topology import SOURCE_KINDS, TopologySpec

__all__ = ["build_network", "make_source"]


def make_source(kind: str, params: Dict[str, object]):
    """Instantiate a :mod:`repro.net.sources` class from a SourceDecl."""
    try:
        cls = getattr(_sources, SOURCE_KINDS[kind])
    except KeyError:
        raise ConfigurationError(
            f"unknown source kind {kind!r}; choose from "
            f"{sorted(SOURCE_KINDS)}"
        ) from None
    return cls(**params)


def build_network(
    spec: TopologySpec, *, engine: Optional[str] = None
) -> Network:
    """The reference build of ``spec``: its content added in spec order."""
    net = Network(
        default_scheduler=spec.default_scheduler,
        default_scheduler_kwargs=dict(spec.default_scheduler_kwargs),
        engine=engine,
    )
    for node in spec.nodes:
        net.add_node(node.name)
    for link in spec.links:
        net.add_link(
            link.a, link.b, rate_bps=link.rate_bps, delay=link.delay,
            scheduler=link.scheduler,
            scheduler_kwargs=dict(link.scheduler_kwargs) or None,
            cost=link.cost, bidirectional=link.bidirectional,
            buffer_packets=link.buffer_packets,
        )
    net.compute_routes()
    for flow in spec.flows:
        net.add_flow(
            flow.flow_id, flow.src, flow.dst, weight=flow.weight,
            max_queue=flow.max_queue,
        )
    for decl in spec.sources:
        net.attach_source(decl.flow_id, make_source(decl.kind, decl.kwargs()))
    return net
