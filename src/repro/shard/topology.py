"""Pure-data topology specifications.

A :class:`TopologySpec` is the picklable description of a whole
multi-hop scenario: nodes (each labelled with a *router group*), links,
flows and traffic sources. It deliberately imports nothing from
:mod:`repro.net`, so :mod:`repro.net.scenario` can return specs from its
generators; :func:`repro.shard.build.build_network` materialises one.

Determinism contract: a spec is an *ordered* value. Nodes, links, flows
and sources are tuples, and the builder iterates them in spec order, so
two builds of the same spec allocate engine sequence numbers and
scheduler state in exactly the same order. :meth:`TopologySpec.signature`
hashes that ordered content — run provenance (perfbench keys its goldens
by it), the same role :func:`FaultPlan.signature` plays for fault
schedules.

Source declarations are data, not live objects: ``SourceDecl(kind,
params)`` names a :mod:`repro.net.sources` class by registry key with
its constructor kwargs (seeds included), so a spec carries its entire
randomness budget explicitly and every build gets byte-equal sources.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.errors import ConfigurationError

__all__ = [
    "NodeSpec",
    "LinkSpec",
    "FlowDecl",
    "SourceDecl",
    "TopologySpec",
    "SOURCE_KINDS",
]

#: Source registry keys a :class:`SourceDecl` may name, mapped to the
#: class names in :mod:`repro.net.sources` (resolved lazily by the
#: builder; this module never imports repro.net). ``WindowSource`` is
#: deliberately absent: a closed-loop source's emissions depend on
#: delivery feedback, so its offered load is not fixed by its declaration
#: and it has no arrival envelope to carry through a path.
SOURCE_KINDS: Dict[str, str] = {
    "cbr": "CBRSource",
    "poisson": "PoissonSource",
    "pareto": "ParetoOnOffSource",
    "expoo": "ExponentialOnOffSource",
    "burst": "BurstSource",
}


@dataclass(frozen=True)
class NodeSpec:
    """One node; ``group`` is its router-group label.

    A group is a router plus everything directly attached to it (one
    dumbbell, one fat-tree pod). The build ignores it; it is part of the
    spec's content, and therefore of its signature.
    """

    name: str
    group: int = 0


@dataclass(frozen=True)
class LinkSpec:
    """One (by default bidirectional) link, network-default scheduler
    unless overridden per link."""

    a: str
    b: str
    rate_bps: float
    delay: float = 0.0
    scheduler: Optional[str] = None
    scheduler_kwargs: Tuple[Tuple[str, object], ...] = ()
    cost: float = 1.0
    bidirectional: bool = True
    buffer_packets: Optional[int] = None


@dataclass(frozen=True)
class FlowDecl:
    """One flow installed along its shortest path, as ``add_flow`` does."""

    flow_id: str
    src: str
    dst: str
    weight: float = 1.0
    max_queue: Optional[int] = None


@dataclass(frozen=True)
class SourceDecl:
    """One traffic source attached to a flow: registry kind + kwargs."""

    flow_id: str
    kind: str
    params: Tuple[Tuple[str, object], ...] = ()

    def kwargs(self) -> Dict[str, object]:
        return dict(self.params)


@dataclass(frozen=True)
class TopologySpec:
    """A complete, ordered, picklable scenario description."""

    name: str
    nodes: Tuple[NodeSpec, ...]
    links: Tuple[LinkSpec, ...]
    flows: Tuple[FlowDecl, ...] = ()
    sources: Tuple[SourceDecl, ...] = ()
    default_scheduler: str = "srr"
    default_scheduler_kwargs: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate node names in spec {self.name!r}")
        known = set(names)
        for link in self.links:
            for end in (link.a, link.b):
                if end not in known:
                    raise ConfigurationError(
                        f"link {link.a!r}-{link.b!r} references unknown "
                        f"node {end!r}"
                    )
        flow_ids = set()
        for flow in self.flows:
            if flow.flow_id in flow_ids:
                raise ConfigurationError(f"duplicate flow id {flow.flow_id!r}")
            flow_ids.add(flow.flow_id)
            for end in (flow.src, flow.dst):
                if end not in known:
                    raise ConfigurationError(
                        f"flow {flow.flow_id!r} references unknown "
                        f"node {end!r}"
                    )
        for source in self.sources:
            if source.flow_id not in flow_ids:
                raise ConfigurationError(
                    f"source for unknown flow {source.flow_id!r}"
                )
            if source.kind not in SOURCE_KINDS:
                raise ConfigurationError(
                    f"unknown source kind {source.kind!r}; choose from "
                    f"{sorted(SOURCE_KINDS)}"
                )

    @property
    def n_groups(self) -> int:
        """Number of distinct router groups."""
        return len({n.group for n in self.nodes})

    def groups(self) -> Tuple[int, ...]:
        """The distinct group labels, sorted."""
        return tuple(sorted({n.group for n in self.nodes}))

    def group_of(self) -> Dict[str, int]:
        """node name -> group label."""
        return {n.name: n.group for n in self.nodes}

    def signature(self) -> str:
        """Content hash of the ordered spec (artifact provenance)."""
        h = hashlib.sha256()
        for part in (
            self.name, self.default_scheduler,
            self.default_scheduler_kwargs, self.nodes, self.links,
            self.flows, self.sources,
        ):
            h.update(repr(part).encode())
        return h.hexdigest()

    def __repr__(self) -> str:
        return (
            f"TopologySpec({self.name!r}, nodes={len(self.nodes)}, "
            f"links={len(self.links)}, flows={len(self.flows)}, "
            f"groups={self.n_groups})"
        )
