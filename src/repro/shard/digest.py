"""Delivery-stream digests: bit-identity of two runs of one scenario.

The digest is a sha256 over every flow's ordered per-packet delivery
stream — ``(seq, size, created_at, delivered_at)`` per delivered packet,
flows visited in sorted order. Floats are hashed through ``repr`` (exact
shortest round-trip form), so two runs digest equal iff their delivery
records are bit-identical.

``Packet.uid`` is deliberately excluded: it is a process-global counter,
so "the same" packet carries a different uid in a second run within one
process. Everything the analyses consume (delay, throughput, ordering) is
a function of the hashed fields.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

__all__ = ["DeliveryStream", "delivery_digest", "network_delivery_digest"]

#: One delivered packet, reduced to the digest-relevant fields.
DeliveryStream = Sequence[Tuple[int, int, float, float]]


def delivery_digest(flows: Mapping[Hashable, DeliveryStream]) -> str:
    """sha256 hex digest of per-flow delivery streams.

    Flows are visited in sorted-by-repr order (flow ids may be ints or
    strings), records in the given (delivery) order.
    """
    h = hashlib.sha256()
    for flow_id in sorted(flows, key=repr):
        h.update(repr(flow_id).encode())
        for record in flows[flow_id]:
            h.update(repr(tuple(record)).encode())
    return h.hexdigest()


def delivery_streams(net) -> Dict[Hashable, List[Tuple[int, int, float, float]]]:
    """Extract the digestable streams from a live Network's sinks."""
    return {
        flow_id: [
            (r.seq, r.size, r.created_at, r.delivered_at)
            for r in flow.records
        ]
        for flow_id, flow in net.sinks.flows.items()
        if flow.records
    }


def network_delivery_digest(net) -> str:
    """Digest of everything a live Network has delivered so far."""
    return delivery_digest(delivery_streams(net))
