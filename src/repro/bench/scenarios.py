"""Network-level experiment scenarios.

The centrepiece is :func:`dumbbell_network` — the author's simulation
topology (Fig. 8 of the supplied text, reused from the SRR evaluation):

* hosts ``h0..h4`` -> router ``R0`` at 100 Mb/s / 1 ms;
* bottlenecks ``R0 -> R1 -> R2`` at 10 Mb/s / 10 ms each;
* ``R2`` -> destinations ``d0..d4`` at 100 Mb/s / 1 ms;
* ``f1``: 32 kb/s CBR (h0 -> d0); ``f2``: 1024 kb/s CBR (h1 -> d1);
* 500 background CBR flows at 16 kb/s (h2 -> d2);
* two Pareto on/off best-effort flows (h3 -> d3, h4 -> d4), mean on/off
  100 ms, alpha 1.5, mean rate ~2 Mb/s each — more than the unallocated
  bandwidth, so the bottleneck stays saturated.

Weights: rates are expressed in 16 kb/s units (the background rate), so
C = 10 Mb/s = 625 units, f1 = 2, f2 = 64, background = 1 each; reserved
total 566 of 625. The weighted scheduler under test runs on the two
bottleneck directions; access links are uncongested FIFO. Under G-3 the
best-effort flows use weight 0 (the paper's f0); under the work-conserving
schedulers they get weight 1 and simply share the residue.

RRR needs a power-of-two slot grid; following the paper's own example a
20-bit grid is used, which is exactly what inflates its per-flow bit
counts (and its delay) — reproduced in experiment E8.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..core.errors import ConfigurationError
from ..net.scenario import Network
from ..net.sources import CBRSource, ParetoOnOffSource

__all__ = [
    "WEIGHT_UNIT_BPS",
    "BOTTLENECK_BPS",
    "MTU",
    "dumbbell_network",
    "single_bottleneck_network",
    "parking_lot_network",
    "slots_for_rate",
]

#: One SRR/G-3 weight unit = the background-flow rate of the paper.
WEIGHT_UNIT_BPS = 16_000
#: The paper's bottleneck rate.
BOTTLENECK_BPS = 10_000_000
#: The paper's MTU (fixed packet size L).
MTU = 200
#: RRR slot-grid order (the paper's Section II-C example uses g = 20).
RRR_GRID_ORDER = 20


def slots_for_rate(rate_bps: float, capacity_slots: int, link_bps: float) -> int:
    """Smallest slot weight reserving at least ``rate_bps``."""
    return max(1, math.ceil(rate_bps / link_bps * capacity_slots))


def _bottleneck_config(scheduler: str) -> Dict:
    """Per-scheduler kwargs for a 10 Mb/s bottleneck port."""
    capacity_units = BOTTLENECK_BPS // WEIGHT_UNIT_BPS  # 625
    if scheduler == "g3":
        return {"capacity": capacity_units}
    if scheduler == "rrr":
        return {"capacity": 1 << RRR_GRID_ORDER}
    if scheduler in ("drr", "srr"):
        return {"quantum": MTU}
    return {}


def _flow_weight(scheduler: str, rate_bps: float, *, best_effort: bool) -> float:
    """Map a reserved rate to this scheduler's weight domain."""
    if scheduler in ("g3", "rrr"):
        if best_effort:
            return 0
        if scheduler == "rrr":
            return slots_for_rate(
                rate_bps, 1 << RRR_GRID_ORDER, BOTTLENECK_BPS
            )
        return max(1, round(rate_bps / WEIGHT_UNIT_BPS))
    if best_effort:
        return 1  # minimal share of the residue under work conservation
    if scheduler in ("wfq", "scfq", "stfq", "wf2q+", "vc", "strr"):
        return rate_bps  # real-valued weights: use the rate directly
    return max(1, round(rate_bps / WEIGHT_UNIT_BPS))


def dumbbell_network(
    scheduler: str,
    *,
    n_background: int = 500,
    background_rate_bps: float = WEIGHT_UNIT_BPS,
    f1_rate_bps: float = 32_000,
    f2_rate_bps: float = 1_024_000,
    best_effort_peak_bps: float = 4_000_000,
    packet_size: int = MTU,
    max_queue: Optional[int] = None,
    be_max_queue: int = 400,
    stagger_background: bool = False,
    seed: int = 1,
) -> Network:
    """Build the paper's Fig. 8 scenario under the given scheduler.

    Returns a ready :class:`~repro.net.scenario.Network`; call
    ``net.run(until=...)`` and read ``net.sinks``. Flow ids: ``"f1"``,
    ``"f2"``, ``"bg<i>"``, ``"be1"``, ``"be2"``.
    """
    net = Network(default_scheduler="fifo")
    hosts = [f"h{i}" for i in range(5)]
    dests = [f"d{i}" for i in range(5)]
    for name in hosts + ["R0", "R1", "R2"] + dests:
        net.add_node(name)
    for h in hosts:
        net.add_link(h, "R0", rate_bps=100e6, delay=0.001)
    kw = _bottleneck_config(scheduler)
    net.add_link("R0", "R1", rate_bps=BOTTLENECK_BPS, delay=0.010,
                 scheduler=scheduler, scheduler_kwargs=kw)
    net.add_link("R1", "R2", rate_bps=BOTTLENECK_BPS, delay=0.010,
                 scheduler=scheduler, scheduler_kwargs=kw)
    for d in dests:
        net.add_link("R2", d, rate_bps=100e6, delay=0.001)
    net.compute_routes()

    def reserve(fid, src, dst, rate, *, best_effort=False):
        weight = _flow_weight(scheduler, rate, best_effort=best_effort)
        # Best-effort queues are bounded (the offered load exceeds the
        # residual bandwidth by design, so they would otherwise grow
        # without limit — real routers have finite buffers).
        limit = be_max_queue if best_effort else max_queue
        net.add_flow(fid, src, dst, weight=weight, max_queue=limit)

    reserve("f1", "h0", "d0", f1_rate_bps)
    reserve("f2", "h1", "d1", f2_rate_bps)
    for i in range(n_background):
        reserve(f"bg{i}", "h2", "d2", background_rate_bps)
    reserve("be1", "h3", "d3", 0, best_effort=True)
    reserve("be2", "h4", "d4", 0, best_effort=True)

    net.attach_source("f1", CBRSource(f1_rate_bps, packet_size))
    net.attach_source("f2", CBRSource(f2_rate_bps, packet_size))
    # ns-2 CBR sources all start at t = 0 by default; the synchronised
    # arrival batches are what makes every background flow backlogged at
    # the start of each round — the condition under which SRR's delay
    # grows with N. `stagger_background` spreads the starts instead
    # (a gentler, but less paper-faithful, workload).
    interval = packet_size * 8.0 / background_rate_bps
    for i in range(n_background):
        start = (
            (i / max(n_background, 1)) * interval if stagger_background else 0.0
        )
        net.attach_source(
            f"bg{i}",
            CBRSource(background_rate_bps, packet_size, start_at=start),
        )
    net.attach_source(
        "be1",
        ParetoOnOffSource(best_effort_peak_bps, packet_size, seed=seed),
    )
    net.attach_source(
        "be2",
        ParetoOnOffSource(best_effort_peak_bps, packet_size, seed=seed + 1),
    )
    return net


def single_bottleneck_network(
    scheduler: str,
    n_flows: int,
    *,
    tagged_rate_bps: float = 32_000,
    background_rate_bps: float = WEIGHT_UNIT_BPS,
    link_bps: float = BOTTLENECK_BPS,
    packet_size: int = MTU,
    saturate: bool = True,
    seed: int = 1,
) -> Network:
    """One host, one bottleneck, one sink — for the delay-vs-N sweep (E4).

    A tagged CBR flow (``"tag"``) shares the bottleneck with ``n_flows``
    background CBR flows. With ``saturate`` the background flows send 15%
    above their reservation so the tagged flow's delay reflects scheduling,
    not idle capacity. The reserved total is checked against the link.
    """
    reserved = tagged_rate_bps + n_flows * background_rate_bps
    if reserved > link_bps:
        raise ConfigurationError(
            f"reservations {reserved} exceed link {link_bps} bps"
        )
    net = Network(default_scheduler="fifo")
    for name in ("src", "R", "dst"):
        net.add_node(name)
    net.add_link("src", "R", rate_bps=10 * link_bps, delay=0.0005)
    kw = _bottleneck_config(scheduler) if link_bps == BOTTLENECK_BPS else {}
    net.add_link("R", "dst", rate_bps=link_bps, delay=0.001,
                 scheduler=scheduler, scheduler_kwargs=kw)
    net.compute_routes()

    tag_weight = _flow_weight(scheduler, tagged_rate_bps, best_effort=False)
    net.add_flow("tag", "src", "dst", weight=tag_weight)
    net.attach_source("tag", CBRSource(tagged_rate_bps, packet_size))
    bg_weight = _flow_weight(
        scheduler, background_rate_bps, best_effort=False
    )
    overdrive = 1.15 if saturate else 1.0
    for i in range(n_flows):
        fid = f"bg{i}"
        net.add_flow(fid, "src", "dst", weight=bg_weight)
        net.attach_source(
            fid,
            CBRSource(background_rate_bps * overdrive, packet_size),
        )
    return net


def parking_lot_network(
    scheduler: str,
    hops: int = 3,
    *,
    tagged_rate_bps: float = 128_000,
    cross_flows_per_hop: int = 30,
    cross_rate_bps: float = WEIGHT_UNIT_BPS,
    link_bps: float = BOTTLENECK_BPS,
    packet_size: int = MTU,
    seed: int = 1,
) -> Network:
    """The classic parking-lot topology: one tagged flow crossing every
    hop, fresh cross traffic entering and leaving at each hop.

    R0 - R1 - ... - R<hops>; the tagged flow runs end to end while each
    hop carries its own set of single-hop cross flows (CBR at 15% above
    their reservation, so every bottleneck stays contended). This is the
    workload that exercises the end-to-end *composition* of per-node
    bounds (Corollary 1): the tagged flow pays each hop's scheduling
    latency in sequence.

    Flow ids: ``"tag"``, ``"x<h>_<i>"`` for cross flow i at hop h.
    """
    if hops < 1:
        raise ConfigurationError("need at least one hop")
    reserved = tagged_rate_bps + cross_flows_per_hop * cross_rate_bps
    if reserved > link_bps:
        raise ConfigurationError(
            f"per-hop reservations {reserved} exceed link {link_bps} bps"
        )
    net = Network(default_scheduler="fifo")
    routers = [f"R{i}" for i in range(hops + 1)]
    for name in routers:
        net.add_node(name)
    net.add_node("src")
    net.add_node("dst")
    net.add_link("src", routers[0], rate_bps=10 * link_bps, delay=0.0005)
    kw = _bottleneck_config(scheduler) if link_bps == BOTTLENECK_BPS else {}
    for a, b in zip(routers, routers[1:]):
        net.add_link(a, b, rate_bps=link_bps, delay=0.001,
                     scheduler=scheduler, scheduler_kwargs=kw)
    net.add_link(routers[-1], "dst", rate_bps=10 * link_bps, delay=0.0005)
    # Cross-traffic attachment points: one ingress/egress pair per hop.
    for h in range(hops):
        net.add_node(f"in{h}")
        net.add_node(f"out{h}")
        net.add_link(f"in{h}", routers[h], rate_bps=10 * link_bps,
                     delay=0.0005)
        net.add_link(routers[h + 1], f"out{h}", rate_bps=10 * link_bps,
                     delay=0.0005)
    net.compute_routes()

    tag_weight = _flow_weight(scheduler, tagged_rate_bps, best_effort=False)
    net.add_flow("tag", "src", "dst", weight=tag_weight)
    net.attach_source("tag", CBRSource(tagged_rate_bps, packet_size))
    cross_weight = _flow_weight(scheduler, cross_rate_bps, best_effort=False)
    for h in range(hops):
        for i in range(cross_flows_per_hop):
            fid = f"x{h}_{i}"
            net.add_flow(fid, f"in{h}", f"out{h}", weight=cross_weight)
            net.attach_source(
                fid, CBRSource(cross_rate_bps * 1.15, packet_size)
            )
    return net
