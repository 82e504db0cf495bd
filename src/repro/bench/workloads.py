"""Scheduler-level workload builders shared by experiments and benches.

These exercise schedulers *directly* (no network simulator): fill queues,
pull the service order, count operations. Network-level scenarios live in
:mod:`repro.bench.scenarios`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..core.interfaces import PacketScheduler
from ..core.opcount import OpCounter
from ..core.packet import Packet
from ..obs.metrics import NULL_REGISTRY, MetricsRegistry
from ..obs.profile import DequeueProfiler
from ..schedulers.registry import create_scheduler

__all__ = [
    "build_loaded_scheduler",
    "service_sequence",
    "ops_per_packet",
    "ops_profile",
    "geometric_weights",
    "uniform_weights",
]


def geometric_weights(n_flows: int, max_exponent: int = 6) -> Dict[int, int]:
    """``n_flows`` flows with weights cycling 1, 2, 4, ..., 2^max_exponent.

    A representative multi-service mix: many low-rate flows, a few heavy
    ones, exercising every weight-matrix column.
    """
    return {i: 1 << (i % (max_exponent + 1)) for i in range(n_flows)}


def uniform_weights(n_flows: int, weight: int = 1) -> Dict[int, int]:
    """``n_flows`` equal-weight flows."""
    return {i: weight for i in range(n_flows)}


def build_loaded_scheduler(
    name: str,
    weights: Dict[Hashable, float],
    packets_per_flow: int,
    *,
    packet_size: int = 200,
    op_counter: Optional[OpCounter] = None,
    **scheduler_kwargs,
) -> PacketScheduler:
    """Create a scheduler with every flow registered and backlogged."""
    kwargs = dict(scheduler_kwargs)
    if op_counter is not None:
        kwargs["op_counter"] = op_counter
    sched = create_scheduler(name, **kwargs)
    for fid, weight in weights.items():
        sched.add_flow(fid, weight)
    for fid in weights:
        for seq in range(packets_per_flow):
            sched.enqueue(Packet(fid, packet_size, seq=seq))
    return sched


def service_sequence(
    sched: PacketScheduler, count: int
) -> List[Hashable]:
    """Dequeue ``count`` packets and return the flow-id order."""
    out: List[Hashable] = []
    for _ in range(count):
        packet = sched.dequeue()
        if packet is None:
            break
        out.append(packet.flow_id)
    return out


def ops_profile(
    name: str,
    n_flows: int,
    *,
    weights: Optional[Dict[Hashable, float]] = None,
    packets_per_flow: int = 4,
    measure: int = 2000,
    registry: MetricsRegistry = NULL_REGISTRY,
    **scheduler_kwargs,
) -> Dict[str, float]:
    """Elementary-operation profile of ``dequeue`` at size N.

    The E5 measurement: flows are saturated, the counter is reset, and
    ``measure`` packets are pulled — each decision profiled individually
    (:class:`~repro.obs.profile.DequeueProfiler`). Returns the per-dequeue
    distribution (``mean_ops``/``p50_ops``/``p90_ops``/``p99_ops``/
    ``worst_ops``, plus ``p99_scan_terms``/``worst_scan_terms`` for
    SRR-family schedulers) and the raw ``total_ops``/``served`` counters.
    Pass a real ``registry`` to also capture the distributions as
    mergeable ``dequeue_ops``/``wss_terms`` histograms labeled
    ``{scheduler, n}``.
    """
    ops = OpCounter()
    flow_weights = weights or uniform_weights(n_flows)
    sched = build_loaded_scheduler(
        name,
        flow_weights,
        packets_per_flow,
        op_counter=ops,
        **scheduler_kwargs,
    )
    ops.reset()
    profiler = DequeueProfiler(
        sched, ops, registry=registry, scheduler=name, n=n_flows
    )
    profiler.pull(min(measure, n_flows * packets_per_flow))
    return profiler.summary()


def ops_per_packet(
    name: str,
    n_flows: int,
    *,
    weights: Optional[Dict[Hashable, float]] = None,
    packets_per_flow: int = 4,
    measure: int = 2000,
    **scheduler_kwargs,
) -> Tuple[float, int]:
    """(mean, worst) elementary operations per ``dequeue`` at size N."""
    profile = ops_profile(
        name,
        n_flows,
        weights=weights,
        packets_per_flow=packets_per_flow,
        measure=measure,
        **scheduler_kwargs,
    )
    return (profile["mean_ops"], int(profile["worst_ops"]))
