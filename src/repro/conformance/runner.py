"""Drive a :class:`~repro.conformance.scenario.Scenario` through one
scheduler variant, recording everything the oracles need.

A *variant* is a registry name plus constructor kwargs — the registry's
default configuration for every scheduler, plus non-default service modes
worth fuzzing separately (SRR's ``deficit`` mode). The slotted extensions
get a capacity large enough that any generated weight mix admits.

Livelock watchdog
-----------------
``dequeue()`` on a buggy scheduler can spin forever *inside one call*
(DRR's historical zero-credit rotate loop did exactly that), so wall-clock
timeouts or call counts cannot catch it. Every scheduler bumps its
:class:`~repro.core.opcount.OpCounter` once per elementary step of its
hot loop, so a counter that raises past a budget converts an unbounded
spin into a structured :class:`LivelockError` — which the conservation
oracle reports as a violation with the op that triggered it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import ReproError
from ..core.opcount import OpCounter
from ..schedulers import available_schedulers, create_scheduler
from ..core.packet import Packet
from .scenario import Scenario

__all__ = [
    "Variant",
    "VARIANTS",
    "variant_by_name",
    "LivelockError",
    "Departure",
    "ScenarioRun",
    "run_scenario",
]

#: Elementary-op *gap* allowed without a single departure. A livelocked
#: dequeue makes zero progress, so any gap budget catches it; an honest
#: run's worst inter-departure gap is bounded per packet (DRR at the
#: smallest generated fractional weight needs ~quantum/credit ≈ 10^4
#: rotate visits per packet, a few ops each), independent of scenario
#: length — the worst honest gap measured over 240 scenarios x all
#: variants is ~1.6x10^4 ops, so 10^6 gives ~60x headroom while keeping
#: livelocked runs cheap to detect.
OP_BUDGET = 1_000_000


class LivelockError(ReproError):
    """The scheduler burned the op-gap budget without serving a packet."""


class _BudgetedOpCounter(OpCounter):
    """OpCounter that raises when ``budget`` bumps pass with no progress.

    :meth:`mark_progress` resets the gap; :func:`run_scenario` calls it
    after every departure, so the budget bounds work-per-packet rather
    than work-per-run (which would scale with scenario size).
    """

    __slots__ = ("budget", "_last_progress")

    def __init__(self, budget: int = OP_BUDGET) -> None:
        super().__init__()
        self.budget = budget
        self._last_progress = 0

    def mark_progress(self) -> None:
        self._last_progress = self.count

    def bump(self, n: int = 1) -> None:
        self.count += n
        if self.count - self._last_progress > self.budget:
            raise LivelockError(
                f"scheduler burned {self.budget} elementary ops without "
                f"serving a packet — dequeue() is spinning without "
                f"making progress"
            )


@dataclass(frozen=True)
class Variant:
    """A named scheduler configuration the fuzzer drives."""

    name: str                     # display name, e.g. "srr:deficit"
    scheduler: str                # registry name
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: Whether this variant receives ``FlowDef.frac_weight`` (real-weight
    #: disciplines) or ``FlowDef.weight`` (integer/slot-coded ones).
    fractional: bool = False

    def flow_weight(self, flow) -> Any:
        return flow.frac_weight if self.fractional else flow.weight


def _build_variants() -> Tuple[Variant, ...]:
    fractional = {"drr", "wfq", "wf2q+", "scfq", "stfq", "vc", "strr"}
    # Slot capacities large enough for any generated weight sum (8 flows
    # at weight <= 64); small enough that frame-based lag bounds bite.
    special_kwargs: Dict[str, Tuple[Tuple[str, Any], ...]] = {
        "rrr": (("capacity", 1024),),
        "g3": (("capacity", 1023),),
    }
    variants = [
        Variant(
            name=name,
            scheduler=name,
            kwargs=special_kwargs.get(name, ()),
            fractional=name in fractional,
        )
        for name in available_schedulers()
    ]
    variants.append(
        Variant(name="srr:deficit", scheduler="srr",
                kwargs=(("mode", "deficit"),), fractional=False)
    )
    return tuple(sorted(variants, key=lambda v: v.name))


#: Every scheduler in the registry (extensions included) plus extra
#: service-mode variants, materialised lazily so importing this module
#: does not force the extension registry.
_VARIANTS_CACHE: Optional[Tuple[Variant, ...]] = None


def VARIANTS() -> Tuple[Variant, ...]:
    global _VARIANTS_CACHE
    if _VARIANTS_CACHE is None:
        _VARIANTS_CACHE = _build_variants()
    return _VARIANTS_CACHE


def variant_by_name(name: str) -> Variant:
    for v in VARIANTS():
        if v.name == name:
            return v
    from ..core.errors import ConfigurationError

    raise ConfigurationError(
        f"unknown variant {name!r}; available: "
        f"{[v.name for v in VARIANTS()]}"
    )


@dataclass(frozen=True)
class Departure:
    """One dequeued packet, reduced to what the oracles compare."""

    flow_index: int
    size: int
    uid: int


@dataclass
class ScenarioRun:
    """Everything observed while executing one (variant, scenario) pair."""

    variant: str
    departures: List[Departure] = field(default_factory=list)
    #: Departure-list index at which the final drain began.
    final_drain_start: int = 0
    #: Per-flow backlog bytes/packets at the start of the final drain.
    drain_backlog_bytes: Dict[int, int] = field(default_factory=dict)
    drain_backlog_packets: Dict[int, int] = field(default_factory=dict)
    #: Accounting over the whole run.
    accepted_uids: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    # uid -> (flow_index, size) of every packet the scheduler accepted
    accepted_bytes: int = 0
    dropped_bytes: int = 0          # discarded by leave (remove_flow)
    dequeued_bytes: int = 0
    #: Work-conservation breach: dequeue() returned None with backlog > 0.
    idle_with_backlog: Optional[int] = None   # op index, if it happened
    #: Livelock watchdog trip (op index), if it happened.
    livelock_at: Optional[int] = None
    #: Residual backlog the scheduler *reports* after the final drain.
    residual_backlog_packets: int = 0
    residual_backlog_bytes: int = 0
    #: Elementary scheduler ops the whole run consumed (budget telemetry).
    ops_used: int = 0

    def order_key(self) -> Tuple[Tuple[int, int], ...]:
        """The service order as comparable (flow_index, size) pairs."""
        return tuple((d.flow_index, d.size) for d in self.departures)


def run_scenario(
    variant: Variant,
    scenario: Scenario,
    *,
    op_budget: int = OP_BUDGET,
) -> ScenarioRun:
    """Execute ``scenario`` on ``variant``; never raises on scheduler
    misbehaviour — watchdog trips and conservation breaches are recorded
    in the returned :class:`ScenarioRun` for the oracles to judge."""
    ops_counter = _BudgetedOpCounter(op_budget)
    quantum_kwargs = {}
    if variant.scheduler in ("drr", "srr"):
        quantum_kwargs["quantum"] = scenario.quantum
    sched = create_scheduler(
        variant.scheduler,
        op_counter=ops_counter,
        **dict(variant.kwargs),
        **quantum_kwargs,
    )
    run = ScenarioRun(variant=variant.name)
    index = {f.flow_id: i for i, f in enumerate(scenario.flows)}
    registered: Dict[int, bool] = {}
    for i, flow in enumerate(scenario.flows):
        sched.add_flow(flow.flow_id, variant.flow_weight(flow))
        registered[i] = True

    def one_dequeue(op_i: int) -> Optional[Packet]:
        try:
            packet = sched.dequeue()
        except LivelockError:
            run.livelock_at = op_i
            return None
        if packet is not None:
            fi = index[packet.flow_id]
            run.departures.append(Departure(fi, packet.size, packet.uid))
            run.dequeued_bytes += packet.size
            ops_counter.mark_progress()
        elif sched.backlog > 0 and run.idle_with_backlog is None:
            run.idle_with_backlog = op_i
        return packet

    def drain(op_i: int) -> None:
        while sched.backlog > 0:
            if one_dequeue(op_i) is None:
                return  # livelock or work-conservation breach; recorded

    for op_i, op in enumerate(scenario.ops):
        if run.livelock_at is not None:
            break
        kind = op[0]
        if kind == "enq":
            _, fi, size = op
            if not registered.get(fi):
                continue
            flow = scenario.flows[fi]
            packet = Packet(flow.flow_id, size)
            try:
                accepted = sched.enqueue(packet)
            except LivelockError:
                run.livelock_at = op_i
                break
            if accepted:
                run.accepted_uids[packet.uid] = (fi, size)
                run.accepted_bytes += size
        elif kind == "deq":
            one_dequeue(op_i)
        elif kind == "drain":
            drain(op_i)
        elif kind == "leave":
            fi = op[1]
            if registered.get(fi):
                flow_state = sched.flow_state(scenario.flows[fi].flow_id)
                run.dropped_bytes += flow_state.backlog_bytes
                for p in flow_state.queue:
                    run.accepted_uids.pop(p.uid, None)
                sched.remove_flow(scenario.flows[fi].flow_id)
                registered[fi] = False
        elif kind == "join":
            fi = op[1]
            if not registered.get(fi):
                flow = scenario.flows[fi]
                sched.add_flow(flow.flow_id, variant.flow_weight(flow))
                registered[fi] = True
        else:  # pragma: no cover - generator never emits unknown kinds
            raise AssertionError(f"unknown op kind {kind!r}")

    # Final drain (the lag oracle's observation window).
    run.final_drain_start = len(run.departures)
    if run.livelock_at is None:
        for i, flow in enumerate(scenario.flows):
            if registered.get(i):
                state = sched.flow_state(flow.flow_id)
                run.drain_backlog_bytes[i] = state.backlog_bytes
                run.drain_backlog_packets[i] = len(state.queue)
        drain(len(scenario.ops))
    run.residual_backlog_packets = sched.backlog
    run.residual_backlog_bytes = sched.backlog_bytes
    run.ops_used = ops_counter.count
    return run
