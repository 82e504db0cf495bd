"""The oracle families of the conformance fuzzer.

1. **Conservation laws** — properties every work-conserving packet
   scheduler must satisfy on any input: no livelock (progress per
   ``dequeue``), no idling with backlog, no service to flows with nothing
   queued (phantom packets), per-flow FIFO order, and exact byte
   accounting (accepted = dequeued + churn-dropped + residual, with zero
   residual after a full drain).

2. **Fluid-reference lag** — over the scenario's final drain (constant
   membership, no arrivals) each flow's cumulative service is compared to
   the GPS/weighted-fluid ideal computed by exact waterfilling over the
   same departure sequence. The maximum per-flow lag behind the fluid
   must stay under the discipline's analytic bound (SRR Lemma 2's
   one-round spread, the DRR frame bound of Stiliadis-Varma — the family
   Tabatabaee & Le Boudec's network-calculus analyses tightened — and the
   Parekh-Gallager constant for WFQ), expressed in the discipline's
   native service unit: *bytes* for byte-credit and timestamp schedulers,
   *packets* for the per-packet round-robin family. Virtual Clock is
   exempt: punishing a previously over-served flow without bound is its
   documented design, not a bug. FIFO is exempt because it provides no
   isolation at all (that is its point).

3. **Metamorphic invariances** — transformed replays that must agree
   with the original run: flow-ID relabeling (bit-identical service
   order), uniform weight doubling (bit-identical for normalised-share
   disciplines, bound-equivalent for frame-based ones). ``--jobs 1`` vs
   ``--jobs N`` identity is checked one level up, by the CLI, over result
   digests.

4. **Delay-bound certification** (opt-in, ``--bounds``) — the scenario's
   flows replayed on a derived bottleneck network, each flow's worst
   delivery delay checked against its network-calculus bound.

Bound constants carry a deliberate safety factor (they are upper
envelopes, not tight constants); the tuning notes next to each formula
record the maximum ratio observed across large randomized sweeps, so
future tightening has data to lean on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from ..core.errors import ConfigurationError
from .runner import (
    OP_BUDGET,
    ScenarioRun,
    Variant,
    run_scenario,
    variant_by_name,
)
from .scenario import FlowDef, Scenario

__all__ = [
    "DEFAULT_FAMILIES",
    "Violation",
    "bounds_certification_run",
    "check_bounds",
    "check_conservation",
    "check_fluid_lag",
    "check_metamorphic",
    "check_scenario",
    "families_to_recheck",
    "fluid_lag",
    "lag_bound",
]

#: The families every check runs; ``bounds`` is opt-in.
DEFAULT_FAMILIES: Tuple[str, ...] = ("conservation", "lag", "metamorphic")


@dataclass(frozen=True)
class Violation:
    """One oracle failure, structured for artifacts and shrinking."""

    family: str          # "conservation" | "lag" | "metamorphic" | "bounds"
    check: str           # specific oracle, e.g. "livelock", "fifo_order"
    variant: str
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "family": self.family,
            "check": self.check,
            "variant": self.variant,
            "message": self.message,
            "details": {k: repr(v) for k, v in self.details.items()},
        }


# ---------------------------------------------------------------------------
# Family 1: conservation laws
# ---------------------------------------------------------------------------

def check_conservation(
    variant: Variant, scenario: Scenario, run: ScenarioRun
) -> List[Violation]:
    out: List[Violation] = []

    def fail(check: str, message: str, **details: Any) -> None:
        out.append(Violation("conservation", check, variant.name,
                             message, details))

    if run.livelock_at is not None:
        fail(
            "livelock",
            f"dequeue() exceeded the op budget at op {run.livelock_at} "
            f"while backlog remained",
            op=run.livelock_at,
        )
        return out  # the run is truncated; downstream numbers are moot
    if run.idle_with_backlog is not None:
        fail(
            "work_conservation",
            f"dequeue() returned None with backlog > 0 at op "
            f"{run.idle_with_backlog}",
            op=run.idle_with_backlog,
        )
    # Phantom / duplicated service and per-flow FIFO order.
    served: Dict[int, int] = {}
    last_uid_by_flow: Dict[int, int] = {}
    for dep in run.departures:
        served[dep.uid] = served.get(dep.uid, 0) + 1
        expected = run.accepted_uids.get(dep.uid)
        if expected is None:
            fail(
                "phantom_service",
                f"departed packet uid={dep.uid} (flow index "
                f"{dep.flow_index}) was never accepted by the scheduler "
                f"(or belonged to a removed flow)",
                uid=dep.uid,
            )
            continue
        if expected != (dep.flow_index, dep.size):
            fail(
                "identity",
                f"departed packet uid={dep.uid} mutated: accepted as "
                f"{expected}, departed as {(dep.flow_index, dep.size)}",
                uid=dep.uid,
            )
        prev = last_uid_by_flow.get(dep.flow_index)
        if prev is not None and dep.uid < prev:
            fail(
                "fifo_order",
                f"flow index {dep.flow_index} served uid={dep.uid} after "
                f"uid={prev} (uids are per-flow monotone in enqueue order)",
                flow=dep.flow_index,
            )
        last_uid_by_flow[dep.flow_index] = dep.uid
    dupes = {uid: n for uid, n in served.items() if n > 1}
    if dupes:
        fail(
            "duplicate_service",
            f"{len(dupes)} packet uid(s) departed more than once",
            uids=sorted(dupes)[:8],
        )
    # Byte conservation over the whole run.
    expected_bytes = run.dequeued_bytes + run.dropped_bytes \
        + run.residual_backlog_bytes
    if run.accepted_bytes != expected_bytes:
        fail(
            "byte_conservation",
            f"accepted {run.accepted_bytes}B != dequeued "
            f"{run.dequeued_bytes}B + churn-dropped {run.dropped_bytes}B "
            f"+ residual {run.residual_backlog_bytes}B",
        )
    if run.residual_backlog_packets or run.residual_backlog_bytes:
        fail(
            "drain_residual",
            f"scheduler reports backlog "
            f"{run.residual_backlog_packets}p/"
            f"{run.residual_backlog_bytes}B after a full drain",
        )
    if run.residual_backlog_packets < 0 or run.residual_backlog_bytes < 0:
        fail("negative_backlog", "backlog accounting went negative")
    return out


# ---------------------------------------------------------------------------
# Family 2: fluid-reference lag
# ---------------------------------------------------------------------------

#: Variants measured in packets (per-packet round robin) vs bytes
#: (byte-credit / timestamp). Absent => exempt from the lag oracle.
_LAG_UNIT: Dict[str, str] = {
    "srr": "packets",
    "wrr": "packets",
    "iwrr": "packets",
    "rr": "packets",
    "rrr": "packets",
    "g3": "packets",
    "srr:deficit": "bytes",
    "drr": "bytes",
    "wfq": "bytes",
    "wf2q+": "bytes",
    "scfq": "bytes",
    "stfq": "bytes",
    "strr": "bytes",
    # "vc": exempt — unbounded punishment of previously over-served
    #        flows is Virtual Clock's documented behaviour.
    # "fifo": exempt — provides no isolation by design.
}


def _lag_weights(
    variant: Variant, scenario: Scenario, unit: str
) -> Dict[int, float]:
    """Per-flow-index fluid weights in the variant's service unit."""
    weights: Dict[int, float] = {}
    for i, flow in enumerate(scenario.flows):
        if variant.name == "rr":
            weights[i] = 1.0
        elif unit == "packets":
            weights[i] = float(flow.weight)
        else:
            weights[i] = float(variant.flow_weight(flow))
    return weights


def fluid_lag(
    run: ScenarioRun, weights: Dict[int, float], unit: str
) -> Dict[int, float]:
    """Max per-flow lag behind the GPS fluid over the final drain.

    The fluid reference is exact waterfilling: the drain-start backlogs
    are served at rates proportional to ``weights`` among flows whose
    fluid backlog is still positive, and the fluid system is advanced by
    exactly the work each real departure transmits (its size in bytes, or
    one packet). Lag_i(t) = fluid_served_i(t) - real_served_i(t); flows
    *ahead* of the fluid contribute zero.
    """
    backlog = dict(
        run.drain_backlog_bytes if unit == "bytes"
        else run.drain_backlog_packets
    )
    fluid_remaining = {
        i: float(b) for i, b in backlog.items() if b > 0 and weights.get(i)
    }
    fluid_served = {i: 0.0 for i in fluid_remaining}
    real_served = {i: 0.0 for i in fluid_remaining}
    max_lag = {i: 0.0 for i in fluid_remaining}
    for dep in run.departures[run.final_drain_start:]:
        work = float(dep.size if unit == "bytes" else 1)
        # Advance the fluid by `work` units (waterfilling).
        while work > 1e-12 and fluid_remaining:
            active_w = sum(weights[i] for i in fluid_remaining)
            # Work needed to drain the nearest-exhaustion flow.
            limit = min(
                fluid_remaining[i] * active_w / weights[i]
                for i in fluid_remaining
            )
            step = min(work, limit)
            drained = []
            for i in list(fluid_remaining):
                share = step * weights[i] / active_w
                fluid_served[i] += share
                fluid_remaining[i] -= share
                if fluid_remaining[i] <= 1e-9:
                    drained.append(i)
            for i in drained:
                del fluid_remaining[i]
            work -= step
        if dep.flow_index in real_served:
            real_served[dep.flow_index] += (
                dep.size if unit == "bytes" else 1
            )
        for i in max_lag:
            lag = fluid_served[i] - real_served[i]
            if lag > max_lag[i]:
                max_lag[i] = lag
    return max_lag


def lag_bound(
    variant: Variant,
    scenario: Scenario,
    weights: Dict[int, float],
    flow_index: int,
    unit: str,
) -> float:
    """Analytic lag envelope for one flow, in the variant's service unit.

    Formulas follow the per-discipline service-curve results (see
    :mod:`repro.analysis.bounds` for the delay-domain versions) with the
    time axis replaced by transmitted work, plus a small discreteness
    slack: one extra max-packet/frame term absorbs the arbitrary phase at
    which the drain starts, and SRR's restart-on-order-change policy can
    perturb one extra round per order change (at most one per drained
    flow), hence the ``n`` factor on its round term.
    """
    total_w = sum(weights.values())
    w = weights[flow_index]
    n = len(weights)
    name = variant.name
    if unit == "packets":
        if name == "rr":
            return float(2 * n + 2)
        if name == "wrr":
            # One full frame (sum of bursts) + one re-entry frame.
            return 2.0 * total_w + 2.0
        if name == "iwrr":
            # Interleaving spreads the frame's bursts, so WRR's envelope
            # is an upper bound for IWRR too (round swaps can reorder
            # which cycle a flow lands in, but never add frames).
            return 2.0 * total_w + 2.0
        if name == "srr":
            # One WSS round per order change (restart policy, at most one
            # change per drained flow) + one round of spread slack.
            return (n + 1.0) * w + total_w + 2.0
        # rrr / g3: slot rounds; each set bit recurs with its own period,
        # so within one capacity round service is exact. Two rounds of
        # the *active* slot weight + per-bit slack.
        return 2.0 * total_w + 16.0
    # bytes
    L = float(scenario.max_packet or 1500)
    if name in ("drr", "srr:deficit"):
        frame = total_w * scenario.quantum
        # Stiliadis-Varma latency (3F - 2phi)/C in service units, plus a
        # packet of store-and-forward slack.
        return 3.0 * frame + 2.0 * L
    if name in ("wfq", "wf2q+"):
        # Parekh-Gallager: PGPS service trails GPS by at most one max
        # packet; doubled again for the discrete drain-start phase.
        return 4.0 * L
    if name == "scfq":
        # Golestani: up to one max packet per competing flow.
        return (n + 1.0) * L + 2.0 * L
    if name == "stfq":
        return (n + 1.0) * L + 2.0 * L
    if name == "strr":
        # Stratified RR: intra-class DRR rounds + inter-class slack; the
        # stratification quantises shares to powers of two, so allow one
        # stratum (x2) of deviation on the frame term.
        return 4.0 * (n + 1.0) * L + 2.0 * total_w
    raise AssertionError(f"no lag bound for variant {name!r}")


def check_fluid_lag(
    variant: Variant, scenario: Scenario, run: ScenarioRun
) -> List[Violation]:
    unit = _LAG_UNIT.get(variant.name)
    if unit is None or run.livelock_at is not None:
        return []
    weights = _lag_weights(variant, scenario, unit)
    lags = fluid_lag(run, weights, unit)
    out: List[Violation] = []
    for i, lag in sorted(lags.items()):
        bound = lag_bound(variant, scenario, weights, i, unit)
        if lag > bound:
            out.append(Violation(
                "lag",
                "fluid_lag",
                variant.name,
                f"flow {scenario.flows[i].flow_id!r} lagged the weighted "
                f"fluid by {lag:.1f} {unit} over the final drain; the "
                f"{variant.name} bound is {bound:.1f} {unit}",
                {"flow_index": i, "lag": lag, "bound": bound,
                 "unit": unit},
            ))
    return out


# ---------------------------------------------------------------------------
# Family 3: metamorphic invariances
# ---------------------------------------------------------------------------

#: Variants whose service order is exactly invariant under uniform weight
#: doubling (normalised-share disciplines: stamps scale by exactly 1/2,
#: a lossless float operation, and comparisons are unchanged). The
#: frame-based disciplines change their burst structure under scaling and
#: are checked as bound-equivalent instead.
_SCALE_EXACT = {"wfq", "wf2q+", "scfq", "stfq", "vc", "strr", "rr", "fifo"}


def _relabeled(scenario: Scenario) -> Scenario:
    flows = tuple(
        FlowDef(f"relabel-{9 - i}-{f.flow_id}", f.weight, f.frac_weight)
        for i, f in enumerate(scenario.flows)
    )
    return Scenario(scenario.seed, flows, scenario.ops, scenario.quantum)


def _scaled(scenario: Scenario) -> Scenario:
    return scenario.with_weights(
        [f.weight * 2 for f in scenario.flows],
        [f.frac_weight * 2 for f in scenario.flows],
    )


def check_metamorphic(
    variant: Variant,
    scenario: Scenario,
    run: ScenarioRun,
    *,
    op_budget: int = OP_BUDGET,
) -> List[Violation]:
    if run.livelock_at is not None:
        return []  # conservation already failed; replays would too
    out: List[Violation] = []

    # Relabeling: flow identity must be opaque — the service order over
    # flow *indices* must be bit-identical.
    relabel_run = run_scenario(variant, _relabeled(scenario),
                               op_budget=op_budget)
    if relabel_run.order_key() != run.order_key():
        diverge = _first_divergence(run, relabel_run)
        out.append(Violation(
            "metamorphic",
            "relabel",
            variant.name,
            f"service order changed under flow-ID relabeling "
            f"(first divergence at departure {diverge})",
            {"departure": diverge},
        ))

    # Uniform weight doubling.
    scaled = _scaled(scenario)
    if max(f.weight for f in scenario.flows) * 2 <= 1 << 62:
        scaled_run = run_scenario(variant, scaled, op_budget=op_budget)
        if variant.name in _SCALE_EXACT:
            if scaled_run.order_key() != run.order_key():
                diverge = _first_divergence(run, scaled_run)
                out.append(Violation(
                    "metamorphic",
                    "weight_scale",
                    variant.name,
                    f"service order changed under uniform weight x2 "
                    f"(normalised-share discipline; first divergence at "
                    f"departure {diverge})",
                    {"departure": diverge},
                ))
        else:
            # Bound-equivalent: the scaled run must itself satisfy the
            # conservation and lag oracles (against its scaled bounds),
            # and — absent churn drops, which are order-dependent — must
            # serve the identical per-flow packet multiset.
            for v in check_conservation(variant, scaled, scaled_run):
                out.append(Violation(
                    "metamorphic", f"weight_scale/{v.check}", variant.name,
                    f"scaled replay broke conservation: {v.message}",
                    v.details,
                ))
            for v in check_fluid_lag(variant, scaled, scaled_run):
                out.append(Violation(
                    "metamorphic", "weight_scale/lag", variant.name,
                    f"scaled replay broke its lag bound: {v.message}",
                    v.details,
                ))
            if not any(op[0] == "leave" for op in scenario.ops):
                if _served_multisets(run) != _served_multisets(scaled_run):
                    out.append(Violation(
                        "metamorphic",
                        "weight_scale/multiset",
                        variant.name,
                        "per-flow served packet multisets changed under "
                        "uniform weight x2 (no churn drops to excuse it)",
                    ))
    return out


def _served_multisets(run: ScenarioRun) -> Dict[int, Tuple[int, ...]]:
    by_flow: Dict[int, List[int]] = {}
    for dep in run.departures:
        by_flow.setdefault(dep.flow_index, []).append(dep.size)
    return {i: tuple(sorted(sizes)) for i, sizes in by_flow.items()}


def _first_divergence(a: ScenarioRun, b: ScenarioRun) -> int:
    ka, kb = a.order_key(), b.order_key()
    for i, (x, y) in enumerate(zip(ka, kb)):
        if x != y:
            return i
    return min(len(ka), len(kb))


# ---------------------------------------------------------------------------
# Family 4: network-calculus delay-bound certification
# ---------------------------------------------------------------------------

#: Disciplines with a certified service curve (repro.analysis.netcalc).
_BOUNDS_DISCIPLINES = ("srr", "drr", "wrr", "iwrr")

#: Derived-network parameters for the certification run. The sources are
#: *conformant* (aggregate demand = utilization * link), because the
#: delay bound is a statement about flows inside their reservation —
#: overload delay is the admission plane's problem, not the scheduler's.
_BOUNDS_LINK_BPS = 2_000_000.0
_BOUNDS_PROP_DELAY_S = 0.001
_BOUNDS_UTILIZATION = 0.6
_BOUNDS_HORIZON_S = 0.4


def bounds_certification_run(
    discipline: str,
    flow_weights: Sequence[Tuple[Any, float]],
    *,
    link_bps: float = _BOUNDS_LINK_BPS,
    prop_delay_s: float = _BOUNDS_PROP_DELAY_S,
    packet_size: int = 250,
    utilization: float = _BOUNDS_UTILIZATION,
    horizon_s: float = _BOUNDS_HORIZON_S,
    quantum: int = 1500,
    op_budget: int = 2_000_000,
) -> List[Dict[str, Any]]:
    """Drive conformant CBR flows through a bottleneck; certify delays.

    Builds a two-node bottleneck network, computes each flow's
    network-calculus delay bound (token-bucket arrival through the
    discipline's strict service curve, plus propagation), runs the
    simulation, and returns one record per flow with the certified bound
    and the worst observed delivery delay. Shared by the ``bounds``
    conformance oracle (which turns ``observed > bound`` into a
    violation) and experiment E16 (which reports the observed/certified
    tightness ratio).

    Each source sends at ``utilization`` of its reserved share, so every
    arrival is ``(L, rho_i)``-constrained and the bound applies; packet
    sizes are uniform (the curves' fixed-``L`` model).
    """
    from ..analysis.netcalc import TokenBucket, delay_bound, service_curve
    from ..net.scenario import Network
    from ..net.sources import CBRSource
    from .runner import _BudgetedOpCounter

    if not flow_weights:
        raise ConfigurationError("need at least one flow to certify")
    weights = [float(w) for _, w in flow_weights]
    total_w = sum(weights)
    kwargs: Dict[str, Any] = {"op_counter": _BudgetedOpCounter(op_budget)}
    if discipline in ("drr", "srr"):
        kwargs["quantum"] = quantum
    net = Network(
        default_scheduler=discipline,
        default_scheduler_kwargs=kwargs,
    )
    net.add_node("src")
    net.add_node("dst")
    net.add_link("src", "dst", link_bps, delay=prop_delay_s)
    worst: Dict[Any, float] = {}
    delivered: Dict[Any, int] = {}

    def on_delivery(p) -> None:
        delay = p.delivered_at - p.created_at
        if delay > worst.get(p.flow_id, -1.0):
            worst[p.flow_id] = delay
        delivered[p.flow_id] = delivered.get(p.flow_id, 0) + 1

    net.sinks.add_listener(on_delivery)
    records: List[Dict[str, Any]] = []
    for (flow_id, weight), w in zip(flow_weights, weights):
        curve = service_curve(
            discipline, weight=w, weights=weights,
            packet_size=packet_size, link_rate_bps=link_bps,
            quantum=quantum,
        )
        rho = utilization * curve.rate_bps
        arrival = TokenBucket(sigma_bytes=packet_size, rho_bps=rho)
        bound = delay_bound(arrival, curve) + prop_delay_s
        # The integer-coded disciplines validate weight *types*, not just
        # values — register them with the exact ints the curve used.
        reg_weight: float = w if discipline == "drr" else int(w)
        net.add_flow(flow_id, "src", "dst", reg_weight)
        # Stop emissions early enough that the backlog drains inside the
        # horizon — undelivered packets would escape certification.
        net.attach_source(
            flow_id,
            CBRSource(rho, packet_size, stop_at=0.6 * horizon_s),
        )
        records.append({
            "flow_id": flow_id,
            "weight": w,
            "share": w / total_w,
            "rate_bps": curve.rate_bps,
            "latency_s": curve.latency_s,
            "bound_s": bound,
        })
    net.run(until=horizon_s)
    for rec in records:
        fid = rec["flow_id"]
        rec["observed_s"] = worst.get(fid)
        rec["delivered"] = delivered.get(fid, 0)
        rec["ratio"] = (
            worst[fid] / rec["bound_s"] if fid in worst else None
        )
    return records


def check_bounds(variant: Variant, scenario: Scenario) -> List[Violation]:
    """Certify observed delays against network-calculus bounds.

    The scheduler-level op script has no clock, so this lifts the
    scenario's flows and weights onto a derived bottleneck network,
    computes each flow's closed-form delay bound from
    :mod:`repro.analysis.netcalc`, and fails if any delivered packet
    exceeded it. Only disciplines with a certified service curve
    participate; every other variant is exempt (not silently passed —
    the family simply does not apply).
    """
    from .runner import LivelockError

    if variant.scheduler not in _BOUNDS_DISCIPLINES:
        return []

    def bounds_weight(f: FlowDef) -> float:
        # Extreme fractional weights (1e-4 -> ~10^4 scheduler visits per
        # packet) make honest runs dominate the fuzz budget without
        # exercising anything new in the curve math (the generic DRR
        # latency covers the sub-packet-quantum regime analytically), so
        # floor them.
        if variant.fractional:
            return max(float(f.frac_weight), 0.05)
        return float(f.weight)

    flows = scenario.flows[:4] or (FlowDef("f0", 1, 1.0),)
    flow_weights = [(f.flow_id, bounds_weight(f)) for f in flows]
    try:
        records = bounds_certification_run(
            variant.scheduler, flow_weights, quantum=scenario.quantum,
        )
    except LivelockError:
        return [Violation(
            "bounds",
            "bounds_livelock",
            variant.name,
            "scheduler livelocked inside the bounds certification replay",
        )]
    out: List[Violation] = []
    for rec in records:
        observed = rec["observed_s"]
        if observed is None:
            # A conformant CBR source always emits its first packet at
            # t=0, so zero deliveries inside the horizon means the flow
            # was starved outright — never "certified by silence".
            out.append(Violation(
                "bounds",
                "no_service",
                variant.name,
                f"flow {rec['flow_id']!r} delivered no packets inside "
                f"the certification horizon despite a conformant source",
                {"flow_id": rec["flow_id"]},
            ))
        elif observed > rec["bound_s"] + 1e-9:
            out.append(Violation(
                "bounds",
                "delay_bound",
                variant.name,
                f"flow {rec['flow_id']!r} observed delay "
                f"{observed * 1e3:.3f} ms exceeds the certified "
                f"network-calculus bound {rec['bound_s'] * 1e3:.3f} ms",
                {"flow_id": rec["flow_id"], "observed_s": observed,
                 "bound_s": rec["bound_s"]},
            ))
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def families_to_recheck(recorded: Iterable[str]) -> Tuple[str, ...]:
    """The families that re-check a recorded failure.

    ``recorded`` names the families of the recorded violations. The
    result is :data:`DEFAULT_FAMILIES` plus every other family named
    there, so a failure only an opt-in family sees (``bounds``) is
    re-checked by that family when it is shrunk or replayed.
    """
    extra = sorted(set(recorded) - set(DEFAULT_FAMILIES))
    return DEFAULT_FAMILIES + tuple(extra)


def check_scenario(
    variant: Variant,
    scenario: Scenario,
    *,
    families: Sequence[str] = DEFAULT_FAMILIES,
    run: Optional[ScenarioRun] = None,
    op_budget: int = OP_BUDGET,
) -> List[Violation]:
    """Run one scenario through one variant and every requested oracle.

    ``run`` lets callers that already executed the scenario (e.g. for a
    determinism digest) skip the duplicate base run; ``op_budget`` sets
    the livelock watchdog's no-progress gap for every run performed here
    (the shrinker lowers it so livelocked candidates stay cheap).
    """
    if run is None:
        run = run_scenario(variant, scenario, op_budget=op_budget)
    out: List[Violation] = []
    if "conservation" in families:
        out.extend(check_conservation(variant, scenario, run))
    if "lag" in families:
        out.extend(check_fluid_lag(variant, scenario, run))
    if "metamorphic" in families:
        out.extend(check_metamorphic(variant, scenario, run,
                                     op_budget=op_budget))
    if "bounds" in families and run.livelock_at is None:
        out.extend(check_bounds(variant, scenario))
    return out
