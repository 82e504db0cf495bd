"""Per-flow SLO watchdog: delivered delay vs the quoted bound.

The admission controller quotes a worst-case delay bound at reservation
time; nothing at runtime checked it until now. :class:`SLOWatchdog`
subscribes to the network's :class:`~repro.net.sinks.SinkRegistry` and
compares every delivered packet's end-to-end delay against the target
registered for its flow, raising (or recording, mode ``"record"``) a
structured :class:`~repro.core.errors.SLOViolation` on the first
exceedance — the control-plane twin of
:class:`~repro.faults.invariants.InvariantGuard`, down to attaching the
trace window leading up to the late delivery.

Unwatched flows are ignored (best-effort traffic has no SLO). Targets
can be updated in place (:meth:`watch` again after a re-quote) and
withdrawn (:meth:`unwatch`, e.g. when the governor revokes the
reservation — a revoked flow's lateness is expected, not a violation).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional

from ...core.errors import ConfigurationError, SLOViolation
from ...obs.metrics import MetricsRegistry
from ...obs.metrics import get_registry as _active_registry
from ...obs.trace import Tracer, get_tracer

__all__ = ["SLOWatchdog"]


class _FlowSLO:
    """Target and observation state for one watched flow."""

    __slots__ = (
        "flow_id", "target_s", "service_class", "packets", "worst_s",
        "violations",
    )

    def __init__(
        self, flow_id: Hashable, target_s: float, service_class: str
    ) -> None:
        self.flow_id = flow_id
        self.target_s = target_s
        self.service_class = service_class
        self.packets = 0
        self.worst_s = 0.0
        self.violations = 0


class SLOWatchdog:
    """Checks every delivery against the flow's registered delay target.

    Args:
        mode: ``"raise"`` (default) raises :class:`SLOViolation` on the
            first late delivery; ``"record"`` counts and keeps the run
            alive so violation totals land in the metrics artifact.
        window: Trace events attached to each violation (needs a
            tracer); ``0`` attaches none.
    """

    def __init__(
        self,
        *,
        mode: str = "raise",
        window: int = 32,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if mode not in ("raise", "record"):
            raise ConfigurationError(
                f"mode must be 'raise' or 'record', got {mode!r}"
            )
        if window < 0:
            raise ConfigurationError(f"window must be >= 0, got {window}")
        self.mode = mode
        self.window = window
        self.tracer = tracer if tracer is not None else get_tracer()
        registry = registry if registry is not None else _active_registry()
        self._checked = registry.counter("slo_checks_total")
        self._violated = registry.counter("slo_violations_total")
        self._flows: Dict[Hashable, _FlowSLO] = {}
        self.violations: List[SLOViolation] = []
        self._on_violation = []

    # -- registration --------------------------------------------------------

    def watch(
        self,
        flow_id: Hashable,
        target_s: float,
        service_class: str = "guaranteed",
    ) -> None:
        """Register (or update) the delay target for ``flow_id``."""
        if target_s <= 0:
            raise ConfigurationError(
                f"target_s must be positive, got {target_s}"
            )
        slo = self._flows.get(flow_id)
        if slo is None:
            self._flows[flow_id] = _FlowSLO(flow_id, target_s, service_class)
        else:
            slo.target_s = target_s
            slo.service_class = service_class

    def unwatch(self, flow_id: Hashable) -> None:
        """Stop checking ``flow_id`` (revoked or departed flow)."""
        self._flows.pop(flow_id, None)

    def watched(self) -> Dict[Hashable, float]:
        """Currently watched flows and their targets."""
        return {fid: slo.target_s for fid, slo in self._flows.items()}

    def add_violation_listener(self, listener) -> None:
        """Subscribe ``listener(violation)`` to every violation (record
        mode included) — the governor uses this to revoke on exceedance."""
        self._on_violation.append(listener)

    # -- wiring --------------------------------------------------------------

    def attach(self, sinks: Any) -> "SLOWatchdog":
        """Subscribe to a :class:`SinkRegistry`'s delivery stream."""
        sinks.add_listener(self.on_delivery)
        return self

    # -- the check -----------------------------------------------------------

    def on_delivery(self, packet: Any) -> None:
        """Delivery listener: check one delivered packet."""
        slo = self._flows.get(packet.flow_id)
        if slo is None:
            return
        self._checked.inc()
        slo.packets += 1
        observed = packet.delivered_at - packet.created_at
        if observed > slo.worst_s:
            slo.worst_s = observed
        if observed <= slo.target_s:
            return
        slo.violations += 1
        self._violated.inc()
        trace_window = []
        if self.tracer is not None and self.window:
            trace_window = self.tracer.events()[-self.window:]
        violation = SLOViolation(
            packet.flow_id,
            observed,
            slo.target_s,
            service_class=slo.service_class,
            details={"seq": packet.seq, "size": packet.size,
                     "delivered_at": packet.delivered_at},
            trace_window=trace_window,
        )
        self.violations.append(violation)
        for listener in self._on_violation:
            listener(violation)
        if self.mode == "raise":
            raise violation

    # -- reporting -----------------------------------------------------------

    def violation_count(self, flow_id: Hashable) -> int:
        """Violations recorded for one flow (0 if unwatched/clean)."""
        slo = self._flows.get(flow_id)
        return slo.violations if slo is not None else 0

    def class_violations(self) -> Dict[str, int]:
        """Violation totals per service class (watched flows only)."""
        totals: Dict[str, int] = {}
        for slo in self._flows.values():
            totals[slo.service_class] = (
                totals.get(slo.service_class, 0) + slo.violations
            )
        return totals

    def worst_delay(self, flow_id: Hashable) -> float:
        """Worst observed delay for a watched flow (0.0 if none seen)."""
        slo = self._flows.get(flow_id)
        return slo.worst_s if slo is not None else 0.0

    def summary(self) -> Dict[str, Any]:
        """Compact dict for the control plane's snapshot."""
        return {
            "watched": len(self._flows),
            "violations": len(self.violations),
            "by_class": self.class_violations(),
        }

    def __repr__(self) -> str:
        return (
            f"SLOWatchdog(mode={self.mode!r}, watched={len(self._flows)}, "
            f"violations={len(self.violations)})"
        )
