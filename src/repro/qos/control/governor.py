"""Graceful degradation: the overload governor and the weight adapter.

:class:`OverloadGovernor` is the enforcement arm of the control plane.
It watches each reserved path's *measured* active-flow count against the
admission controller's assumed-max-flows booking bound, and when churn
invalidates the bound it re-quotes the affected reservations against the
measured N (:meth:`~repro.qos.admission.AdmissionController.requote`).
If a flow's honest re-quote blows past its admission-time promise by
more than ``quote_slack``, or its SLO watchdog reports a violation, the
governor *revokes* the reservation — the quote is explicitly withdrawn,
never silently broken. Under overload it also **demotes** best-effort
classes: an ingress policer (installed by the control plane on the
bottleneck ports) drops packets of demoted flows so the guaranteed
classes keep their service.

:class:`WeightAdapter` is the optimisation arm: a closed loop nudging
SRR weights (and thereby DRR per-flow quanta — DRR's per-visit credit is
``weight * quantum``) toward per-flow delay targets, following the
convex delay-vs-weight trade: observed delay above target → double the
weight share; comfortably below → halve it, releasing capacity. Purely
deterministic (EWMA of observed delays, integer weight steps through
:meth:`~repro.core.interfaces.FlowTableScheduler.reweight`), so adapted
runs stay bit-identical across ``--jobs``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from ...core.errors import ConfigurationError, ReproError

__all__ = ["OverloadGovernor", "WeightAdapter"]


class OverloadGovernor:
    """Re-quote / revoke / demote when measured load breaks the booking.

    Args:
        admission: The :class:`~repro.qos.admission.AdmissionController`
            whose reservations are governed.
        quote_slack: A re-quote may exceed the admission-time total by
            this factor before the reservation is revoked (1.0 = any
            loosening revokes; default tolerates 25%).
        demote_classes: Flow-id prefixes treated as best-effort and
            demotable under overload (the fault injector's churn flows
            are ``fault-*``).
    """

    def __init__(
        self,
        admission: Any,
        *,
        quote_slack: float = 1.25,
        demote_classes: Tuple[str, ...] = ("fault-", "be-"),
    ) -> None:
        if quote_slack < 1.0:
            raise ConfigurationError(
                f"quote_slack must be >= 1.0, got {quote_slack}"
            )
        self.admission = admission
        self.quote_slack = quote_slack
        self.demote_classes = demote_classes
        #: True while best-effort demotion is active (overload zone).
        self.demoting = False
        self.demotions = 0
        self.demoted_packets = 0
        #: (flow_id, reason) for every revocation this governor issued.
        self.revoked: List[Tuple[Hashable, str]] = []
        #: Watchdog to unwatch on revocation (set by the control plane).
        self.watchdog: Optional[Any] = None

    # -- booking-bound enforcement -------------------------------------------

    def bound_invalidated(self) -> bool:
        """True when any reserved path's measured flow count exceeds the
        admission controller's assumed-max-flows booking bound."""
        adm = self.admission
        for reservation in adm.reservations.values():
            ports = adm._ports_for(reservation.path)
            if ports is None:
                continue
            for port in ports:
                assumed = adm._assumed_flows(port.link.rate_bps)
                count = getattr(port.scheduler, "flow_count", 0)
                if count > assumed:
                    return True
        return False

    def enforce(self) -> Dict[str, int]:
        """One enforcement pass: re-quote everything, revoke what broke.

        Every live reservation is re-quoted against the measured per-port
        flow counts. A reservation whose honest re-quote exceeds
        ``quote_slack`` times its admission-time promise is revoked
        (reason ``"quote_invalidated"``). Returns the pass's counts; the
        control plane adds ``revoked`` to its revocations counter.
        """
        adm = self.admission
        requoted = 0
        revoked = 0
        for flow_id in list(adm.reservations):
            reservation = adm.reservations[flow_id]
            initial = reservation.initial_quote or reservation.quote
            quote = adm.requote(flow_id)
            if quote is None:
                continue
            requoted += 1
            if initial is not None and quote.total > initial.total * self.quote_slack:
                self.revoke(flow_id, reason="quote_invalidated")
                revoked += 1
        return {"requoted": requoted, "revoked": revoked}

    def revoke(self, flow_id: Hashable, *, reason: str) -> bool:
        """Revoke one reservation and stop watching its SLO."""
        if not self.admission.revoke(flow_id, reason=reason):
            return False
        self.revoked.append((flow_id, reason))
        if self.watchdog is not None:
            self.watchdog.unwatch(flow_id)
        return True

    def on_violation(self, violation: Any) -> None:
        """SLO-watchdog listener: a broken promise is withdrawn, not
        left standing (record-mode watchdogs keep the run alive and the
        audit trail lands in :attr:`revoked`)."""
        self.revoke(violation.flow_id, reason="slo_violation")

    # -- best-effort demotion ------------------------------------------------

    def set_demoting(self, demoting: bool) -> None:
        """Enter/leave demotion (called by the plane on zone changes)."""
        if demoting and not self.demoting:
            self.demotions += 1
        self.demoting = demoting

    def is_demotable(self, flow_id: Hashable) -> bool:
        """True when ``flow_id`` belongs to a demotable (best-effort)
        class by prefix convention."""
        return isinstance(flow_id, str) and flow_id.startswith(
            self.demote_classes
        )

    def police(self, packet: Any) -> Optional[str]:
        """Ingress policer verdict: drop best-effort while demoting."""
        if self.demoting and self.is_demotable(packet.flow_id):
            self.demoted_packets += 1
            return "demoted"
        return None

    def __repr__(self) -> str:
        return (
            f"OverloadGovernor(demoting={self.demoting}, "
            f"revoked={len(self.revoked)}, "
            f"demoted_packets={self.demoted_packets})"
        )


class WeightAdapter:
    """Closed-loop SRR-weight / DRR-quantum nudging toward delay targets.

    Args:
        scheduler: The bottleneck scheduler; must set
            ``supports_reweight`` (SRR, DRR) or :meth:`adapt` is a no-op.
        tau_s: EWMA time constant for the per-flow delay estimate.
        deadband: No adjustment while ``target/deadband <= delay <=
            target`` — the loop only reacts to real exceedance (above
            target) or real slack (below ``target/deadband``).
        max_weight: Upper clamp for adapted weights (keeps SRR's
            weight-matrix order bounded).
    """

    def __init__(
        self,
        scheduler: Any,
        *,
        tau_s: float = 0.5,
        deadband: float = 4.0,
        max_weight: int = 1 << 16,
    ) -> None:
        if deadband < 1.0:
            raise ConfigurationError(
                f"deadband must be >= 1.0, got {deadband}"
            )
        self.scheduler = scheduler
        self.tau_s = tau_s
        self.deadband = deadband
        self.max_weight = max_weight
        #: flow_id -> delay target (seconds).
        self.targets: Dict[Hashable, float] = {}
        self._delay: Dict[Hashable, float] = {}
        self._last_t: Dict[Hashable, float] = {}
        #: (time, flow_id, old_weight, new_weight) audit trail.
        self.adjustments: List[Tuple[float, Hashable, float, float]] = []

    def set_target(self, flow_id: Hashable, target_s: float) -> None:
        """Register/update the delay target steering ``flow_id``."""
        if target_s <= 0:
            raise ConfigurationError(
                f"target_s must be positive, got {target_s}"
            )
        self.targets[flow_id] = target_s

    def forget(self, flow_id: Hashable) -> None:
        """Drop a flow's target and estimator state (departed flow)."""
        self.targets.pop(flow_id, None)
        self._delay.pop(flow_id, None)
        self._last_t.pop(flow_id, None)

    def observe(self, now: float, flow_id: Hashable, delay_s: float) -> None:
        """Fold one delivered packet's delay into the flow's EWMA."""
        if flow_id not in self.targets:
            return
        prev = self._delay.get(flow_id)
        if prev is None:
            self._delay[flow_id] = delay_s
        else:
            dt = max(0.0, now - self._last_t.get(flow_id, now))
            alpha = 1.0 - math.exp(-dt / self.tau_s) if dt > 0 else 0.5
            self._delay[flow_id] = prev + alpha * (delay_s - prev)
        self._last_t[flow_id] = now

    def estimated_delay(self, flow_id: Hashable) -> float:
        """Current EWMA delay estimate (0.0 before any observation)."""
        return self._delay.get(flow_id, 0.0)

    def adapt(self, now: float) -> int:
        """One adaptation pass; returns the number of reweights applied.

        A flow whose smoothed delay exceeds its target gets its weight
        doubled (more service per round → convexly less delay); a flow
        under ``target / deadband`` is halved back toward 1, releasing
        the share. Rejected reweights (SRR max-order, DRR credit floor)
        are skipped, never fatal.
        """
        sched = self.scheduler
        if not getattr(sched, "supports_reweight", False):
            return 0
        applied = 0
        for flow_id, target in self.targets.items():
            if not sched.has_flow(flow_id):
                continue
            delay = self._delay.get(flow_id)
            if delay is None:
                continue
            weight = sched.flow_state(flow_id).weight
            if delay > target:
                new_weight = min(self.max_weight, int(weight) * 2)
            elif delay < target / self.deadband and weight > 1:
                new_weight = max(1, int(weight) // 2)
            else:
                continue
            if new_weight == weight:
                continue
            try:
                sched.reweight(flow_id, new_weight)
            except ReproError:
                continue
            self.adjustments.append((now, flow_id, weight, new_weight))
            applied += 1
        return applied

    def __repr__(self) -> str:
        return (
            f"WeightAdapter(targets={len(self.targets)}, "
            f"adjustments={len(self.adjustments)})"
        )
