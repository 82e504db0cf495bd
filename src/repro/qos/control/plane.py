"""The control plane: one periodic controller tying the loop together.

:class:`ControlPlane` is what an experiment arms on a network. It

* feeds per-port and per-flow **rate estimators** from the output ports'
  arrival hooks (offered load, measured before any drop decision);
* serves as the fault injector's churn **gate** (:meth:`admit_join`):
  predicted load = estimated offered load, plus the rates of joins
  admitted within the last estimator time constant (the EWMA has not
  seen their packets yet), plus the candidate — run through the
  :class:`~repro.qos.control.policy.WatermarkPolicy`;
* attaches the per-flow :class:`~repro.qos.control.slo.SLOWatchdog` to
  the delivery stream and registers each reservation's quoted bound as
  its target (:meth:`watch`);
* on a fixed simulation-time tick, drives the
  :class:`~repro.qos.control.governor.OverloadGovernor` (demote
  best-effort while the load sits at/above the high watermark; re-quote
  and revoke when churn invalidates the booking bound) and the optional
  :class:`~repro.qos.control.governor.WeightAdapter`;
* mirrors its state into the active metrics registry.

Determinism: every *decision* is a function of simulation state and the
seeded shed RNG, never of wall time, so ``--jobs N`` runs stay
bit-identical to serial ones.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ...core.errors import ConfigurationError
from ...obs.metrics import MetricsRegistry
from ...obs.metrics import get_registry as _active_registry
from .estimators import RateEstimatorBank
from .governor import OverloadGovernor, WeightAdapter
from .policy import WatermarkPolicy
from .slo import SLOWatchdog

__all__ = ["ControlPlane"]

#: Zone name -> numeric gauge value (for the metrics registry).
_ZONE_LEVEL = {"admit": 0, "shed": 1, "reject": 2}


class ControlPlane:
    """Adaptive overload controller for one network's bottleneck ports.

    Args:
        network: The live :class:`~repro.net.scenario.Network`.
        admission: The :class:`~repro.qos.admission.AdmissionController`
            whose reservations this plane protects (may be None for a
            gate-only plane).
        seed: Seeds the shed RNG (derive via ``child_seed`` per point).
        low/high: Watermarks, as fractions of bottleneck capacity.
        interval_s: Governor tick period (simulation seconds).
        horizon: Absolute sim time after which ticking stops (keeps
            open-ended ``run()`` calls terminating, like the monitors).
        tau_s: Rate-estimator time constant.
        slo_margin: Watchdog target = quote total × this factor.
        mode: Watchdog mode — ``"record"`` (default; violations counted
            and the governor revokes) or ``"raise"`` (first violation
            aborts the run).
        adapt_weights: Arm the weight/quantum adapter on the bottleneck
            scheduler.
    """

    def __init__(
        self,
        network: Any,
        admission: Optional[Any] = None,
        *,
        seed: int = 0,
        low: float = 0.75,
        high: float = 0.95,
        interval_s: float = 0.05,
        horizon: Optional[float] = None,
        tau_s: float = 0.25,
        slo_margin: float = 1.0,
        mode: str = "record",
        adapt_weights: bool = False,
        quote_slack: float = 1.25,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if interval_s <= 0:
            raise ConfigurationError(
                f"interval_s must be positive, got {interval_s}"
            )
        if slo_margin <= 0:
            raise ConfigurationError(
                f"slo_margin must be positive, got {slo_margin}"
            )
        self.network = network
        self.admission = admission
        self.interval_s = interval_s
        self.horizon = horizon
        self.tau_s = tau_s
        self.slo_margin = slo_margin
        self.adapt_weights = adapt_weights
        registry = registry if registry is not None else _active_registry()
        self.policy = WatermarkPolicy(
            low, high, rng=random.Random(seed)
        )
        self.port_rates = RateEstimatorBank(tau_s=tau_s)
        self.flow_rates = RateEstimatorBank(tau_s=tau_s)
        self.watchdog = SLOWatchdog(mode=mode, registry=registry)
        self.governor: Optional[OverloadGovernor] = None
        if admission is not None:
            self.governor = OverloadGovernor(
                admission, quote_slack=quote_slack
            )
            self.governor.watchdog = self.watchdog
            self.watchdog.add_violation_listener(self.governor.on_violation)
        self.adapter: Optional[WeightAdapter] = None
        #: Gated bottleneck ports (set by :meth:`arm`).
        self.ports: List[Any] = []
        self._capacity: Dict[int, float] = {}
        #: Joins admitted recently whose packets the EWMA has not seen
        #: yet: (admit_time, rate_bps), pruned after ``tau_s``.
        self._recent_admits: List[Tuple[float, float]] = []
        self.zone = "admit"
        self.ticks = 0
        self._armed = False
        self._stopped = False
        self._pending = None
        # Registry mirror.
        self._g_load = registry.gauge("control_load")
        self._g_zone = registry.gauge("control_zone")
        self._c_admitted = registry.counter("control_admitted_total")
        self._c_shed = registry.counter("control_shed_total")
        self._c_rejected = registry.counter("control_rejected_total")
        self._c_revoked = registry.counter("control_revocations_total")
        self._c_demoted = registry.counter("control_demoted_total")
        self._c_reweights = registry.counter("control_reweights_total")

    # -- lifecycle -----------------------------------------------------------

    def arm(self, ports: Optional[List[Any]] = None) -> "ControlPlane":
        """Hook the plane into the network and start the governor tick.

        ``ports`` are the bottleneck output ports to estimate and police
        (default: every port in the network). Idempotent.
        """
        if self._armed:
            return self
        self._armed = True
        if ports is None:
            ports = [
                port
                for node in self.network.nodes.values()
                for port in node.ports.values()
            ]
        self.ports = list(ports)
        for port in self.ports:
            self._capacity[id(port)] = port.link.rate_bps
            port.on_arrival.append(self._make_arrival_hook(port))
            if self.governor is not None and port.policer is None:
                port.policer = self.governor.police
        self.watchdog.attach(self.network.sinks)
        if self.adapt_weights and self.ports:
            self.adapter = WeightAdapter(self.ports[0].scheduler)
            self.network.sinks.add_listener(self._feed_adapter)
        self._pending = self.network.sim.schedule(
            self.interval_s, self._tick
        )
        return self

    def stop(self) -> None:
        """Stop the governor tick (idempotent); hooks stay but are inert
        for scheduling purposes (pure observation)."""
        if self._stopped:
            return
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    # -- estimator feeds -----------------------------------------------------

    def _make_arrival_hook(self, port: Any):
        # Offered load: every packet presented to a gated port, before
        # any drop decision. Ports keyed by identity (names can clash
        # across nodes in principle); flows by flow id.
        port_key = id(port)
        port_rates = self.port_rates
        flow_rates = self.flow_rates

        def hook(now: float, packet: Any) -> None:
            port_rates.observe(port_key, now, packet.size)
            flow_rates.observe(packet.flow_id, now, packet.size)

        return hook

    def _feed_adapter(self, packet: Any) -> None:
        if self.adapter is not None:
            self.adapter.observe(
                self.network.sim.now,
                packet.flow_id,
                packet.delivered_at - packet.created_at,
            )

    # -- load ----------------------------------------------------------------

    def load(self, now: Optional[float] = None) -> float:
        """Estimated utilisation of the most loaded gated port, plus the
        not-yet-visible rates of recently admitted joins."""
        if now is None:
            now = self.network.sim.now
        pending = self._pending_admit_rate(now)
        worst = 0.0
        for port in self.ports:
            capacity = self._capacity[id(port)]
            offered = self.port_rates.rate_bps(id(port), now)
            worst = max(worst, (offered + pending) / capacity)
        return worst

    def _pending_admit_rate(self, now: float) -> float:
        keep = [
            (t, rate)
            for t, rate in self._recent_admits
            if now - t < self.tau_s
        ]
        self._recent_admits = keep
        return sum(rate for _t, rate in keep)

    # -- the churn gate ------------------------------------------------------

    def admit_join(
        self,
        flow_id: Hashable,
        src: str,
        dst: str,
        *,
        weight: float = 1,
        rate_bps: float = 16_000,
    ) -> bool:
        """Watermark-gate one churn join; True to install the flow."""
        now = self.network.sim.now
        capacity = min(self._capacity.values()) if self._capacity else None
        if capacity is None:
            return True  # not armed: gate open
        predicted = self.load(now) + rate_bps / capacity
        decision = self.policy.decide(predicted)
        if decision.accepted:
            self._c_admitted.inc()
            self._recent_admits.append((now, rate_bps))
        elif decision.zone == "reject":
            self._c_rejected.inc()
        else:
            self._c_shed.inc()
        return decision.accepted

    def flow_left(self, flow_id: Hashable) -> None:
        """Churn-leave notification: drop the flow's estimator state."""
        self.flow_rates.drop(flow_id)
        if self.adapter is not None:
            self.adapter.forget(flow_id)

    # -- reservations --------------------------------------------------------

    def watch(self, reservation: Any, *, target_s: Optional[float] = None,
              service_class: str = "guaranteed") -> None:
        """Put a reservation under SLO watch (target = quote × margin,
        or an explicit ``target_s``) and, when adapting, steer its
        weight toward the same target."""
        if target_s is None:
            if reservation.quote is None:
                raise ConfigurationError(
                    f"reservation {reservation.flow_id!r} has no quote "
                    f"and no explicit target_s"
                )
            target_s = reservation.quote.total * self.slo_margin
        self.watchdog.watch(
            reservation.flow_id, target_s, service_class=service_class
        )
        if self.adapter is not None:
            self.adapter.set_target(reservation.flow_id, target_s)

    # -- the governor tick ---------------------------------------------------

    def _tick(self) -> None:
        self._pending = None
        if self._stopped:
            return
        now = self.network.sim.now
        self.ticks += 1
        load = self.load(now)
        self.zone = self.policy.zone(load)
        self._g_load.set(load)
        self._g_zone.set(_ZONE_LEVEL[self.zone])
        if self.governor is not None:
            before = self.governor.demoted_packets
            self.governor.set_demoting(self.zone == "reject")
            self._c_demoted.inc(self.governor.demoted_packets - before)
            if self.governor.bound_invalidated():
                result = self.governor.enforce()
                self._c_revoked.inc(result["revoked"])
        if self.adapter is not None:
            self._c_reweights.inc(self.adapter.adapt(now))
        nxt = now + self.interval_s
        if self.horizon is not None and nxt > self.horizon:
            return
        self._pending = self.network.sim.schedule(
            self.interval_s, self._tick
        )

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Controller state for experiment records (JSON-friendly)."""
        return {
            "zone": self.zone,
            "ticks": self.ticks,
            "admitted": self.policy.admitted,
            "shed": self.policy.shed,
            "rejected": self.policy.rejected,
            "revocations": (
                self.admission.revocations
                if self.admission is not None else 0
            ),
            "demoted_packets": (
                self.governor.demoted_packets
                if self.governor is not None else 0
            ),
            "reweights": (
                len(self.adapter.adjustments)
                if self.adapter is not None else 0
            ),
            "slo": self.watchdog.summary(),
        }

    def __repr__(self) -> str:
        return (
            f"ControlPlane(zone={self.zone!r}, ticks={self.ticks}, "
            f"policy={self.policy!r})"
        )
