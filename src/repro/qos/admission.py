"""Call admission control with per-path delay quotes.

The paper assumes the control plane around the scheduler: "a flow is
added into the scheduler by a call admission controller (CAC) and removed
from the scheduler by a signalling protocol". This module is that
controller for the simulated network: it tracks per-link reserved
bandwidth, admits or rejects reservation requests, installs admitted
flows on every port of their path (via
:class:`~repro.net.scenario.Network`), and — where the port's scheduling
discipline has an analytic latency — returns an end-to-end **delay
quote** composed per Corollary 1 (LR servers):

    D <= sigma / rho + Σ_i latency(i) + Σ_i (propagation + store&forward)

Quotes are scheduler-aware:

* **SRR** — Lemma 2. The bound depends on the number of active flows N,
  which the controller cannot know in advance; quotes therefore use a
  worst-case N (``assumed_max_flows``, default: link capacity divided by
  the unit rate). This is precisely the practical cost of SRR's
  N-dependent bound that the follow-on work fixes.
* **DRR** — the Stiliadis-Varma latency, same N-dependence via the frame.
* **G-3 / RRR** — Theorem 2 / Eq. 11: N-independent, computed exactly.
* **WFQ family (wfq/scfq/stfq/wf2q+/vc/strr)** — the PGPS-style
  ``sigma/r + L/r + L/C`` per node (a valid quote for WFQ and WF²Q+;
  for the approximate disciplines it is indicative, and flagged so).
* **FIFO / RR / WRR** — no meaningful per-flow bound: the quote's
  ``guaranteed`` flag is False and only the fixed path delay is quoted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from ..analysis.bounds import (
    drr_delay_bound,
    g3_delay_bound,
    rrr_delay_bound,
    srr_delay_bound,
    wfq_delay_bound,
)
from ..core.errors import AdmissionError, ConfigurationError
from ..net.port import OutputPort
from ..net.scenario import Network

__all__ = ["DelayQuote", "Reservation", "AdmissionController"]

#: Disciplines whose quotes are hard analytic bounds.
_EXACT = {"srr", "drr", "g3", "rrr", "wfq", "wf2q+"}
#: Disciplines quoted with the PGPS formula as an approximation.
_APPROXIMATE = {"scfq", "stfq", "vc", "strr"}


@dataclass(frozen=True)
class DelayQuote:
    """An end-to-end delay promise for an admitted flow."""

    #: Total end-to-end bound in seconds (burst + scheduling + path).
    total: float
    #: The burst term sigma/rho.
    burst: float
    #: Per-hop scheduler latencies, in path order.
    per_hop: Tuple[float, ...]
    #: Fixed path delay (propagation + store-and-forward), seconds.
    path: float
    #: True when every hop's latency is a hard analytic bound.
    guaranteed: bool

    def milliseconds(self) -> float:
        """The total bound in milliseconds."""
        return self.total * 1e3


@dataclass
class Reservation:
    """An admitted flow's control-plane record.

    ``quote`` is the *current* promise; ``initial_quote`` the one made at
    admission time (they differ once :meth:`AdmissionController.requote`
    has folded in the measured active-flow count). A reservation that the
    overload governor tears down keeps its record with ``revoked`` set —
    a revoked flow's quote is explicitly withdrawn, never silently
    violated.
    """

    flow_id: Hashable
    src: str
    dst: str
    rate_bps: float
    weight: float
    sigma_bytes: float
    path: List[str] = field(default_factory=list)
    quote: Optional[DelayQuote] = None
    initial_quote: Optional[DelayQuote] = None
    #: Times the quote has been recomputed against measured N.
    requotes: int = 0
    revoked: bool = False
    revoke_reason: Optional[str] = None


class AdmissionController:
    """Per-link bandwidth accounting + admission + delay quotes.

    Args:
        network: The :class:`~repro.net.scenario.Network` to install
            admitted flows into. Every port the controller touches must
            run the same *kind* of scheduler it was told about via the
            network's configuration (the controller inspects each port's
            scheduler instance).
        weight_unit_bps: Rate represented by one integer weight unit for
            the round-robin disciplines (SRR/DRR/WRR weights are
            ``ceil(rate / unit)``).
        utilization_limit: Admit while reserved rate stays below
            ``limit * link rate`` on every hop (default 1.0; set lower to
            keep headroom for best-effort traffic).
        packet_size: The fixed packet size L used in the bound formulas.
        assumed_max_flows: The N plugged into N-dependent bounds (SRR,
            DRR). Default: ``link_rate / weight_unit_bps`` per link —
            the worst case a fully booked link allows. Admission-time
            quotes use it; :meth:`requote` uses the measured count.
    """

    def __init__(
        self,
        network: Network,
        *,
        weight_unit_bps: float = 16_000,
        utilization_limit: float = 1.0,
        packet_size: int = 200,
        assumed_max_flows: Optional[int] = None,
    ) -> None:
        if not 0 < utilization_limit <= 1.0:
            raise ConfigurationError("utilization_limit must be in (0, 1]")
        if weight_unit_bps <= 0:
            raise ConfigurationError("weight_unit_bps must be positive")
        self.network = network
        self.weight_unit_bps = weight_unit_bps
        self.utilization_limit = utilization_limit
        self.packet_size = packet_size
        self.assumed_max_flows = assumed_max_flows
        #: port -> reserved bits/s (id(port) keyed to avoid hashing ports).
        self._reserved: Dict[int, float] = {}
        self.reservations: Dict[Hashable, Reservation] = {}
        #: Reservations the governor explicitly tore down (still
        #: inspectable: "honored or revoked, never silently violated").
        self.revoked: Dict[Hashable, Reservation] = {}
        self.rejections = 0
        self.revocations = 0

    # -- admission -----------------------------------------------------------

    def request(
        self,
        flow_id: Hashable,
        src: str,
        dst: str,
        rate_bps: float,
        *,
        sigma_bytes: float = 0.0,
        max_queue: Optional[int] = None,
    ) -> Reservation:
        """Admit a ``(sigma, rate)`` flow or raise :class:`AdmissionError`.

        On success the flow is installed on every port along its path and
        the returned :class:`Reservation` carries the delay quote.
        """
        if rate_bps <= 0:
            raise ConfigurationError("rate must be positive")
        if flow_id in self.reservations:
            raise AdmissionError(f"flow {flow_id!r} already reserved")
        self.network.compute_routes()
        from ..net.routing import shortest_path

        path = shortest_path(self.network.adjacency, src, dst)
        ports = [
            self.network.nodes[a].ports[b] for a, b in zip(path, path[1:])
        ]
        # Bandwidth check on every hop first (no partial installs).
        for port in ports:
            budget = port.link.rate_bps * self.utilization_limit
            if self._reserved.get(id(port), 0.0) + rate_bps > budget + 1e-9:
                self.rejections += 1
                raise AdmissionError(
                    f"link {port.name} cannot fit {rate_bps / 1e3:.0f} kb/s "
                    f"(reserved {self._reserved.get(id(port), 0.0) / 1e3:.0f} "
                    f"of {budget / 1e3:.0f} kb/s)"
                )
        weight = self._weight_for(ports[0], rate_bps)
        try:
            self.network.add_flow(
                flow_id, src, dst, weight=weight, max_queue=max_queue
            )
        except AdmissionError:
            # A slotted scheduler (G-3/RRR) refused structurally
            # (fragmentation) even though bandwidth fits.
            self.rejections += 1
            raise
        for port in ports:
            self._reserved[id(port)] = (
                self._reserved.get(id(port), 0.0) + rate_bps
            )
        reservation = Reservation(
            flow_id, src, dst, rate_bps, weight, sigma_bytes, path
        )
        reservation.quote = self._quote(ports, rate_bps, weight, sigma_bytes)
        reservation.initial_quote = reservation.quote
        self.reservations[flow_id] = reservation
        return reservation

    def release(self, flow_id: Hashable, *, strict: bool = False) -> bool:
        """Tear down a reservation (the paper's signalling-protocol exit).

        Idempotent: releasing an unknown or already-released flow is a
        no-op returning False (pass ``strict=True`` for the old raising
        behaviour). The reservation record is popped *first*, so even if
        teardown fails partway, a second release cannot subtract the
        bandwidth again. Links that vanished since admission (mid-path
        failure, reconfiguration) are skipped rather than KeyError-ing,
        and per-link accounting snaps to exactly 0 when the last
        reservation leaves, so repeated admit/release cycles cannot
        accumulate float drift into a phantom reservation.
        """
        reservation = self.reservations.pop(flow_id, None)
        if reservation is None:
            if strict:
                raise ConfigurationError(f"no reservation for {flow_id!r}")
            return False
        path = reservation.path
        for a, b in zip(path, path[1:]):
            node = self.network.nodes.get(a)
            port = node.ports.get(b) if node is not None else None
            if port is None:
                continue  # link torn down since admission
            remaining = max(
                0.0, self._reserved.get(id(port), 0.0) - reservation.rate_bps
            )
            if remaining <= 1e-9:
                self._reserved.pop(id(port), None)
            else:
                self._reserved[id(port)] = remaining
        try:
            self.network.remove_flow(flow_id)
        except ConfigurationError:
            # The data-plane flow was already gone (e.g. torn down
            # directly on the network); the control-plane release still
            # succeeded.
            pass
        return True

    def reserved_bps(self, src: str, dst: str) -> float:
        """Reserved bandwidth on the ``src -> dst`` link direction."""
        port = self.network.port(src, dst)
        return self._reserved.get(id(port), 0.0)

    # -- adaptive re-quoting and revocation ----------------------------------

    def requote(self, flow_id: Hashable) -> Optional[DelayQuote]:
        """Recompute a reservation's N-dependent quote against the
        *measured* per-port active-flow count.

        The SRR/DRR bounds scale with the number of active flows N; the
        admission-time quote plugs in a frozen worst case. Once flows
        churn, the real N on each hop is known — this recomputes the
        quote from the live scheduler flow tables (honestly: fewer
        flows than booked tightens the quote, more flows than booked
        loosens it past the promise, which is the overload governor's
        cue to revoke), stores it on ``reservation.quote`` with
        ``initial_quote`` preserved, and bumps ``requotes``.

        Returns the new quote, or None for unknown/revoked flows.
        """
        reservation = self.reservations.get(flow_id)
        if reservation is None:
            return None
        ports = self._ports_for(reservation.path)
        if ports is None:
            return None  # a link on the path was torn down
        reservation.quote = self._quote(
            ports,
            reservation.rate_bps,
            reservation.weight,
            reservation.sigma_bytes,
            measured_n=True,
        )
        reservation.requotes += 1
        return reservation.quote

    def revoke(self, flow_id: Hashable, *, reason: str = "overload") -> bool:
        """Explicitly withdraw a reservation (graceful degradation).

        The flow is torn down exactly as :meth:`release` would, but the
        record survives in :attr:`revoked` with ``revoked=True`` and the
        reason — so an audit can prove every admitted quote was either
        honored or explicitly revoked, never silently violated. Returns
        False for unknown (or already revoked) flows.
        """
        reservation = self.reservations.get(flow_id)
        if reservation is None:
            return False
        reservation.revoked = True
        reservation.revoke_reason = reason
        self.revoked[flow_id] = reservation
        self.revocations += 1
        self.release(flow_id)
        return True

    def _ports_for(self, path: List[str]) -> Optional[List[OutputPort]]:
        ports: List[OutputPort] = []
        for a, b in zip(path, path[1:]):
            node = self.network.nodes.get(a)
            port = node.ports.get(b) if node is not None else None
            if port is None:
                return None
            ports.append(port)
        return ports

    # -- quoting ---------------------------------------------------------

    def _weight_for(self, port: OutputPort, rate_bps: float) -> float:
        name = getattr(port.scheduler, "name", "")
        if name in ("wfq", "scfq", "stfq", "wf2q+", "vc", "strr"):
            return rate_bps
        if name == "rrr":
            capacity = port.scheduler.capacity
            return max(1, math.ceil(rate_bps / port.link.rate_bps * capacity))
        if name == "g3":
            capacity = port.scheduler.capacity
            return max(1, math.ceil(rate_bps / port.link.rate_bps * capacity))
        return max(1, math.ceil(rate_bps / self.weight_unit_bps))

    def _quote(
        self,
        ports: List[OutputPort],
        rate_bps: float,
        weight: float,
        sigma_bytes: float,
        *,
        measured_n: bool = False,
    ) -> DelayQuote:
        L = self.packet_size
        per_hop: List[float] = []
        guaranteed = True
        path_delay = 0.0
        for port in ports:
            link = port.link
            path_delay += link.delay + link.serialization_time(L)
            name = getattr(port.scheduler, "name", "")
            if name == "srr":
                n = self._n_for(port, measured_n)
                per_hop.append(
                    srr_delay_bound(
                        int(weight), n, L, link.rate_bps, self.weight_unit_bps
                    )
                )
            elif name == "drr":
                n = self._n_for(port, measured_n)
                quantum = getattr(port.scheduler, "quantum", 1500)
                per_hop.append(
                    drr_delay_bound(weight, n * 1.0 + weight, quantum, L,
                                    link.rate_bps)
                )
            elif name == "g3":
                per_hop.append(
                    g3_delay_bound(
                        int(weight), port.scheduler.capacity, L, link.rate_bps
                    )
                )
            elif name == "rrr":
                per_hop.append(
                    rrr_delay_bound(
                        int(weight), port.scheduler.capacity, L, link.rate_bps
                    )
                )
            elif name in _EXACT | _APPROXIMATE:  # the timestamp family
                per_hop.append(
                    wfq_delay_bound(sigma_bytes, rate_bps, L, link.rate_bps)
                    - sigma_bytes * 8.0 / rate_bps  # burst term added once
                )
                if name in _APPROXIMATE:
                    guaranteed = False
            else:
                # FIFO/RR/WRR: no per-flow bound exists.
                per_hop.append(0.0)
                guaranteed = False
        burst = sigma_bytes * 8.0 / rate_bps
        total = burst + sum(per_hop) + path_delay
        return DelayQuote(
            total=total,
            burst=burst,
            per_hop=tuple(per_hop),
            path=path_delay,
            guaranteed=guaranteed,
        )

    def _assumed_flows(self, link_rate_bps: float) -> int:
        if self.assumed_max_flows is not None:
            return self.assumed_max_flows
        return max(1, int(link_rate_bps // self.weight_unit_bps))

    def _n_for(self, port: OutputPort, measured: bool) -> int:
        """The N for a port's N-dependent bound: worst case, or measured.

        Measured N reads the live scheduler flow table — churn flows
        installed behind the controller's back included, so when churn
        blows past the booking bound the measured quote honestly
        *exceeds* the admission-time promise. That honesty is what the
        overload governor enforces against: a re-quote looser than the
        promise (by more than its slack) triggers revocation rather
        than a silently broken bound.
        """
        worst = self._assumed_flows(port.link.rate_bps)
        if not measured:
            return worst
        count = getattr(port.scheduler, "flow_count", None)
        if count is None:
            return worst
        return max(1, int(count))

    def __repr__(self) -> str:
        return (
            f"AdmissionController(reservations={len(self.reservations)}, "
            f"rejections={self.rejections})"
        )
