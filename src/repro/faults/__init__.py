"""Deterministic fault injection and runtime invariant guards.

The paper's setting is a *dynamic* multi-service network: flows are
admitted by a CAC, removed by signalling, links fail, and best-effort
traffic bursts — yet schedulers must stay O(1) and fair throughout. This
package makes that regime testable:

* :mod:`repro.faults.plan` — seeded, immutable :class:`FaultPlan`
  schedules (link flaps, flow churn, bursts, malformed packets) derived
  via the harness' SplitMix64 child seeds, so serial and ``--jobs N``
  runs see bit-identical chaos.
* :mod:`repro.faults.inject` — :class:`FaultInjector` replays a plan
  against a live network as ordinary simulator events, exporting
  ``fault_*`` counters and ``fault`` trace events.
* :mod:`repro.faults.invariants` — :class:`InvariantGuard`, the opt-in
  ``check_invariants`` pack asserting SRR matrix integrity, DRR credit
  conservation, WFQ virtual-time monotonicity, and work conservation at
  runtime, raising structured
  :class:`~repro.core.errors.InvariantViolation` errors.
"""

from .inject import FAULT_FLOW, GHOST_FLOW, FaultInjector
from .invariants import InvariantGuard, attach_guard, guard_network
from .plan import FaultEvent, FaultPlan, FaultSpec, build_fault_plan

__all__ = [
    "FAULT_FLOW",
    "GHOST_FLOW",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InvariantGuard",
    "attach_guard",
    "build_fault_plan",
    "guard_network",
]
