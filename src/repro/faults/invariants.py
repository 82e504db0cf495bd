"""Runtime invariant guards: opt-in structural checking on the hot path.

The delay/fairness bounds this repo reproduces rest on structural
invariants the analyses assume but nothing at runtime asserted until now:
SRR's weight matrix must link each backlogged flow exactly once per set
weight bit with ``k`` tracking the highest non-empty column and the WSS
scan hitting at most one empty column in a row; DRR must conserve credit
(no credit for idle flows, bounded deficit); the WFQ family's virtual
time must be monotone within a busy period; every work-conserving
scheduler must hand over a packet whenever backlog exists. An
:class:`InvariantGuard` checks all of this *from outside* the scheduler —
it wraps ``dequeue`` via an instance attribute, so an unguarded scheduler
runs the exact same code with zero added branches (the E5 op-count
profile is bit-identical with guards off; a test asserts it).

Violations raise a structured
:class:`~repro.core.errors.InvariantViolation` carrying the failed check,
the offending values, and — when a tracer is active — the window of
trace events leading up to the corruption.

Cost model: per-dequeue checks are O(1) comparisons; the structural
sweep (matrix walk, per-flow credit audit) is O(flows) and runs every
``every`` dequeues (default 64). On the bench CLI,
``--set check_invariants=True`` turns the pack on for e13.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.errors import InvariantViolation
from ..obs.metrics import MetricsRegistry
from ..obs.metrics import get_registry as _active_registry
from ..obs.trace import Tracer, get_tracer

__all__ = ["InvariantGuard", "attach_guard", "guard_network"]


class InvariantGuard:
    """Wraps one scheduler's ``dequeue`` with invariant checking.

    Args:
        sched: Any scheduler instance. Discipline-specific structural
            checks activate based on ``sched.name`` (srr / drr / the
            wfq timestamp family); the generic work-conservation check
            applies to every discipline.
        every: Run the O(flows) structural sweep every N dequeues
            (per-dequeue O(1) checks always run). 1 = every dequeue.
        mode: ``"raise"`` (default) raises on the first violation;
            ``"record"`` only counts, letting a run complete so the
            violation totals land in the metrics artifact.
        window: Trace events attached to a violation (needs a tracer);
            ``0`` attaches none.
    """

    def __init__(
        self,
        sched: Any,
        *,
        every: int = 64,
        mode: str = "raise",
        window: int = 32,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if mode not in ("raise", "record"):
            raise ValueError(f"mode must be 'raise' or 'record', got {mode!r}")
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self.sched = sched
        self.every = every
        self.mode = mode
        self.window = window
        self.tracer = tracer if tracer is not None else get_tracer()
        registry = registry if registry is not None else _active_registry()
        self.kind = getattr(sched, "name", type(sched).__name__)
        self._checks = registry.counter(
            "invariant_checks_total", scheduler=self.kind
        )
        self._violations = registry.counter(
            "invariant_violations_total", scheduler=self.kind
        )
        self.checks_run = 0
        self.violations: List[InvariantViolation] = []
        self._dequeues = 0
        self._attached = False
        # Discipline-specific state.
        self._last_vtime = 0.0
        self._max_packet_seen = 0
        self._structural = {
            "srr": self._check_srr,
            "drr": self._check_drr,
            "wfq": self._check_vtime,
            "wf2q+": self._check_vtime,
            "scfq": self._check_vtime,
            "stfq": self._check_vtime,
        }.get(self.kind)

    # -- lifecycle -----------------------------------------------------------

    def attach(self) -> "InvariantGuard":
        """Install the checking wrapper (instance-attribute shadowing)."""
        if self._attached:
            return self
        original = self.sched.dequeue

        def guarded_dequeue():
            backlog_before = self.sched.backlog
            terms_before = getattr(self.sched, "terms_scanned", 0)
            packet = original()
            self._after_dequeue(packet, backlog_before, terms_before)
            return packet

        self.sched.dequeue = guarded_dequeue
        self._attached = True
        return self

    def detach(self) -> None:
        """Restore the scheduler's own ``dequeue`` (class attribute)."""
        if self._attached:
            del self.sched.dequeue
            self._attached = False

    # -- violation plumbing --------------------------------------------------

    def _fail(self, check: str, **details: Any) -> None:
        window = []
        if self.tracer is not None and self.window:
            window = self.tracer.events()[-self.window:]
        violation = InvariantViolation(
            check, scheduler=self.kind, details=details, trace_window=window,
        )
        self._violations.inc()
        self.violations.append(violation)
        if self.mode == "raise":
            raise violation

    # -- per-dequeue (O(1)) checks -------------------------------------------

    def _after_dequeue(
        self, packet: Any, backlog_before: int, terms_before: int
    ) -> None:
        self._dequeues += 1
        self.checks_run += 1
        self._checks.inc()
        if packet is None and backlog_before > 0:
            self._fail(
                "work_conservation", backlog=backlog_before, returned=None,
            )
        if packet is not None:
            if backlog_before == 0:
                self._fail(
                    "phantom_packet", backlog=0,
                    flow=getattr(packet, "flow_id", "?"),
                )
            if packet.size > self._max_packet_seen:
                self._max_packet_seen = packet.size
        if self.kind == "srr" and packet is not None:
            self._check_srr_scan(terms_before)
        if self._structural is not None and self._dequeues % self.every == 0:
            self._structural()

    def _check_srr_scan(self, terms_before: int) -> None:
        """The WSS empty-scan bound, observed as a terms-per-packet cap.

        In packet mode every delivered packet advances the scan by at
        most 2 terms (at most one empty column in a row — the paper's
        O(1) argument). Deficit mode legitimately revisits a flow
        ``ceil(size / quantum)`` times before its credit covers the head
        packet, so the cap scales by that factor there.
        """
        delta = getattr(self.sched, "terms_scanned", 0) - terms_before
        if getattr(self.sched, "mode", "packet") == "packet":
            limit = 2
        else:
            quantum = max(1, getattr(self.sched, "quantum", 1))
            visits = -(-max(self._max_packet_seen, 1) // quantum)  # ceil
            limit = 2 * (visits + 1)
        if delta > limit:
            self._fail(
                "srr_scan_bound", terms_scanned=delta, limit=limit,
                order=getattr(self.sched, "order", "?"),
            )

    # -- structural sweeps (O(flows), every N dequeues) ----------------------

    def _check_srr(self) -> None:
        sched = self.sched
        matrix = sched.matrix
        try:
            matrix.check_invariants()
        except AssertionError as exc:
            self._fail("srr_matrix_links", error=str(exc))
            return  # record mode: matrix too broken for further checks
        # Each backlogged flow linked exactly once per set weight bit;
        # idle flows fully unlinked (work conservation's matrix half).
        for flow in sched._flows.values():
            linked = sum(1 for node in flow.nodes.values() if node.linked)
            expected = len(flow.nodes) if flow.queue else 0
            if linked != expected:
                self._fail(
                    "srr_flow_linkage", flow=flow.flow_id,
                    linked=linked, expected=expected,
                    backlogged=bool(flow.queue),
                )
        # k tracks the highest non-empty column.
        highest = 0
        for j in range(matrix.max_order):
            if matrix.column_population(j) > 0:
                highest = j + 1
        if matrix.order != highest:
            self._fail(
                "srr_order_tracking", order=matrix.order, recomputed=highest,
            )
        self._check_backlog_accounting()

    def _check_drr(self) -> None:
        sched = self.sched
        active_set = sched._active_set
        for flow in sched._flows.values():
            if flow.flow_id not in active_set and flow.deficit != 0:
                # Credit must not survive idling (DRR's conservation rule;
                # the Tabatabaee & Le Boudec bounds assume it).
                self._fail(
                    "drr_idle_credit", flow=flow.flow_id,
                    deficit=flow.deficit,
                )
            # Exact fractional credit: just before a send the deficit can
            # reach (head size - epsilon) + one grant, so the bound must
            # not truncate the grant.
            bound = flow.weight * sched.quantum + self._max_packet_seen
            if not 0 <= flow.deficit <= bound:
                self._fail(
                    "drr_deficit_bound", flow=flow.flow_id,
                    deficit=flow.deficit, bound=bound,
                )
        backlogged = {
            f.flow_id for f in sched._flows.values() if f.queue
        }
        if backlogged != set(active_set):
            self._fail(
                "drr_active_list",
                missing=sorted(map(str, backlogged - set(active_set))),
                stale=sorted(map(str, set(active_set) - backlogged)),
            )
        self._check_backlog_accounting()

    def _check_vtime(self) -> None:
        vtime = getattr(self.sched, "_vtime", 0.0)
        # Monotone within a busy period; 0.0 is the end-of-busy-period
        # reset and legitimately jumps backwards.
        if vtime < self._last_vtime and vtime != 0.0:
            self._fail(
                "vtime_monotonic", vtime=vtime, previous=self._last_vtime,
            )
        self._last_vtime = vtime
        self._check_backlog_accounting()

    def _check_backlog_accounting(self) -> None:
        flows = getattr(self.sched, "_flows", None)
        if flows is None:
            return
        actual = sum(len(f.queue) for f in flows.values())
        if self.sched.backlog != actual:
            self._fail(
                "backlog_accounting", counter=self.sched.backlog,
                queued=actual,
            )

    def __repr__(self) -> str:
        return (
            f"InvariantGuard({self.kind}, every={self.every}, "
            f"checks={self.checks_run}, violations={len(self.violations)})"
        )


def attach_guard(sched: Any, **kwargs: Any) -> InvariantGuard:
    """Build and attach a guard to one scheduler; returns the guard."""
    return InvariantGuard(sched, **kwargs).attach()


def guard_network(net: Any, **kwargs: Any) -> List[InvariantGuard]:
    """Attach a guard to every output-port scheduler of a network."""
    guards = []
    for node in net.nodes.values():
        for port in node.ports.values():
            guards.append(attach_guard(port.scheduler, **kwargs))
    return guards
