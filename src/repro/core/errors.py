"""Exception hierarchy for the repro package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except ReproError`` clause while letting programming errors (``TypeError``,
``KeyError`` from misuse of internals, …) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class FlowError(ReproError):
    """A flow-level operation failed (unknown flow, duplicate flow, ...)."""


class UnknownFlowError(FlowError):
    """An operation referenced a flow id that is not registered."""

    def __init__(self, flow_id: object) -> None:
        super().__init__(f"unknown flow id: {flow_id!r}")
        self.flow_id = flow_id


class DuplicateFlowError(FlowError):
    """``add_flow`` was called with a flow id that is already registered."""

    def __init__(self, flow_id: object) -> None:
        super().__init__(f"flow id already registered: {flow_id!r}")
        self.flow_id = flow_id


class InvalidWeightError(FlowError):
    """A flow weight is outside the scheduler's accepted domain."""


class AdmissionError(ReproError):
    """A reservation could not be admitted (insufficient free capacity)."""


class CapacityError(ConfigurationError):
    """A link or scheduler capacity parameter is invalid."""


class SimulationError(ReproError):
    """The discrete-event simulator detected an inconsistent state."""


class ArtifactError(ReproError):
    """A results/trace artifact is missing, truncated, or has the wrong
    schema. Raised by loaders instead of leaking ``json.JSONDecodeError``
    (or worse, silently returning garbage) on partial writes."""


class SLOViolation(ReproError):
    """A flow's observed delay exceeded its quoted/targeted bound.

    The control-plane twin of :class:`InvariantViolation`: raised (or
    recorded) by the per-flow SLO watchdog when a delivered packet's
    end-to-end delay exceeds the bound the admission controller quoted
    (or an explicit per-class target). Structured the same way so
    failures are diagnosable from the exception alone — the flow and its
    service class, the observed delay vs the target, a ``details`` dict,
    and the trace window leading up to the late delivery when a tracer
    was active.
    """

    def __init__(
        self,
        flow_id: object,
        observed_s: float,
        target_s: float,
        service_class: str = "?",
        details: object = None,
        trace_window: object = None,
    ) -> None:
        self.flow_id = flow_id
        self.observed_s = observed_s
        self.target_s = target_s
        self.service_class = service_class
        self.details = dict(details or {})
        self.trace_window = list(trace_window or [])
        parts = [
            f"SLO violated for flow {flow_id!r} [{service_class}]: "
            f"observed {observed_s * 1e3:.3f} ms > "
            f"target {target_s * 1e3:.3f} ms"
        ]
        if self.details:
            parts.append(
                "; ".join(f"{k}={v!r}" for k, v in sorted(self.details.items()))
            )
        if self.trace_window:
            parts.append(f"last {len(self.trace_window)} trace events attached")
        super().__init__(" — ".join(parts))


class InvariantViolation(ReproError):
    """A runtime invariant guard caught corrupted scheduler state.

    Structured so failures are diagnosable from the exception alone: the
    named ``check`` that fired, the scheduler it fired on, a ``details``
    dict with the offending values, and — when a tracer was active — the
    ``trace_window`` of packet events leading up to the violation.
    """

    def __init__(
        self,
        check: str,
        scheduler: str = "?",
        details: object = None,
        trace_window: object = None,
    ) -> None:
        self.check = check
        self.scheduler = scheduler
        self.details = dict(details or {})
        self.trace_window = list(trace_window or [])
        parts = [f"invariant {check!r} violated on scheduler {scheduler!r}"]
        if self.details:
            parts.append(
                "; ".join(f"{k}={v!r}" for k, v in sorted(self.details.items()))
            )
        if self.trace_window:
            parts.append(f"last {len(self.trace_window)} trace events attached")
        super().__init__(" — ".join(parts))
