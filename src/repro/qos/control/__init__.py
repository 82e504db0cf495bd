"""Adaptive overload control plane: estimation, admission, degradation.

The static :class:`~repro.qos.admission.AdmissionController` quotes a
delay bound at reservation time and never looks at the network again.
This package closes the loop:

* :mod:`~repro.qos.control.estimators` — deterministic EWMA **rate
  estimators**, fed from the output ports' arrival hooks (per-port
  offered load, per-flow rates).
* :mod:`~repro.qos.control.policy` — the **watermark admission policy**:
  admit below the low watermark, shed probabilistically (seeded RNG,
  bit-identical across ``--jobs``) between low and high, reject above
  high.
* :mod:`~repro.qos.control.slo` — the per-flow **SLO watchdog** raising
  structured :class:`~repro.core.errors.SLOViolation` (with a trace
  window, like :class:`~repro.core.errors.InvariantViolation`)
  when a delivered packet's delay exceeds its quoted bound.
* :mod:`~repro.qos.control.governor` — **graceful degradation**: demote
  best-effort classes under overload, re-quote or revoke reservations
  when measured load invalidates the assumed-max-flows bound, and nudge
  SRR weights / DRR quanta toward per-class delay SLOs.
* :mod:`~repro.qos.control.plane` — :class:`ControlPlane`, the periodic
  controller tying it all together and exporting counters/gauges.
"""

from .estimators import EWMARateEstimator, RateEstimatorBank
from .governor import OverloadGovernor, WeightAdapter
from .plane import ControlPlane
from .policy import AdmissionDecision, WatermarkPolicy
from .slo import SLOWatchdog

__all__ = [
    "AdmissionDecision",
    "ControlPlane",
    "EWMARateEstimator",
    "OverloadGovernor",
    "RateEstimatorBank",
    "SLOWatchdog",
    "WatermarkPolicy",
    "WeightAdapter",
]
