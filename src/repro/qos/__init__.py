"""QoS control plane: admission control and end-to-end delay quotes.

The data plane (schedulers, ports) enforces per-flow service; this
package is the control plane the paper assumes exists around it — a call
admission controller tracking per-link reservations and quoting
end-to-end delay bounds per the LR-server composition (Corollary 1),
plus the adaptive overload controller (:mod:`repro.qos.control`) that
closes the loop: rate estimation, watermark admission with probabilistic
shedding, SLO watchdogs, and graceful degradation under churn.
"""

from .admission import AdmissionController, DelayQuote, Reservation
from .control import (
    AdmissionDecision,
    ControlPlane,
    EWMARateEstimator,
    OverloadGovernor,
    RateEstimatorBank,
    SLOWatchdog,
    WatermarkPolicy,
    WeightAdapter,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ControlPlane",
    "DelayQuote",
    "EWMARateEstimator",
    "OverloadGovernor",
    "RateEstimatorBank",
    "Reservation",
    "SLOWatchdog",
    "WatermarkPolicy",
    "WeightAdapter",
]
