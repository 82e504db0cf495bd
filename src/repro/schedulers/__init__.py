"""Baseline packet schedulers the paper compares against.

Round-robin family: :class:`~repro.schedulers.rr.RoundRobinScheduler`,
:class:`~repro.schedulers.wrr.WRRScheduler`,
:class:`~repro.schedulers.drr.DRRScheduler`.

Timestamp family: :class:`~repro.schedulers.wfq.WFQScheduler` (exact GPS
virtual time), :class:`~repro.schedulers.scfq.SCFQScheduler`,
:class:`~repro.schedulers.stfq.STFQScheduler`,
:class:`~repro.schedulers.wf2q.WF2QPlusScheduler`.

Degenerate: :class:`~repro.schedulers.fifo.FIFOScheduler`.
"""

from .drr import DRRScheduler
from .fifo import FIFOScheduler
from .registry import (
    available_schedulers,
    create_scheduler,
    register_scheduler,
)
from .rr import RoundRobinScheduler
from .scfq import SCFQScheduler
from .stfq import STFQScheduler
from .strr import StratifiedRRScheduler
from .virtual_clock import VirtualClockScheduler
from .wf2q import WF2QPlusScheduler
from .wfq import WFQScheduler
from .wrr import WRRScheduler

__all__ = [
    "DRRScheduler",
    "FIFOScheduler",
    "RoundRobinScheduler",
    "SCFQScheduler",
    "STFQScheduler",
    "StratifiedRRScheduler",
    "VirtualClockScheduler",
    "WF2QPlusScheduler",
    "WFQScheduler",
    "WRRScheduler",
    "available_schedulers",
    "create_scheduler",
    "register_scheduler",
]
