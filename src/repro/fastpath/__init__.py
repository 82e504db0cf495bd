"""The lean bottleneck replay (:mod:`repro.fastpath.netloop`).

The replay runs on the scalar ``push``/``pull`` lane
(:mod:`repro.core.lane`) of the reference scheduler cores; see
``docs/fastpath.md``.
"""

from __future__ import annotations

from ..core.srr import SRRScheduler
from ..schedulers.drr import DRRScheduler

__all__ = ["FAST_CORES"]

#: Discipline name -> the scheduler class carrying the scalar lane.
#: :func:`repro.fastpath.netloop.run_single_bottleneck_fast` accepts
#: exactly these names.
FAST_CORES = {
    "srr": SRRScheduler,
    "drr": DRRScheduler,
}
