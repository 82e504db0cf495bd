"""The lean bottleneck replay (:mod:`repro.fastpath.netloop`).

The replay runs on SRR's scalar ``push``/``pull`` lane (packet mode;
see :class:`~repro.core.srr.SRRScheduler`); see ``docs/fastpath.md``.
"""

from __future__ import annotations

from ..core.srr import SRRScheduler

__all__ = ["FAST_CORES"]

#: Discipline name -> the scheduler class carrying the scalar lane.
#: :func:`repro.fastpath.netloop.run_single_bottleneck_fast` accepts
#: exactly these names.
FAST_CORES = {
    "srr": SRRScheduler,
}
