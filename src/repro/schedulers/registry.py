"""Name -> scheduler factory registry.

The benchmark harness and the network simulator refer to scheduling
disciplines by short names (``"srr"``, ``"drr"``, ``"wfq"``, ...); this
module resolves them. Extensions (RRR, G-3) register themselves on import
of :mod:`repro.extensions`, keeping the dependency direction clean
(core/schedulers never import extensions at module load).

Both :func:`create_scheduler` and :func:`available_schedulers` load the
extension package lazily on first use, so every entry point — the bench
CLI, ``Network(default_scheduler="g3")``, sweep worker processes, tests —
sees the same complete registry without having to remember a manual
``import repro.extensions``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..core.errors import ConfigurationError
from ..core.interfaces import PacketScheduler
from ..core.srr import SRRScheduler
from .drr import DRRScheduler
from .fifo import FIFOScheduler
from .iwrr import IWRRScheduler
from .rr import RoundRobinScheduler
from .scfq import SCFQScheduler
from .stfq import STFQScheduler
from .strr import StratifiedRRScheduler
from .virtual_clock import VirtualClockScheduler
from .wf2q import WF2QPlusScheduler
from .wfq import WFQScheduler
from .wrr import WRRScheduler

__all__ = [
    "create_scheduler",
    "register_scheduler",
    "available_schedulers",
]

SchedulerFactory = Callable[..., PacketScheduler]

_REGISTRY: Dict[str, SchedulerFactory] = {
    SRRScheduler.name: SRRScheduler,
    DRRScheduler.name: DRRScheduler,
    FIFOScheduler.name: FIFOScheduler,
    IWRRScheduler.name: IWRRScheduler,
    RoundRobinScheduler.name: RoundRobinScheduler,
    SCFQScheduler.name: SCFQScheduler,
    STFQScheduler.name: STFQScheduler,
    StratifiedRRScheduler.name: StratifiedRRScheduler,
    VirtualClockScheduler.name: VirtualClockScheduler,
    WF2QPlusScheduler.name: WF2QPlusScheduler,
    WFQScheduler.name: WFQScheduler,
    WRRScheduler.name: WRRScheduler,
}


_extensions_loaded = False


def _load_extensions() -> None:
    """Import the lazily-registered extensions (rrr/g3) once; they
    self-register, keeping the dependency direction clean."""
    global _extensions_loaded
    if _extensions_loaded:
        return
    _extensions_loaded = True
    import repro.extensions  # noqa: F401


def register_scheduler(name: str, factory: SchedulerFactory) -> None:
    """Register (or replace) a scheduler factory under ``name``."""
    if not name:
        raise ConfigurationError("scheduler name must be non-empty")
    _REGISTRY[name] = factory


def create_scheduler(name: str, **kwargs) -> PacketScheduler:
    """Instantiate a scheduler by registry name, passing ``kwargs`` through."""
    _load_extensions()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; available: {available_schedulers()}"
        ) from None
    return factory(**kwargs)


def available_schedulers() -> List[str]:
    """Sorted list of registered scheduler names (extensions included)."""
    _load_extensions()
    return sorted(_REGISTRY)

