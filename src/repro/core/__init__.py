"""Core of the reproduction: the SRR scheduler and its data structures.

Public surface:

* :class:`~repro.core.srr.SRRScheduler` — the paper's contribution;
* :mod:`~repro.core.wss` — the Weight Spread Sequence;
* :class:`~repro.core.weight_matrix.WeightMatrix` — binary weight coding;
* :class:`~repro.core.packet.Packet` — the packet record;
* :class:`~repro.core.interfaces.PacketScheduler` — the interface every
  scheduler (core, baseline, extension) implements.
"""

from .errors import (
    AdmissionError,
    ArtifactError,
    CapacityError,
    ConfigurationError,
    DuplicateFlowError,
    FlowError,
    InvalidWeightError,
    InvariantViolation,
    ReproError,
    SLOViolation,
    SimulationError,
    UnknownFlowError,
)
from .flow import FlowState, check_weight
from .hierarchy import HierarchicalScheduler
from .interfaces import FlowTableScheduler, PacketScheduler
from .opcount import NULL_COUNTER, NullOpCounter, OpCounter
from .packet import Packet
from .srr import SRRScheduler
from .weight_matrix import ColumnList, WeightMatrix
from .wss import (
    FoldedWSS,
    MaterializedWSS,
    WSSCursor,
    iter_wss,
    value_count,
    value_positions,
    wss_length,
    wss_sequence,
    wss_sequence_recursive,
    wss_term,
)

__all__ = [
    "AdmissionError",
    "ArtifactError",
    "CapacityError",
    "ColumnList",
    "ConfigurationError",
    "DuplicateFlowError",
    "FlowError",
    "FlowState",
    "FlowTableScheduler",
    "HierarchicalScheduler",
    "FoldedWSS",
    "InvalidWeightError",
    "InvariantViolation",
    "MaterializedWSS",
    "NULL_COUNTER",
    "NullOpCounter",
    "OpCounter",
    "Packet",
    "PacketScheduler",
    "ReproError",
    "SLOViolation",
    "SRRScheduler",
    "SimulationError",
    "UnknownFlowError",
    "WSSCursor",
    "WeightMatrix",
    "check_weight",
    "iter_wss",
    "value_count",
    "value_positions",
    "wss_length",
    "wss_sequence",
    "wss_sequence_recursive",
    "wss_term",
]
