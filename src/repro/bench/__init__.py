"""The experiment harness regenerating every table/figure (see DESIGN.md).

``python -m repro.bench e3`` reruns experiment E3; ``--scale quick``
(or ``--quick``) shrinks simulation scale, ``--jobs N`` fans sweeps out
over a process pool, ``--seed``/``--set key=value`` pin the run, and
every run writes a ``results/<exp>/<timestamp>-<seed>.json`` artifact.
From Python, ``run_experiment("e3", **params)`` returns the summary
metrics the pytest-benchmark suite in ``benchmarks/`` asserts on, and
``run_config`` the full run record; the typed specs live in
:data:`repro.bench.experiments.SPECS` and the run machinery in
:mod:`repro.harness`.
"""

from .experiments import SPECS
from .runner import run_config, run_experiment
from .scenarios import (
    BOTTLENECK_BPS,
    MTU,
    WEIGHT_UNIT_BPS,
    dumbbell_network,
    single_bottleneck_network,
)
from .workloads import (
    build_loaded_scheduler,
    geometric_weights,
    ops_per_packet,
    ops_profile,
    service_sequence,
    uniform_weights,
)

__all__ = [
    "BOTTLENECK_BPS",
    "SPECS",
    "MTU",
    "WEIGHT_UNIT_BPS",
    "build_loaded_scheduler",
    "dumbbell_network",
    "geometric_weights",
    "ops_per_packet",
    "ops_profile",
    "run_config",
    "run_experiment",
    "service_sequence",
    "single_bottleneck_network",
    "uniform_weights",
]
