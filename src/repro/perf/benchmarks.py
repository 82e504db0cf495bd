"""The microbenchmark suite behind ``python -m repro.perf``.

Three groups, each timing the layer above it:

``event_loop``
    Raw :class:`~repro.net.engine.Simulator` throughput (events/s) on
    its calendar queue under the classic *hold* model — a standing
    population of self-rescheduling events.

``scheduler_dequeue``
    Per-dequeue cost (packets/s) of saturated SRR/DRR/IWRR/WFQ
    schedulers at N ∈ {16, 512, 4096} flows, no simulator involved.

``end_to_end``
    A full E5-scale network scenario (SRR bottleneck, hundreds of CBR
    flows) on the event engine — the number every experiment actually
    feels. A second entry replays the identical scenario through the
    lean loop (:mod:`repro.fastpath.netloop`) on SRR's scalar lane; its
    params carry ``core: "fast"`` instead of an ``engine`` key because
    no event queue is involved, and since its work items (packets
    delivered) are not commensurable with the event-loop runs' events,
    the lean-vs-engine ratio is compared on mean *round time*
    (:func:`repro.perf.report.fastpath_speedup`), not throughput.

The engine rows keep their ``calendar`` name and ``engine`` param so
they match the committed baseline rows by name.

Each benchmark returns per-round wall times plus a work-item count, from
which the report layer derives pytest-benchmark-compatible stats. Round
counts shrink under ``--quick`` but the benchmark *names and sizes* do
not, so a quick CI run remains comparable against the committed
default-scale baseline.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Tuple

from ..bench.scenarios import single_bottleneck_network
from ..bench.workloads import build_loaded_scheduler, geometric_weights
from ..fastpath.netloop import run_single_bottleneck_fast
from ..net.engine import Simulator

__all__ = [
    "Benchmark",
    "BenchResult",
    "all_benchmarks",
    "run_benchmark",
]

#: The event-loop hold model's standing event population.
_HOLD_POPULATION = 10_000
_HOLD_CHURN = 30_000

#: Scheduler-dequeue sweep sizes (matches E5's flow-count ladder).
_DEQUEUE_SIZES = (16, 512, 4096)
_DEQUEUE_PULLS = 20_000

#: End-to-end scenario size: an SRR bottleneck at E5-like flow counts.
_E2E_FLOWS = 256
_E2E_UNTIL = 2.0


class Benchmark:
    """One named benchmark: a setup-free callable timed over rounds."""

    __slots__ = ("group", "name", "params", "fn", "rounds", "quick_rounds")

    def __init__(
        self,
        group: str,
        name: str,
        params: Dict,
        fn: Callable[[], Tuple[float, int]],
        *,
        rounds: int = 5,
        quick_rounds: int = 2,
    ) -> None:
        self.group = group
        self.name = name
        self.params = params
        self.fn = fn
        self.rounds = rounds
        self.quick_rounds = quick_rounds


class BenchResult:
    """Raw timings for one benchmark: seconds per round + work items."""

    __slots__ = ("benchmark", "times", "work_items")

    def __init__(
        self, benchmark: Benchmark, times: List[float], work_items: int
    ) -> None:
        self.benchmark = benchmark
        self.times = times
        self.work_items = work_items

    @property
    def mean(self) -> float:
        return sum(self.times) / len(self.times)

    @property
    def throughput(self) -> float:
        """Work items per second at the mean round time."""
        return self.work_items / self.mean if self.mean > 0 else 0.0


def _hold_round(population: int, churn: int) -> Tuple[float, int]:
    """One hold-model round: time ``population + churn`` event pops."""
    rng = random.Random(42)
    deltas = [rng.random() * 0.02 for _ in range(4096)]
    sim = Simulator()
    state = [0]

    def tick() -> None:
        c = state[0]
        if c < churn:
            state[0] = c + 1
            sim.schedule(deltas[c & 4095], tick)

    for i in range(population):
        sim.schedule(deltas[i & 4095], tick)
    t0 = time.perf_counter()
    processed = sim.run()
    elapsed = time.perf_counter() - t0
    assert processed == population + churn
    return elapsed, processed


def _dequeue_round(name: str, n_flows: int, pulls: int) -> Tuple[float, int]:
    """One scheduler round: time ``pulls`` dequeues at size N (the
    scheduler is built and saturated outside the timed section)."""
    per_flow = max(2, -(-pulls // n_flows))  # ceil: never drain a flow
    sched = build_loaded_scheduler(
        name, geometric_weights(n_flows), per_flow, quantum=200
    ) if name in ("srr", "drr") else build_loaded_scheduler(
        name, geometric_weights(n_flows), per_flow
    )
    dequeue = sched.dequeue
    t0 = time.perf_counter()
    for _ in range(pulls):
        dequeue()
    elapsed = time.perf_counter() - t0
    return elapsed, pulls


def _e2e_round(n_flows: int, until: float) -> Tuple[float, int]:
    """One end-to-end round: build and run an SRR bottleneck scenario."""
    net = single_bottleneck_network("srr", n_flows)
    t0 = time.perf_counter()
    net.run(until=until)
    elapsed = time.perf_counter() - t0
    return elapsed, net.sim.events_processed


def _e2e_fast_round(n_flows: int, until: float) -> Tuple[float, int]:
    """One lean-loop round: the same SRR bottleneck, no event engine."""
    t0 = time.perf_counter()
    run = run_single_bottleneck_fast(n_flows, until)
    elapsed = time.perf_counter() - t0
    return elapsed, run.forwarded


def all_benchmarks() -> List[Benchmark]:
    """The full suite, in report order."""
    benches: List[Benchmark] = [Benchmark(
        "event_loop",
        f"event_loop[calendar-n{_HOLD_POPULATION}]",
        {"engine": "calendar", "population": _HOLD_POPULATION,
         "churn": _HOLD_CHURN},
        lambda: _hold_round(_HOLD_POPULATION, _HOLD_CHURN),
    )]
    for sched in ("srr", "drr", "iwrr", "wfq"):
        for n in _DEQUEUE_SIZES:
            benches.append(Benchmark(
                "scheduler_dequeue",
                f"dequeue[{sched}-n{n}]",
                {"scheduler": sched, "n_flows": n, "pulls": _DEQUEUE_PULLS},
                lambda sched=sched, n=n: _dequeue_round(
                    sched, n, _DEQUEUE_PULLS
                ),
                rounds=3,
                quick_rounds=1,
            ))
    benches.append(Benchmark(
        "end_to_end",
        f"e2e_srr_bottleneck[calendar-n{_E2E_FLOWS}]",
        {"engine": "calendar", "n_flows": _E2E_FLOWS, "until": _E2E_UNTIL},
        lambda: _e2e_round(_E2E_FLOWS, _E2E_UNTIL),
        rounds=3,
        quick_rounds=1,
    ))
    benches.append(Benchmark(
        "end_to_end",
        f"e2e_srr_bottleneck[fastpath-n{_E2E_FLOWS}]",
        {"core": "fast", "n_flows": _E2E_FLOWS, "until": _E2E_UNTIL},
        lambda: _e2e_fast_round(_E2E_FLOWS, _E2E_UNTIL),
        rounds=3,
        quick_rounds=1,
    ))
    return benches


def run_benchmark(bench: Benchmark, *, quick: bool = False) -> BenchResult:
    """Run one benchmark: one discarded warmup round, then the timed ones."""
    bench.fn()  # warmup: import costs, allocator warm, caches primed
    rounds = bench.quick_rounds if quick else bench.rounds
    times: List[float] = []
    work = 0
    for _ in range(rounds):
        elapsed, work = bench.fn()
        times.append(elapsed)
    return BenchResult(bench, times, work)
