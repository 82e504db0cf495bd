"""The microbenchmark suite behind ``python -m repro.perf``.

Four groups, each timing the layer above it:

``event_loop``
    Raw :class:`~repro.net.engine.Simulator` throughput (events/s) under
    the classic *hold* model — a standing population of self-rescheduling
    events — for each queue backend. This is the bench the calendar-vs-
    heap claim rests on.

``scheduler_dequeue``
    Per-dequeue cost (packets/s) of saturated SRR/DRR/IWRR/WFQ
    schedulers at N ∈ {16, 512, 4096} flows, no simulator involved.

``end_to_end``
    A full E5-scale network scenario (SRR bottleneck, hundreds of CBR
    flows) run under each backend — the number every experiment actually
    feels. A third entry replays the identical scenario through the
    lean loop (:mod:`repro.fastpath.netloop`) on SRR's scalar lane; its
    params carry ``core: "fast"`` instead of an ``engine`` key because
    no event queue is involved, and since its work items (packets
    delivered) are not commensurable with the event-loop runs' events,
    the lean-vs-engine ratio is compared on mean *round time*
    (:func:`repro.perf.report.fastpath_speedup`), not throughput.

``shard_scaling``
    The conservative-lookahead sharded engine (:mod:`repro.shard`) on a
    k=4 fat-tree at 1/2/4 shard processes — wall clock includes worker
    spawn, per-shard build, every barrier and the final merge. On a
    multi-core host the curve should bend toward linear; on a 1-core
    host it measures pure protocol overhead. Either way the baseline
    gate catches regressions in the barrier path.

Each benchmark returns per-round wall times plus a work-item count, from
which the report layer derives pytest-benchmark-compatible stats. Round
counts shrink under ``--quick`` but the benchmark *names and sizes* do
not, so a quick CI run remains comparable against the committed
default-scale baseline.
"""

from __future__ import annotations

import os
import random
import time
from typing import Callable, Dict, List, Tuple

from ..bench.scenarios import single_bottleneck_network
from ..bench.workloads import build_loaded_scheduler, geometric_weights
from ..fastpath.netloop import run_single_bottleneck_fast
from ..net.engine import Simulator
from ..net.eventq import ENGINE_ENV_VAR

__all__ = [
    "Benchmark",
    "BenchResult",
    "all_benchmarks",
    "run_benchmark",
    "measure_obs_overhead",
]

#: Queue backends compared by the engine-level groups.
_ENGINES = ("heap", "calendar")

#: The event-loop hold model's standing event population (the acceptance
#: bar is calendar >= 1.5x heap at >= 10k concurrent events).
_HOLD_POPULATION = 10_000
_HOLD_CHURN = 30_000

#: Scheduler-dequeue sweep sizes (matches E5's flow-count ladder).
_DEQUEUE_SIZES = (16, 512, 4096)
_DEQUEUE_PULLS = 20_000

#: End-to-end scenario size: an SRR bottleneck at E5-like flow counts.
_E2E_FLOWS = 256
_E2E_UNTIL = 2.0

#: Shard-scaling sweep: a k=4 fat-tree run whole, then split across
#: processes. Wall time includes worker spawn + per-shard build — the
#: real cost a sharded run pays.
_SHARD_COUNTS = (1, 2, 4)
_SHARD_FAT_TREE_K = 4
_SHARD_UNTIL = 0.4


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


def _hold_round(kind: str, population: int, churn: int) -> Tuple[float, int]:
    """One hold-model round: time ``population + churn`` event pops."""
    rng = random.Random(42)
    deltas = [rng.random() * 0.02 for _ in range(4096)]
    sim = Simulator(queue=kind)
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


def _e2e_round(kind: str, n_flows: int, until: float) -> Tuple[float, int]:
    """One end-to-end round: build and run an SRR bottleneck scenario.

    The scenario builder owns its Simulator (ports capture it at link
    creation), so the backend is selected the same way the harness does
    it: through the process-default environment variable.
    """
    saved = os.environ.get(ENGINE_ENV_VAR)
    os.environ[ENGINE_ENV_VAR] = kind
    try:
        net = single_bottleneck_network("srr", n_flows)
    finally:
        if saved is None:
            os.environ.pop(ENGINE_ENV_VAR, None)
        else:
            os.environ[ENGINE_ENV_VAR] = saved
    assert net.sim.queue_kind == kind
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


def _shard_round(shards: int, until: float) -> Tuple[float, int]:
    """One sharded round: a fat-tree run on ``shards`` processes.

    Uses run_sharded's own wall clock (spawn + build + barriers + merge)
    and asserts nothing about digests — the equivalence tests and the CI
    digest job own correctness; this group owns the scaling curve.
    """
    from ..net.scenario import fat_tree
    from ..shard.engine import run_sharded

    spec = fat_tree(k=_SHARD_FAT_TREE_K)
    result = run_sharded(spec, until=until, shards=shards)
    return result.wall_time_s, result.events


def all_benchmarks() -> List[Benchmark]:
    """The full suite, in report order."""
    benches: List[Benchmark] = []
    for kind in _ENGINES:
        benches.append(Benchmark(
            "event_loop",
            f"event_loop[{kind}-n{_HOLD_POPULATION}]",
            {"engine": kind, "population": _HOLD_POPULATION,
             "churn": _HOLD_CHURN},
            lambda kind=kind: _hold_round(
                kind, _HOLD_POPULATION, _HOLD_CHURN
            ),
        ))
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
    for kind in _ENGINES:
        benches.append(Benchmark(
            "end_to_end",
            f"e2e_srr_bottleneck[{kind}-n{_E2E_FLOWS}]",
            {"engine": kind, "n_flows": _E2E_FLOWS, "until": _E2E_UNTIL},
            lambda kind=kind: _e2e_round(kind, _E2E_FLOWS, _E2E_UNTIL),
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
    for shards in _SHARD_COUNTS:
        benches.append(Benchmark(
            "shard_scaling",
            f"shard[fat_tree-k{_SHARD_FAT_TREE_K}-s{shards}]",
            {"shards": shards, "k": _SHARD_FAT_TREE_K,
             "until": _SHARD_UNTIL},
            lambda shards=shards: _shard_round(shards, _SHARD_UNTIL),
            rounds=3,
            quick_rounds=1,
        ))
    return benches


def measure_obs_overhead(
    *,
    quick: bool = False,
    sample_shift: int = 6,
    rounds: int = 0,
    tolerance: float = 3.0,
) -> List[Dict]:
    """Measure the armed flight-recorder cost on the hot benchmarks.

    For the event-loop hold model (whose hot loop must never consult the
    recorder) and the end-to-end lean replay (whose scalar lane carries
    the sampling branches), each arm is timed in its own
    *subprocess* — recorder-off children against children armed through
    ``REPRO_FLIGHT`` (so the gate also exercises the worker env
    activation path) — and the arms' per-child best rounds are
    compared.
    ``sample_shift=6`` (1-in-64) is the production default the <= 3% CI
    gate budgets for.

    Subprocess isolation is not ceremony. A real run is armed or off for
    its whole life, and the armed twin classes (see
    :func:`repro.core.lane.flight_twin`) specialise exactly as well
    as the bare ones — but *alternating* arms inside one process makes
    every shared code object (lane push/pull, op bumps, the netloop body)
    flip between instance types, and CPython 3.11's adaptive interpreter
    de-specialises under the flip-flop: measured "overhead" was 5-45%
    depending on round order, all of it interpreter-cache thrash that no
    production workload sees. Per-process arms measure the deployable
    quantity. Within each child, garbage collection is forced before and
    disabled during every timed round, and the child processes alternate
    off/armed over time so thermal and load drift hit both arms equally.

    The reported overhead is the **smaller of two cross-arm ratios**:
    global-min vs global-min and median vs median of the per-child
    minima. Min-of-rounds inside one child rejects the additive
    scheduling noise of a shared runner, but identical children were
    measured to spread ~14% in their minima when multi-second load
    bursts poison a child's whole life. The two ratios fail under
    *different* noise events — min-vs-min misfires only when one arm
    never catches a quiet window, median-vs-median only when most
    children of one arm are bursty — while a real regression inflates
    both equally (each arm's minimum is bounded below by its true
    floor). Taking the smaller therefore suppresses single-sided noise
    (phantom swings of -4%..+7% against a ~1% true cost, measured)
    without losing sensitivity to genuine cost. A case that still reads
    above ``tolerance`` is re-measured once with twice the children and
    the confirmation estimate decides.
    """
    import json
    import statistics
    import subprocess
    import sys

    from ..obs.flight import FLIGHT_ENV_VAR

    if rounds <= 0:
        rounds = 16 if quick else 24
    procs_per_arm = 6
    cases = [
        (f"event_loop[calendar-n{_HOLD_POPULATION}]", "hold"),
        (f"e2e_srr_bottleneck[fastpath-n{_E2E_FLOWS}]", "e2e_fast"),
    ]

    child_src = (
        "import gc, json, sys\n"
        "from repro.perf import benchmarks as B\n"
        "case, rounds = sys.argv[1], int(sys.argv[2])\n"
        "fn = {\n"
        "    'hold': lambda: B._hold_round(\n"
        "        'calendar', B._HOLD_POPULATION, B._HOLD_CHURN),\n"
        "    'e2e_fast': lambda: B._e2e_fast_round(\n"
        "        B._E2E_FLOWS, B._E2E_UNTIL),\n"
        "}[case]\n"
        "fn()\n"  # warmup: imports, allocator, specialization
        "best, work = None, 0\n"
        "for _ in range(rounds):\n"
        "    gc.collect(); gc.disable()\n"
        "    try:\n"
        "        t, work = fn()\n"
        "    finally:\n"
        "        gc.enable()\n"
        "    best = t if best is None or t < best else best\n"
        "print(json.dumps({'best': best, 'work': work}))\n"
    )

    # Wherever this package was imported from, the children must find it.
    pkg_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

    def _child(case_key: str, armed: bool) -> Tuple[float, int]:
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            pkg_root + os.pathsep + existing if existing else pkg_root
        )
        if armed:
            env[FLIGHT_ENV_VAR] = str(sample_shift)
        else:
            env.pop(FLIGHT_ENV_VAR, None)
        proc = subprocess.run(
            [sys.executable, "-c", child_src, case_key, str(rounds)],
            env=env, capture_output=True, text=True, check=True,
        )
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        return payload["best"], payload["work"]

    def _measure(case_key: str, n_pairs: int) -> Tuple[List[float], List[float], int]:
        off: List[float] = []
        armed: List[float] = []
        work = 0
        for _ in range(n_pairs):
            elapsed, work = _child(case_key, armed=False)
            off.append(elapsed)
            elapsed, work = _child(case_key, armed=True)
            armed.append(elapsed)
        return off, armed, work

    def _overhead(off: List[float], armed: List[float]) -> float:
        min_ratio = min(armed) / min(off)
        med_ratio = statistics.median(armed) / statistics.median(off)
        return (min(min_ratio, med_ratio) - 1.0) * 100.0

    out: List[Dict] = []
    for name, case_key in cases:
        off, armed, work = _measure(case_key, procs_per_arm)
        pct = _overhead(off, armed)
        n_pairs = procs_per_arm
        if pct > tolerance:
            # Confirmation pass: a reading past the CI tolerance on this
            # class of shared runner is usually a one-sided load burst,
            # not cost (the true overhead was budgeted per component at
            # ~1-2%). Re-measure the case once with twice the children
            # and let the better-powered estimate decide; a genuine
            # regression inflates the re-measure just the same, so this
            # only suppresses noise, never a real cost.
            off, armed, work = _measure(case_key, procs_per_arm * 2)
            pct = _overhead(off, armed)
            n_pairs += procs_per_arm * 2
        out.append({
            "name": name,
            "rounds": rounds * n_pairs,
            "sample_shift": sample_shift,
            "work_items": work,
            "off_s": min(off),
            "armed_s": min(armed),
            "overhead_pct": pct,
        })
    return out


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
