"""The experiments of EXPERIMENTS.md (E1–E14, E16), on the run harness.

Each experiment is declared as an :class:`~repro.harness.ExperimentSpec`:
a frozen dataclass of typed parameters (with ``quick``/``full`` scale
presets), plus a *body* that sweeps module-level point functions through
:meth:`RunContext.sweep` — so any experiment fans out across a process
pool with ``--jobs N`` while staying bit-identical to a serial run — and
emits its tables from the same per-point records that land in the
``results/`` JSON artifacts.

Run one from Python with ``repro.bench.run_experiment`` (the summary
metrics dict the pytest benches assert on) or ``repro.bench.run_config``
(the full :class:`~repro.harness.RunResult`).

Point functions are module-level (picklable) and self-contained: each
receives everything it needs as plain arguments, including its own seed
where stochastic, so results are keyed by sweep point and independent of
execution order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from ..analysis.bounds import (
    end_to_end_bound,
    g3_delay_bound,
    rrr_delay_bound,
    srr_delay_bound,
)
from ..analysis.fairness import gap_statistics, jain_index, worst_case_lag
from ..analysis.metrics import summarize_delays
from ..analysis.stats import summarize_replications
from ..core.packet import Packet
from ..core.wss import (
    FoldedWSS,
    MaterializedWSS,
    WSSCursor,
    value_count,
    wss_sequence,
)
from ..harness import ExperimentSpec, RunContext
from ..schedulers.registry import create_scheduler
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
    ops_profile,
    service_sequence,
)

__all__ = ["SPECS"]


# ---------------------------------------------------------------------------
# E1 — WSS definition table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E1Params:
    max_order: int = 10


def _e1_point(order: int) -> Dict:
    seq = wss_sequence(order)
    counts_ok = all(
        seq.count(v) == value_count(order, v)
        for v in range(1, order + 1)
    )
    spacing_ok = True
    for v in range(1, order + 1):
        positions = [i for i, x in enumerate(seq) if x == v]
        gaps = {b - a for a, b in zip(positions, positions[1:])}
        if gaps - {1 << v}:
            spacing_ok = False
    return {
        "order": order,
        "length": len(seq),
        "ones": seq.count(1),
        "counts_ok": counts_ok,
        "spacing_ok": spacing_ok,
    }


def _e1_body(p: E1Params, ctx: RunContext) -> Dict:
    """WSS examples and the term-frequency/spacing properties (E1)."""
    records = ctx.sweep(
        _e1_point, [(order,) for order in range(1, p.max_order + 1)]
    )
    ctx.add_points(records)
    ctx.table(
        ["order k", "len=2^k-1", "#value-1", "counts 2^(k-v)", "spacing 2^v"],
        records=records,
        columns=["order", "length", "ones", "counts_ok", "spacing_ok"],
        title="E1: Weight Spread Sequence properties "
              f"(WSS^4 = {wss_sequence(4)})",
    )
    return {
        "orders": p.max_order,
        "all_counts_ok": all(r["counts_ok"] for r in records),
        "all_spacing_ok": all(r["spacing_ok"] for r in records),
        "wss4": wss_sequence(4),
    }


# ---------------------------------------------------------------------------
# E2 — service smoothness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E2Params:
    schedulers: Tuple[str, ...] = ("srr", "wrr", "drr", "rr")
    n_flows: int = 12
    rounds: int = 8


def _e2_point(
    name: str,
    weights: Dict[int, int],
    rounds: int,
    heavy: int,
    light: int,
) -> Dict:
    # DRR's quantum is set to the packet size: in the fixed-size model
    # one visit then serves exactly `weight` packets, the honest
    # comparison (a 1500 B quantum would hide the burst inside gap=1
    # statistics while multiplying its size).
    kwargs = {"quantum": MTU} if name == "drr" else {}
    sched = build_loaded_scheduler(
        name,
        weights,
        packets_per_flow=rounds * max(weights.values()) + 8,
        **kwargs,
    )
    seq = service_sequence(sched, rounds * sum(weights.values()))
    flows = []
    for label, fid in (("heavy", heavy), ("light", light)):
        stats = gap_statistics(seq, fid)
        flows.append({
            "label": label,
            "flow": f"{label} (w={weights[fid]})",
            "weight": weights[fid],
            "services": stats.services,
            "min_gap": stats.min_gap,
            "max_gap": stats.max_gap,
            "mean_gap": round(stats.mean_gap, 2),
            "cv": round(stats.cv, 3),
        })
    return {"scheduler": name, "flows": flows}


def _e2_body(p: E2Params, ctx: RunContext) -> Dict:
    """Inter-service-distance statistics per scheduler (E2, claim C3).

    All flows stay backlogged; the flow with the largest weight is the
    tagged flow whose gap statistics are reported (it suffers the most
    from bursty service).
    """
    weights = geometric_weights(p.n_flows, max_exponent=4)
    total_weight = sum(weights.values())
    heavy = max(weights, key=lambda f: weights[f])
    light = min(weights, key=lambda f: weights[f])
    records = ctx.sweep(
        _e2_point,
        [(name, weights, p.rounds, heavy, light) for name in p.schedulers],
    )
    rows = [
        {"scheduler": r["scheduler"], **flow}
        for r in records for flow in r["flows"]
    ]
    ctx.add_points(rows)
    ctx.table(
        ["scheduler", "flow", "services", "min gap", "max gap",
         "mean gap", "gap CV"],
        records=rows,
        columns=["scheduler", "flow", "services", "min_gap", "max_gap",
                 "mean_gap", "cv"],
        title=(
            f"E2: inter-service distance, {p.n_flows} backlogged flows "
            f"(total weight {total_weight}); lower CV and max gap = smoother"
        ),
    )
    return {
        r["scheduler"]: {
            flow["label"]: {
                "max_gap": flow["max_gap"],
                "cv": flow["cv"],
                "services": flow["services"],
            }
            for flow in r["flows"]
        }
        for r in records
    }


# ---------------------------------------------------------------------------
# E3 — end-to-end delay in the dumbbell
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E3Params:
    schedulers: Tuple[str, ...] = ("srr", "drr", "wrr", "wfq")
    duration: float = 8.0
    n_background: int = 500
    repeats: int = 1


def _e3_point(
    name: str, rep: int, duration: float, n_background: int, base_seed: int
) -> Dict:
    net = dumbbell_network(
        name, n_background=n_background, seed=base_seed + 10 * rep
    )
    net.run(until=duration)
    flows = {}
    for fid in ("f1", "f2"):
        stats = summarize_delays(net.sinks.delays(fid))
        flows[fid] = {
            "mean_ms": stats.mean * 1e3,
            "p99_ms": stats.p99 * 1e3,
            "max_ms": stats.maximum * 1e3,
            "count": stats.count,
        }
    return {
        "scheduler": name,
        "rep": rep,
        "seed": base_seed + 10 * rep,
        "flows": flows,
        "engine": net.engine_stats(),
    }


def _e3_body(p: E3Params, ctx: RunContext) -> Dict:
    """The Fig. 8 dumbbell: delays of f1 (32 kb/s) and f2 (1024 kb/s) (E3).

    ``repeats > 1`` reruns each scheduler over that many best-effort
    sample paths (seeds ``seed, seed+10, ...``) and reports the mean
    with a 95% confidence half-width on the max-delay column.
    """
    tasks = [
        (name, rep, p.duration, p.n_background, ctx.seed)
        for name in p.schedulers for rep in range(p.repeats)
    ]
    records = ctx.sweep(_e3_point, tasks)
    ctx.add_points(records)
    for record in records:
        ctx.record_engine(record["engine"])
    results: Dict[str, Dict] = {}
    rows = []
    for name in p.schedulers:
        reps = [r for r in records if r["scheduler"] == name]
        per = {}
        for fid in ("f1", "f2"):
            maxes = [r["flows"][fid]["max_ms"] for r in reps]
            max_summary = summarize_replications(maxes)
            per[fid] = {
                "mean_ms": sum(r["flows"][fid]["mean_ms"] for r in reps)
                / p.repeats,
                "p99_ms": sum(r["flows"][fid]["p99_ms"] for r in reps)
                / p.repeats,
                "max_ms": max_summary.mean,
                "max_ci95_ms": max_summary.ci95,
                "packets": int(
                    sum(r["flows"][fid]["count"] for r in reps) / p.repeats
                ),
            }
            rows.append({
                "scheduler": name, "flow": fid,
                "packets": per[fid]["packets"],
                "mean_ms": round(per[fid]["mean_ms"], 2),
                "p99_ms": round(per[fid]["p99_ms"], 2),
                "max_ms": round(per[fid]["max_ms"], 2),
                "ci95_ms": round(max_summary.ci95, 2),
            })
        results[name] = per
    ctx.table(
        ["scheduler", "flow", "packets", "mean ms", "p99 ms", "max ms",
         "±95% CI"],
        records=rows,
        columns=["scheduler", "flow", "packets", "mean_ms", "p99_ms",
                 "max_ms", "ci95_ms"],
        title=(
            f"E3: end-to-end delay, dumbbell with {p.n_background} "
            f"background flows + Pareto best-effort, {p.duration:.0f}s "
            f"simulated, {p.repeats} replication(s)"
        ),
    )
    return results


# ---------------------------------------------------------------------------
# E4 — delay vs number of flows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E4Params:
    schedulers: Tuple[str, ...] = ("srr", "drr", "wfq")
    n_values: Tuple[int, ...] = (16, 64, 128, 256, 512)
    duration: float = 4.0
    tagged_rate_bps: int = 32_000


def _e4_point(name: str, n: int, duration: float, tagged_rate: int) -> Dict:
    net = single_bottleneck_network(name, n, tagged_rate_bps=tagged_rate)
    net.run(until=duration)
    delays = net.sinks.delays("tag")
    worst = max(delays) * 1e3 if delays else float("nan")
    return {
        "scheduler": name,
        "n": n,
        "max_ms": worst,
        "engine": net.engine_stats(),
    }


def _e4_body(p: E4Params, ctx: RunContext) -> Dict:
    """Tagged-flow max delay as N grows (E4, Theorem 1's linear-in-N).

    Includes the SRR analytic bound column (Lemma 2) for comparison.
    """
    # Fixed path components of single_bottleneck_network: access
    # serialisation + access propagation + bottleneck serialisation +
    # bottleneck propagation. The scheduler bound sits on top of these.
    base_delay = (
        MTU * 8.0 / (10 * BOTTLENECK_BPS)
        + 0.0005
        + MTU * 8.0 / BOTTLENECK_BPS
        + 0.001
    )
    tasks = [
        (name, n, p.duration, p.tagged_rate_bps)
        for n in p.n_values for name in p.schedulers
    ]
    records = ctx.sweep(_e4_point, tasks)
    ctx.add_points(records)
    for record in records:
        ctx.record_engine(record["engine"])
    results: Dict[str, Dict[int, float]] = {
        name: {} for name in p.schedulers
    }
    results["bound_ms"] = {}
    row_records = []
    for n in p.n_values:
        bound = base_delay + srr_delay_bound(
            weight=max(1, round(p.tagged_rate_bps / WEIGHT_UNIT_BPS)),
            n_flows=n + 1,
            packet_size=MTU,
            link_rate_bps=BOTTLENECK_BPS,
            weight_unit_bps=WEIGHT_UNIT_BPS,
        )
        results["bound_ms"][n] = bound * 1e3
        row = {"n": n, "bound_ms": round(bound * 1e3, 2)}
        for record in records:
            if record["n"] == n:
                name = record["scheduler"]
                results[name][n] = record["max_ms"]
                row[name] = round(record["max_ms"], 2)
        row_records.append(row)
    ctx.table(
        ["N", "SRR bound ms"] + [f"{name} max ms" for name in p.schedulers],
        records=row_records,
        columns=["n", "bound_ms"] + list(p.schedulers),
        title=(
            "E4: worst end-to-end delay of a 32 kb/s flow vs number of "
            "competing flows (saturated 10 Mb/s bottleneck)"
        ),
    )
    return results


# ---------------------------------------------------------------------------
# E5 — scheduling cost vs N (the O(1) claim)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E5Params:
    schedulers: Tuple[str, ...] = (
        "srr", "drr", "wrr", "iwrr", "strr", "wfq", "scfq", "stfq",
        "wf2q+", "vc", "g3", "rrr",
    )
    n_values: Tuple[int, ...] = (16, 64, 256, 1024, 4096)
    measure: int = 3000
    time_it: bool = False


def _e5_kwargs(name: str, n: int) -> Dict:
    if name in ("g3", "rrr"):
        return {"capacity": 1 << (n.bit_length() + 1)}
    return {}


def _time_per_packet(name: str, n_flows: int, **kwargs) -> float:
    sched = build_loaded_scheduler(
        name, {i: 1 for i in range(n_flows)}, packets_per_flow=3, **kwargs
    )
    count = min(2000, 3 * n_flows)
    start = time.perf_counter()
    for _ in range(count):
        sched.dequeue()
    return (time.perf_counter() - start) / count


def _e5_point(name: str, n: int, measure: int, time_it: bool) -> Dict:
    from ..obs.metrics import MetricsRegistry

    kwargs = _e5_kwargs(name, n)
    # A per-point registry: the dequeue_ops / wss_terms histograms travel
    # back with the record and merge deterministically in the parent (the
    # point may run in a pool worker).
    registry = MetricsRegistry()
    profile = ops_profile(name, n, measure=measure, registry=registry,
                          **kwargs)
    record = {
        "scheduler": name,
        "n": n,
        "mean_ops": round(profile["mean_ops"], 2),
        "p50_ops": int(profile["p50_ops"]),
        "p99_ops": int(profile["p99_ops"]),
        "worst_ops": int(profile["worst_ops"]),
        "total_ops": int(profile["total_ops"]),
        "served": int(profile["served"]),
        "metrics_snapshot": registry.snapshot(),
    }
    if "worst_scan_terms" in profile:
        record["p99_scan_terms"] = int(profile["p99_scan_terms"])
        record["worst_scan_terms"] = int(profile["worst_scan_terms"])
    if time_it:
        record["us_per_packet"] = round(
            _time_per_packet(name, n, **kwargs) * 1e6, 3
        )
    return record


def _e5_body(p: E5Params, ctx: RunContext) -> Dict:
    """Per-dequeue scheduling work distribution vs N (E5, the O(1) claim).

    Every decision is profiled individually, so the table reports the
    p50/p99/max work per dequeue — flat for SRR across N, growing for
    the timestamp schedulers — not just totals. The histograms land in
    the run's ``obs.metrics`` block (``python -m repro.obs report``).
    """
    tasks = [
        (name, n, p.measure, p.time_it)
        for name in p.schedulers for n in p.n_values
    ]
    records = ctx.sweep(_e5_point, tasks)
    for record in records:
        ctx.record_metrics(record.pop("metrics_snapshot"))
    ctx.add_points(records)
    ctx.record_engine({
        "ops": sum(r["total_ops"] for r in records),
        "packets_served": sum(r["served"] for r in records),
    })
    headers = ["scheduler", "N", "ops/packet", "p50", "p99", "worst ops"]
    columns = ["scheduler", "n", "mean_ops", "p50_ops", "p99_ops",
               "worst_ops"]
    if p.time_it:
        headers.append("us/packet")
        columns.append("us_per_packet")
    ctx.table(
        headers,
        records=records,
        columns=columns,
        title="E5: per-dequeue scheduling cost vs number of flows "
              "(flat p99 = O(1); growing = O(log N) or worse)",
    )
    results: Dict[str, Dict[int, float]] = {name: {} for name in p.schedulers}
    for record in records:
        results[record["scheduler"]][record["n"]] = record["mean_ops"]
    return results


# ---------------------------------------------------------------------------
# E6 — fairness table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E6Params:
    schedulers: Tuple[str, ...] = ("srr", "wrr", "drr", "wfq", "scfq", "rr")
    n_flows: int = 16
    rounds: int = 12


def _e6_point(name: str, weights: Dict[int, int], rounds: int) -> Dict:
    kwargs = {"quantum": MTU} if name == "drr" else {}
    total = sum(weights.values())
    sched = build_loaded_scheduler(
        name,
        weights,
        packets_per_flow=rounds * max(weights.values()) + 8,
        **kwargs,
    )
    seq = service_sequence(sched, rounds * total)
    counts = {f: seq.count(f) for f in weights}
    shares = [counts[f] / weights[f] for f in weights]
    jain = jain_index(shares)
    # Synthetic trace: slot index as time (fixed L makes this exact).
    trace = [(float(i), fid, MTU) for i, fid in enumerate(seq)]
    lag = worst_case_lag(trace, weights)
    worst_lag_pkts = max(lag.values()) / MTU
    return {
        "scheduler": name,
        "jain": round(jain, 4),
        "worst_lag_packets": round(worst_lag_pkts, 2),
        "jain_raw": jain,
        "worst_lag_raw": worst_lag_pkts,
    }


def _e6_body(p: E6Params, ctx: RunContext) -> Dict:
    """Throughput Jain index, worst normalised lag and SFI-style gap
    spread in a saturated single node (E6, claim C2)."""
    weights = geometric_weights(p.n_flows, max_exponent=3)
    records = ctx.sweep(
        _e6_point, [(name, weights, p.rounds) for name in p.schedulers]
    )
    ctx.add_points(records)
    ctx.table(
        ["scheduler", "Jain (weighted)", "worst lag (packets)"],
        records=records,
        columns=["scheduler", "jain", "worst_lag_packets"],
        title=(
            f"E6: weighted fairness over {p.rounds} rounds, {p.n_flows} "
            "backlogged flows (Jain of service/weight; fluid-lag in packets)"
        ),
    )
    return {
        r["scheduler"]: {
            "jain": r["jain_raw"],
            "worst_lag_packets": r["worst_lag_raw"],
        }
        for r in records
    }


# ---------------------------------------------------------------------------
# E7 — throughput guarantees under overload
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E7Params:
    schedulers: Tuple[str, ...] = ("srr", "drr", "wfq", "fifo")
    duration: float = 6.0
    n_background: int = 100


def _e7_point(name: str, duration: float, n_background: int, seed: int) -> Dict:
    # Heavy overload: the two best-effort sources alone offer ~1.6x
    # the bottleneck rate, so without isolation the reserved flows
    # queue behind a permanently growing best-effort backlog.
    net = dumbbell_network(
        name,
        n_background=n_background,
        best_effort_peak_bps=16_000_000,
        be_max_queue=2000,
        seed=seed,
    )
    net.run(until=duration)
    warmup = min(1.0, duration / 4)
    flows = {}
    for fid, reserved in (("f1", 32_000), ("f2", 1_024_000)):
        rec = net.sinks.flow(fid)
        goodput = rec.throughput_bps(warmup, duration)
        delays = net.sinks.delays(fid)
        max_ms = max(delays) * 1e3 if delays else float("nan")
        flows[fid] = {
            "goodput_bps": goodput,
            "reserved_bps": reserved,
            "max_ms": max_ms,
        }
    return {"scheduler": name, "flows": flows, "engine": net.engine_stats()}


def _e7_body(p: E7Params, ctx: RunContext) -> Dict:
    """Reserved flows' goodput vs reservation with best-effort overload (E7).

    FIFO is included to show the failure mode the QoS schedulers prevent.
    """
    records = ctx.sweep(
        _e7_point,
        [(name, p.duration, p.n_background, ctx.seed)
         for name in p.schedulers],
    )
    ctx.add_points(records)
    for record in records:
        ctx.record_engine(record["engine"])
    rows = []
    for record in records:
        for fid, flow in record["flows"].items():
            rows.append({
                "scheduler": record["scheduler"],
                "flow": fid,
                "reserved_kbps": flow["reserved_bps"] / 1e3,
                "goodput_kbps": round(flow["goodput_bps"] / 1e3, 1),
                "ratio": round(flow["goodput_bps"] / flow["reserved_bps"], 3),
                "max_ms": round(flow["max_ms"], 1),
            })
    ctx.table(
        ["scheduler", "flow", "reserved kb/s", "goodput kb/s", "ratio",
         "max delay ms"],
        records=rows,
        columns=["scheduler", "flow", "reserved_kbps", "goodput_kbps",
                 "ratio", "max_ms"],
        title=(
            f"E7: reserved-flow goodput under best-effort overload, "
            f"{p.n_background} background flows, {p.duration:.0f}s"
        ),
    )
    return {r["scheduler"]: r["flows"] for r in records}


# ---------------------------------------------------------------------------
# E8 — G-3 vs SRR vs RRR (the supplied text's Fig. 9)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E8Params:
    schedulers: Tuple[str, ...] = ("g3", "srr", "rrr")
    duration: float = 8.0
    n_background: int = 500


def _e8_point(name: str, duration: float, n_background: int, seed: int) -> Dict:
    net = dumbbell_network(name, n_background=n_background, seed=seed)
    net.run(until=duration)
    flows = {}
    for fid in ("f1", "f2"):
        stats = summarize_delays(net.sinks.delays(fid))
        flows[fid] = {
            "max_ms": stats.maximum * 1e3,
            "mean_ms": stats.mean * 1e3,
        }
    return {"scheduler": name, "flows": flows, "engine": net.engine_stats()}


def _e8_body(p: E8Params, ctx: RunContext) -> Dict:
    """Extension experiment: the follow-on paper's Fig. 9 comparison (E8).

    Analytic G-3 end-to-end bounds for the two bottleneck hops plus 20 ms
    propagation: ~122 ms for f1, ~25.8 ms for f2 — printed alongside.
    """
    capacity_units = BOTTLENECK_BPS // WEIGHT_UNIT_BPS
    bounds = {
        "f1": end_to_end_bound(
            0, 32_000,
            [g3_delay_bound(2, capacity_units, MTU, BOTTLENECK_BPS)] * 2,
        ) + 0.020 + 2 * 0.001,
        "f2": end_to_end_bound(
            0, 1_024_000,
            [g3_delay_bound(64, capacity_units, MTU, BOTTLENECK_BPS)] * 2,
        ) + 0.020 + 2 * 0.001,
    }
    records = ctx.sweep(
        _e8_point,
        [(name, p.duration, p.n_background, ctx.seed)
         for name in p.schedulers],
    )
    ctx.add_points(records)
    for record in records:
        ctx.record_engine(record["engine"])
    rows = []
    for record in records:
        for fid, flow in record["flows"].items():
            rows.append({
                "scheduler": record["scheduler"],
                "flow": fid,
                "mean_ms": round(flow["mean_ms"], 2),
                "max_ms": round(flow["max_ms"], 2),
                "bound_ms": (
                    round(bounds[fid] * 1e3, 1)
                    if record["scheduler"] == "g3" else "-"
                ),
            })
    ctx.table(
        ["scheduler", "flow", "mean ms", "max ms", "G-3 bound ms"],
        records=rows,
        columns=["scheduler", "flow", "mean_ms", "max_ms", "bound_ms"],
        title=(
            "E8 [ext]: Fig. 9 of the follow-on text — G-3 vs SRR vs RRR "
            f"end-to-end delays ({p.n_background} bg flows, "
            f"{p.duration:.0f}s)"
        ),
    )
    results: Dict[str, Dict] = {
        "bounds": {k: v * 1e3 for k, v in bounds.items()}
    }
    for record in records:
        results[record["scheduler"]] = record["flows"]
    return results


# ---------------------------------------------------------------------------
# E9 — space-time tradeoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E9Params:
    wss_order: int = 16
    stored_order: int = 9
    lookups: int = 20000


def _e9_tarray_point(expanded: Optional[int]) -> Dict:
    from ..extensions.g3 import G3Scheduler

    sched = G3Scheduler(capacity=255, expanded_levels=expanded)
    for i in range(64):
        sched.add_flow(i, 1)
        sched.enqueue(Packet(i, MTU))
    for i in range(64):
        sched.enqueue(Packet(i, MTU, seq=1))
    storage = sum(t.tarray.storage_entries for t in sched.trees.values())
    count = 128
    start = time.perf_counter()
    for _ in range(count):
        sched.dequeue()
    per_packet = (time.perf_counter() - start) / count
    label = "full" if expanded is None else f"top {expanded} levels"
    return {
        "expansion": label,
        "storage": storage,
        "us": round(per_packet * 1e6, 2),
        "us_raw": per_packet * 1e6,
    }


def _e9_body(p: E9Params, ctx: RunContext) -> Dict:
    """WSS storage strategies and TArray expansion ablation (E9).

    Compares stored entries and per-term lookup time for: the paper's
    materialised array, the fold-onto-smaller-table tradeoff, and the
    closed form; plus G-3 TArray partial expansion (space vs extra walk).
    """
    # --- WSS strategies (shared cursor state: timed inline) ---------------
    cursor = WSSCursor(p.wss_order)
    materialized = MaterializedWSS(p.wss_order)
    folded = FoldedWSS(p.wss_order, p.stored_order)
    length = (1 << p.wss_order) - 1

    def time_lookups(fn) -> float:
        start = time.perf_counter()
        for i in range(1, p.lookups + 1):
            fn(1 + (i * 2654435761) % length)
        return (time.perf_counter() - start) / p.lookups

    def cursor_term(_pos: int) -> int:
        return cursor.advance()

    wss_records = [
        {"strategy": "closed form (v2+1)", "entries": 0,
         "ns": round(time_lookups(cursor_term) * 1e9, 1)},
        {"strategy": "materialised 2^k",
         "entries": materialized.storage_entries,
         "ns": round(time_lookups(materialized.term) * 1e9, 1)},
        {"strategy": f"folded onto 2^{p.stored_order}",
         "entries": folded.storage_entries,
         "ns": round(time_lookups(folded.term) * 1e9, 1)},
    ]
    # --- TArray expansion ablation (independent points: swept) -----------
    tarray_records = ctx.sweep(
        _e9_tarray_point, [(expanded,) for expanded in (None, 6, 3, 0)]
    )
    ctx.add_points([{"part": "wss", **r} for r in wss_records])
    ctx.add_points([{"part": "tarray", **r} for r in tarray_records])
    ctx.table(
        ["WSS strategy", "stored entries", "ns/term"],
        records=wss_records,
        columns=["strategy", "entries", "ns"],
        title=f"E9a: WSS^{p.wss_order} storage strategies",
    )
    ctx.table(
        ["TArray expansion", "stored entries", "us/packet"],
        records=tarray_records,
        columns=["expansion", "storage", "us"],
        title="E9b: G-3 TArray partial expansion (capacity 255, 64 flows)",
    )
    return {
        "wss": {
            r["strategy"]: {"entries": r["entries"], "ns": r["ns"]}
            for r in wss_records
        },
        "tarray": {
            r["expansion"]: {"storage": r["storage"], "us": r["us_raw"]}
            for r in tarray_records
        },
    }


# ---------------------------------------------------------------------------
# E10 — measured delay vs analytic bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E10Params:
    n_flows: int = 40
    rounds: int = 30
    weight_cases: Tuple[int, ...] = (1, 2, 4, 7, 12, 32)


def _e10_point(name: str, weight: int, n_flows: int, rounds: int) -> Dict:
    from ..analysis.service_curves import max_ideal_lag

    link = BOTTLENECK_BPS
    packet_time = MTU * 8.0 / link
    capacity_units = 1 << (n_flows + 40).bit_length()
    kwargs = {}
    # The slotted schedulers are validated at full reservation so
    # every slot is busy (idle-slot skipping would otherwise let
    # the work-conserving emulation finish early and trivialise
    # the bound check).
    if name in ("g3", "rrr"):
        kwargs["capacity"] = capacity_units
        competitors = capacity_units - weight
    else:
        competitors = n_flows
    # Register the tagged flow AFTER half the competitors so it
    # does not land in the most favourable slot/scan position.
    weights: Dict[Hashable, float] = {}
    weights.update({f"bg{i}": 1 for i in range(competitors // 2)})
    weights["tag"] = weight
    weights.update(
        {f"bg{i}": 1 for i in range(competitors // 2, competitors)}
    )
    sched = create_scheduler(name, **kwargs)
    for fid, w in weights.items():
        sched.add_flow(fid, w)
    # Keep every flow backlogged for the whole measurement with
    # per-flow packet counts proportional to its weight.
    for fid, w in weights.items():
        for seq_no in range(rounds * int(w) + 8):
            sched.enqueue(Packet(fid, MTU, seq=seq_no))
    total = sum(int(w) for w in weights.values())
    finish, slot = [], 0
    budget = rounds * total
    while len(finish) < rounds * weight and slot < budget:
        packet = sched.dequeue()
        if packet is None:
            break
        slot += 1
        if packet.flow_id == "tag":
            finish.append(slot * packet_time)
    if name == "srr":
        rate = weight / total * link
        bound = srr_delay_bound(weight, n_flows + 1, MTU, link, link / total)
    elif name == "g3":
        rate = weight / capacity_units * link
        bound = g3_delay_bound(weight, capacity_units, MTU, link)
    else:
        rate = weight / capacity_units * link
        bound = rrr_delay_bound(weight, capacity_units, MTU, link)
    # max_ideal_lag raises on an empty curve (a starved flow must not
    # read as "bound certified"); report it as an explicit failure here.
    measured = max_ideal_lag(finish, rate, MTU) if finish else math.inf
    return {
        "scheduler": name,
        "weight": weight,
        "measured": measured,
        "bound": bound,
        "measured_ms": round(measured * 1e3, 3),
        "bound_ms": round(bound * 1e3, 3),
        "ok": measured <= bound + 1e-9,
    }


def _e10_body(p: E10Params, ctx: RunContext) -> Dict:
    """Measured worst lag vs analytic bound for SRR, G-3 and RRR (E10).

    Single node in slot time: every dequeue is one ``L/C`` transmission.
    A tagged flow (several weights) stays backlogged among ``n_flows``
    unit-weight competitors; its per-packet finish times are compared to
    the ideal ``i * L / r`` service (Definition 1) and the worst lag must
    stay below the scheduler's bound.
    """
    tasks = [
        (name, weight, p.n_flows, p.rounds)
        for weight in p.weight_cases for name in ("srr", "g3", "rrr")
    ]
    records = ctx.sweep(_e10_point, tasks)
    ctx.add_points(records)
    ctx.table(
        ["scheduler", "weight", "measured ms", "bound ms", "within bound"],
        records=records,
        columns=["scheduler", "weight", "measured_ms", "bound_ms", "ok"],
        title=(
            f"E10: measured worst lag vs analytic bound "
            f"({p.n_flows} unit-weight competitors, slot-time model)"
        ),
    )
    results: Dict[str, List] = {"srr": [], "g3": [], "rrr": []}
    for record in records:
        results[record["scheduler"]].append({
            "weight": record["weight"],
            "measured": record["measured"],
            "bound": record["bound"],
            "ok": record["ok"],
        })
    return results


# ---------------------------------------------------------------------------
# E11 — variable packet sizes (the "multi-service" in the title)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E11Params:
    rounds: int = 300
    small: int = 64
    large: int = 1500


def _e11_point(
    label: str, name: str, kwargs: Dict, rounds: int, small: int, large: int
) -> Dict:
    sched = create_scheduler(name, **kwargs)
    sched.add_flow("small", 1)
    sched.add_flow("large", 1)
    # Deep backlogs so NEITHER flow drains inside the measurement —
    # the byte split is only meaningful while both are backlogged.
    for i in range(rounds * (large // small + 2)):
        sched.enqueue(Packet("small", small, seq=i))
    for i in range(rounds * 3):
        sched.enqueue(Packet("large", large, seq=i))
    sent = {"small": 0, "large": 0}
    budget_bytes = rounds * 2 * large
    served = 0
    while served < budget_bytes:
        packet = sched.dequeue()
        if packet is None:
            break
        sent[packet.flow_id] += packet.size
        served += packet.size
    ratio = sent["large"] / max(sent["small"], 1)
    return {
        "scheduler": label,
        "small_bytes": sent["small"],
        "large_bytes": sent["large"],
        "ratio": round(ratio, 3),
        "ratio_raw": ratio,
    }


def _e11_body(p: E11Params, ctx: RunContext) -> Dict:
    """Byte fairness under bimodal packet sizes (E11).

    Two equal-weight flows, one sending ``small``-byte packets and one
    ``large``-byte packets, saturate a scheduler. The paper's base model
    fixes the packet size; its title targets *multi-service* networks, so
    the variable-size behaviour matters:

    * SRR in ``packet`` mode is packet-fair, hence byte-UNfair (the
      large-packet flow wins by ``large/small``);
    * SRR in ``deficit`` mode (the variable-size variant) restores byte
      fairness while keeping the WSS spreading;
    * DRR and the timestamp schedulers are byte-fair by construction.
    """
    cases = [
        ("srr packet", "srr", {"mode": "packet"}),
        ("srr deficit", "srr", {"mode": "deficit", "quantum": p.large}),
        ("drr", "drr", {"quantum": p.large}),
        ("wfq", "wfq", {}),
    ]
    records = ctx.sweep(
        _e11_point,
        [(label, name, kwargs, p.rounds, p.small, p.large)
         for label, name, kwargs in cases],
    )
    ctx.add_points(records)
    ctx.table(
        ["scheduler", "small-flow bytes", "large-flow bytes",
         "byte ratio (1.0 = fair)"],
        records=records,
        columns=["scheduler", "small_bytes", "large_bytes", "ratio"],
        title=(
            f"E11: byte fairness, equal weights, {p.small} B vs {p.large} B "
            "packets (saturated)"
        ),
    )
    return {r["scheduler"]: r["ratio_raw"] for r in records}


# ---------------------------------------------------------------------------
# E12 — admission control and delay quotes (the control plane)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E12Params:
    schedulers: Tuple[str, ...] = ("srr", "drr", "g3", "wfq", "fifo")
    rate_bps: float = 1_024_000
    sigma_bytes: float = 600.0
    validate: bool = True


def _e12_network(scheduler: str):
    from ..net.scenario import Network

    kwargs = {"capacity": 625} if scheduler == "g3" else {}
    net = Network(default_scheduler=scheduler,
                  default_scheduler_kwargs=kwargs)
    for n in ("edge", "core1", "core2", "exit"):
        net.add_node(n)
    net.add_link("edge", "core1", rate_bps=100e6, delay=0.001)
    net.add_link("core1", "core2", rate_bps=BOTTLENECK_BPS, delay=0.010)
    net.add_link("core2", "exit", rate_bps=BOTTLENECK_BPS, delay=0.010)
    return net


def _e12_quote_point(scheduler: str, rate_bps: float, sigma_bytes: float) -> Dict:
    from ..qos import AdmissionController

    unit = BOTTLENECK_BPS / 625 if scheduler == "g3" else WEIGHT_UNIT_BPS
    cac = AdmissionController(_e12_network(scheduler), weight_unit_bps=unit)
    quote = cac.request(
        "video", "edge", "exit", rate_bps, sigma_bytes=sigma_bytes
    ).quote
    return {
        "scheduler": scheduler,
        "total_ms": quote.milliseconds(),
        "sched_ms": sum(quote.per_hop) * 1e3,
        "guaranteed": quote.guaranteed,
    }


def _e12_body(p: E12Params, ctx: RunContext) -> Dict:
    """End-to-end delay quotes per discipline + empirical validation (E12).

    The call admission controller quotes Corollary-1 bounds for the same
    reservation under each discipline. The table captures the paper's
    practical consequence: SRR's N-dependent bound forces worst-case-N
    quotes (huge), G-3's Theorem 2 quotes are N-independent (tight), the
    timestamp schedulers quote tightly but pay per-packet cost, FIFO can
    promise nothing. With ``validate`` the SRR quote is checked by
    saturating the path and measuring.
    """
    from ..net.shaping import TokenBucketShaper
    from ..net.sources import CBRSource
    from ..qos import AdmissionController

    records = ctx.sweep(
        _e12_quote_point,
        [(scheduler, p.rate_bps, p.sigma_bytes)
         for scheduler in p.schedulers],
    )
    ctx.add_points(records)
    results: Dict[str, Dict] = {
        r["scheduler"]: {
            "total_ms": r["total_ms"],
            "guaranteed": r["guaranteed"],
        }
        for r in records
    }
    measured_ms = None
    if p.validate:
        net = _e12_network("srr")
        cac = AdmissionController(net, weight_unit_bps=WEIGHT_UNIT_BPS)
        res = cac.request(
            "video", "edge", "exit", p.rate_bps, sigma_bytes=p.sigma_bytes
        )
        shaper = TokenBucketShaper(
            sigma_bytes=p.sigma_bytes, rate_bps=p.rate_bps
        )
        net.attach_source(
            "video", CBRSource(p.rate_bps, MTU), shaper=shaper
        )
        i = 0
        while True:
            try:
                fid = f"bg{i}"
                cac.request(fid, "edge", "exit", WEIGHT_UNIT_BPS)
                net.attach_source(fid, CBRSource(WEIGHT_UNIT_BPS, MTU))
                i += 1
            except Exception:
                break
        net.run(until=4.0)
        ctx.record_engine(net.engine_stats())
        delays = net.sinks.delays("video")
        measured_ms = max(delays) * 1e3
        validation = {
            "competitors": i,
            "measured_max_ms": measured_ms,
            "quote_ms": res.quote.milliseconds(),
            "within_quote": measured_ms <= res.quote.milliseconds(),
        }
        results["validation"] = validation
        ctx.add_point({"scheduler": "validation", **validation})
    ctx.table(
        ["scheduler", "e2e quote ms", "sched part ms", "guaranteed"],
        records=records,
        columns=[
            "scheduler",
            lambda r: round(r["total_ms"], 2),
            lambda r: round(r["sched_ms"], 2),
            "guaranteed",
        ],
        title=(
            f"E12: CAC delay quotes for a {p.rate_bps / 1e3:.0f} kb/s "
            f"(sigma={p.sigma_bytes:.0f}B) reservation over two 10 Mb/s hops"
            + (
                f"; SRR quote validated under saturation: measured "
                f"{measured_ms:.1f} ms" if measured_ms is not None else ""
            )
        ),
    )
    return results


# ---------------------------------------------------------------------------
# E13 — [ext] churn/fault resilience (the dynamic regime the paper assumes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E13Params:
    schedulers: Tuple[str, ...] = ("srr", "drr", "wfq")
    #: Fault intensity multipliers (0.0 = fault-free baseline).
    intensities: Tuple[float, ...] = (0.0, 2.0, 8.0)
    duration: float = 4.0
    n_flows: int = 8
    #: Base (intensity 1.0) fault rates, events/s.
    churn_rate_hz: float = 1.0
    flap_rate_hz: float = 0.5
    burst_rate_hz: float = 0.5
    malformed_rate_hz: float = 0.5
    #: Attach the runtime invariant pack to every port scheduler
    #: (``--check-invariants``); violations are counted, not raised, so
    #: the totals land in the artifact for CI to assert on.
    check_invariants: bool = False


def _e13_point(
    scheduler: str,
    intensity: float,
    duration: float,
    n_flows: int,
    fault_rates: Tuple[float, float, float, float],
    seed: int,
    check_invariants: bool,
) -> Dict:
    from ..core.opcount import OpCounter
    from ..faults import FaultInjector, FaultSpec, build_fault_plan, guard_network
    from ..net.scenario import Network
    from ..net.sources import CBRSource
    from ..obs.metrics import MetricsRegistry, set_registry
    from ..obs.profile import percentile

    churn_hz, flap_hz, burst_hz, malformed_hz = fault_rates
    registry = MetricsRegistry()
    ops = OpCounter()
    kwargs: Dict = {"op_counter": ops}
    if scheduler in ("srr", "drr"):
        kwargs["quantum"] = MTU
    if scheduler == "srr":
        kwargs["mode"] = "deficit"
    # Ports resolve their (fault) counters from the active registry at
    # construction, so the per-point registry must be active while the
    # topology is built; restored immediately after.
    previous = set_registry(registry)
    try:
        net = Network(default_scheduler=scheduler,
                      default_scheduler_kwargs=kwargs)
        for n in ("src", "router", "dst"):
            net.add_node(n)
        net.add_link("src", "router", rate_bps=100e6, delay=0.0001)
        net.add_link("router", "dst", rate_bps=BOTTLENECK_BPS, delay=0.001,
                     buffer_packets=4 * n_flows * 8)
    finally:
        set_registry(previous)
    bottleneck = net.port("router", "dst")
    bottleneck.max_packet_bytes = MTU  # malformed "oversize" drops here
    weights = {f"bg{i}": (i % 4) + 1 for i in range(n_flows)}
    for fid, w in weights.items():
        net.add_flow(fid, "src", "dst", weight=w)
        net.attach_source(
            fid, CBRSource(rate_bps=w * WEIGHT_UNIT_BPS, packet_size=MTU)
        )
    plan = build_fault_plan(
        FaultSpec(
            churn_rate_hz=churn_hz, flap_rate_hz=flap_hz,
            burst_rate_hz=burst_hz, malformed_rate_hz=malformed_hz,
        ).scaled(intensity),
        seed=seed, duration=duration,
        links=[("router", "dst")], churn_route=("src", "dst"),
        burst_node="src", weight_unit_bps=WEIGHT_UNIT_BPS, packet_size=MTU,
    )
    injector = FaultInjector(
        net, plan, fault_route=("src", "dst"), registry=registry,
    )
    injector.install()
    guards = []
    if check_invariants:
        guards = guard_network(
            net, every=16, mode="record", registry=registry,
        )
    # Per-dequeue op profile at the bottleneck: the O(1) claim must hold
    # *through* churn, which is exactly when SRR's matrix/k-order work
    # happens. Wrapped before any guard so the delta brackets the real
    # scheduler call either way.
    sched = bottleneck.scheduler
    inner = sched.dequeue
    deltas: List[int] = []

    def profiled_dequeue():
        before = ops.count
        packet = inner()
        deltas.append(ops.count - before)
        return packet

    sched.dequeue = profiled_dequeue
    if guards:
        # Re-attach the bottleneck guard on top of the profiler.
        for guard in guards:
            if guard.sched is sched:
                guard.detach()
                sched.dequeue = profiled_dequeue
                guard.attach()
    net.run(until=duration)
    shares = [
        net.sinks.flow(fid).throughput_bps(0.0, duration) / w
        for fid, w in weights.items()
    ]
    tag_delays = sorted(net.sinks.delays("bg0"))
    deltas.sort()
    record = {
        "scheduler": scheduler,
        "intensity": intensity,
        "jain": round(jain_index(shares), 5),
        "tag_p99_ms": round(
            percentile(tag_delays, 0.99) * 1e3, 3
        ) if tag_delays else None,
        "tag_max_ms": round(max(tag_delays) * 1e3, 3) if tag_delays else None,
        "faults_fired": len(injector.fired),
        "plan_sig": plan.signature(),
        "p99_ops": int(percentile(deltas, 0.99)) if deltas else 0,
        "worst_ops": int(deltas[-1]) if deltas else 0,
        "served": len(deltas) - deltas.count(0) if deltas else 0,
        "violations": sum(len(g.violations) for g in guards),
        "checks": sum(g.checks_run for g in guards),
        "metrics_snapshot": registry.snapshot(),
        "engine": net.engine_stats(),
    }
    return record


def _e13_body(p: E13Params, ctx: RunContext) -> Dict:
    """SRR fairness/latency degradation under deterministic chaos (E13).

    Sweeps fault intensity per scheduler: seeded link flaps, flow churn
    (the paper's CAC add / signalling remove, live), overload bursts and
    malformed packets, all from a :class:`~repro.faults.FaultPlan` that
    is bit-identical between serial and ``--jobs N`` runs. Confirms the
    E5 O(1) dequeue profile *holds under churn* (worst/p99 ops at the
    bottleneck stay flat while the flow set mutates) and — with
    ``check_invariants`` — that no structural invariant breaks mid-chaos.
    """
    rates = (p.churn_rate_hz, p.flap_rate_hz, p.burst_rate_hz,
             p.malformed_rate_hz)
    tasks = []
    pairs = [
        (scheduler, intensity)
        for scheduler in p.schedulers for intensity in p.intensities
    ]
    for i, (scheduler, intensity) in enumerate(pairs):
        tasks.append((
            scheduler, intensity, p.duration, p.n_flows, rates,
            ctx.child_seed(i), p.check_invariants,
        ))
    records = ctx.sweep(_e13_point, tasks)
    for record in records:
        ctx.record_metrics(record.pop("metrics_snapshot"))
        ctx.record_engine(record.pop("engine"))
    ctx.add_points(records)
    ctx.table(
        ["scheduler", "intensity", "jain", "tag p99 ms", "faults",
         "p99 ops", "worst ops", "violations"],
        records=records,
        columns=["scheduler", "intensity", "jain", "tag_p99_ms",
                 "faults_fired", "p99_ops", "worst_ops", "violations"],
        title="E13: fairness/latency/op-cost under seeded faults "
              "(churn + flaps + bursts + malformed; jain over weighted "
              "background shares)",
    )
    results: Dict = {}
    for record in records:
        results.setdefault(record["scheduler"], {})[record["intensity"]] = {
            "jain": record["jain"],
            "p99_ops": record["p99_ops"],
            "faults_fired": record["faults_fired"],
        }
    results["violations_total"] = sum(r["violations"] for r in records)
    results["checks_total"] = sum(r["checks"] for r in records)
    results["plan_signatures"] = {
        f"{r['scheduler']}@{r['intensity']}": r["plan_sig"] for r in records
    }
    return results


# ---------------------------------------------------------------------------
# E14 — [ext] adaptive overload control: SLO compliance under churn
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E14Params:
    schedulers: Tuple[str, ...] = ("srr", "drr")
    #: Which control-plane arms to run: "both" (on + off per scheduler),
    #: "on", or "off".
    control: str = "both"
    duration: float = 4.0
    #: Guaranteed (CAC-admitted) flows and their aggregate share of the
    #: bottleneck.
    n_guaranteed: int = 4
    guaranteed_fraction: float = 0.55
    #: Churn overload: joins/s, mean hold, weight bits. The defaults
    #: oversubscribe the 10 Mb/s bottleneck ~2x when ungated.
    churn_rate_hz: float = 20.0
    churn_hold_s: float = 1.5
    churn_max_weight_bits: int = 5
    burst_rate_hz: float = 2.0
    #: Watermarks (fractions of bottleneck capacity).
    low: float = 0.70
    high: float = 0.90
    #: SLO target = quoted bound × this margin.
    slo_margin: float = 1.0
    #: The operator-sized booking bound N for the N-dependent quotes.
    #: The paper's worst case (capacity / unit rate = 625 here) quotes a
    #: bound so loose a short run cannot violate it; a realistically
    #: provisioned CAC books for the expected population.
    assumed_max_flows: int = 48
    #: Arm the closed-loop weight/quantum adapter.
    adapt_weights: bool = False


def _e14_point(
    scheduler: str,
    control_on: bool,
    duration: float,
    n_guaranteed: int,
    guaranteed_fraction: float,
    churn_cfg: Tuple[float, float, int, float],
    low: float,
    high: float,
    slo_margin: float,
    assumed_max_flows: int,
    adapt_weights: bool,
    seed: int,
) -> Dict:
    from ..faults import FaultInjector, FaultSpec, build_fault_plan
    from ..net.scenario import Network
    from ..net.sources import CBRSource
    from ..obs.metrics import MetricsRegistry, set_registry
    from ..obs.profile import percentile
    from ..qos import AdmissionController, ControlPlane, SLOWatchdog

    churn_hz, churn_hold, churn_bits, burst_hz = churn_cfg
    registry = MetricsRegistry()
    kwargs: Dict = {}
    if scheduler in ("srr", "drr"):
        kwargs["quantum"] = MTU
    if scheduler == "srr":
        kwargs["mode"] = "deficit"
    previous = set_registry(registry)
    try:
        net = Network(default_scheduler=scheduler,
                      default_scheduler_kwargs=kwargs)
        for n in ("src", "router", "dst"):
            net.add_node(n)
        net.add_link("src", "router", rate_bps=100e6, delay=0.0001)
        # Unbounded bottleneck buffer: overload must show up as delay
        # (the violated promise), not be masked by drop-tail.
        net.add_link("router", "dst", rate_bps=BOTTLENECK_BPS, delay=0.001)
    finally:
        set_registry(previous)
    bottleneck = net.port("router", "dst")
    admission = AdmissionController(
        net, weight_unit_bps=WEIGHT_UNIT_BPS, packet_size=MTU,
        assumed_max_flows=assumed_max_flows,
    )
    # CAC-admitted guaranteed class, well inside capacity on its own.
    rate = guaranteed_fraction * BOTTLENECK_BPS / n_guaranteed
    reservations = []
    for i in range(n_guaranteed):
        reservation = admission.request(
            f"guar{i}", "src", "dst", rate_bps=rate
        )
        reservations.append(reservation)
        net.attach_source(
            f"guar{i}", CBRSource(rate_bps=rate, packet_size=MTU)
        )
    plane = None
    if control_on:
        plane = ControlPlane(
            net, admission, seed=seed, low=low, high=high,
            interval_s=0.05, horizon=duration, mode="record",
            slo_margin=slo_margin, adapt_weights=adapt_weights,
            registry=registry,
        ).arm([bottleneck])
        watchdog = plane.watchdog
        for reservation in reservations:
            plane.watch(reservation)
    else:
        # Uncontrolled arm: same promises watched, nothing defends them.
        watchdog = SLOWatchdog(mode="record", registry=registry)
        watchdog.attach(net.sinks)
        for reservation in reservations:
            watchdog.watch(
                reservation.flow_id,
                reservation.quote.total * slo_margin,
            )
    plan = build_fault_plan(
        FaultSpec(
            churn_rate_hz=churn_hz, churn_hold_s=churn_hold,
            churn_max_weight_bits=churn_bits, burst_rate_hz=burst_hz,
        ),
        seed=seed, duration=duration,
        links=[("router", "dst")], churn_route=("src", "dst"),
        burst_node="src", weight_unit_bps=WEIGHT_UNIT_BPS, packet_size=MTU,
    )
    injector = FaultInjector(
        net, plan, fault_route=("src", "dst"), registry=registry,
        gate=plane,
    )
    injector.install()
    net.run(until=duration)
    if plane is not None:
        plane.stop()
    guar_delays = sorted(
        d for i in range(n_guaranteed) for d in net.sinks.delays(f"guar{i}")
    )
    violations_by_class = {}
    for violation in watchdog.violations:
        violations_by_class[violation.service_class] = (
            violations_by_class.get(violation.service_class, 0) + 1
        )
    # The honored-or-revoked audit: a live (unrevoked) reservation with a
    # recorded violation is a silently broken promise.
    silently_violated = sum(
        1 for r in reservations
        if not r.revoked and watchdog.violation_count(r.flow_id) > 0
        and r.flow_id in admission.reservations
    )
    record = {
        "scheduler": scheduler,
        "control": "on" if control_on else "off",
        "guaranteed_violations": violations_by_class.get("guaranteed", 0),
        "silently_violated": silently_violated,
        "revocations": admission.revocations,
        "quote_ms": round(
            max(r.quote.total for r in reservations) * 1e3, 3
        ),
        "guar_p99_ms": round(
            percentile(guar_delays, 0.99) * 1e3, 3
        ) if guar_delays else None,
        "guar_max_ms": round(
            max(guar_delays) * 1e3, 3
        ) if guar_delays else None,
        "shed": plane.policy.shed if plane is not None else 0,
        "admitted_joins": plane.policy.admitted if plane is not None else 0,
        "rejected": plane.policy.rejected if plane is not None else 0,
        "demoted": (
            plane.governor.demoted_packets
            if plane is not None and plane.governor is not None else 0
        ),
        "reweights": (
            len(plane.adapter.adjustments)
            if plane is not None and plane.adapter is not None else 0
        ),
        "faults_fired": len(injector.fired),
        "plan_sig": plan.signature(),
        "metrics_snapshot": registry.snapshot(),
        "engine": net.engine_stats(),
    }
    return record


def _e14_body(p: E14Params, ctx: RunContext) -> Dict:
    """Guaranteed-class SLO compliance under overload churn (E14).

    Per scheduler, two arms share one fault plan (same seed): the
    *uncontrolled* arm admits guaranteed flows through the CAC and lets
    churn blow through the bottleneck — the weighted share of each
    guaranteed flow drops below its reserved rate, queues grow, and its
    quoted delay bound is violated. The *controlled* arm arms the
    :class:`~repro.qos.ControlPlane`: offered-load estimation at the
    bottleneck, watermark gating of churn joins (probabilistic shedding
    between ``low`` and ``high``), best-effort demotion at the high
    watermark, and the SLO watchdog + governor ensuring any promise that
    cannot be kept is explicitly revoked. Expected: zero guaranteed
    violations with control on, violations without.
    """
    if p.control not in ("both", "on", "off"):
        raise ValueError(
            f"control must be 'both', 'on' or 'off', got {p.control!r}"
        )
    arms = {"both": (False, True), "on": (True,), "off": (False,)}[p.control]
    churn_cfg = (
        p.churn_rate_hz, p.churn_hold_s, p.churn_max_weight_bits,
        p.burst_rate_hz,
    )
    tasks = []
    for si, scheduler in enumerate(p.schedulers):
        # One seed per scheduler, shared by both arms: identical fault
        # plans make on-vs-off a controlled comparison.
        seed = ctx.child_seed(si)
        for control_on in arms:
            tasks.append((
                scheduler, control_on, p.duration, p.n_guaranteed,
                p.guaranteed_fraction, churn_cfg, p.low, p.high,
                p.slo_margin, p.assumed_max_flows, p.adapt_weights, seed,
            ))
    records = ctx.sweep(_e14_point, tasks)
    for record in records:
        ctx.record_metrics(record.pop("metrics_snapshot"))
        ctx.record_engine(record.pop("engine"))
    ctx.add_points(records)
    ctx.table(
        ["scheduler", "control", "SLO viol", "silent", "revoked", "shed",
         "admitted", "quote ms", "p99 ms", "max ms"],
        records=records,
        columns=["scheduler", "control", "guaranteed_violations",
                 "silently_violated", "revocations", "shed",
                 "admitted_joins", "quote_ms", "guar_p99_ms", "guar_max_ms"],
        title="E14: guaranteed-class SLO compliance under overload churn "
              "(watermark shedding + SLO watchdog + governor, on vs off)",
    )
    results: Dict = {}
    for record in records:
        results.setdefault(record["scheduler"], {})[record["control"]] = {
            "guaranteed_violations": record["guaranteed_violations"],
            "silently_violated": record["silently_violated"],
            "revocations": record["revocations"],
            "shed": record["shed"],
            "plan_sig": record["plan_sig"],
        }
    results["controlled_violations"] = sum(
        r["guaranteed_violations"] for r in records if r["control"] == "on"
    )
    results["uncontrolled_violations"] = sum(
        r["guaranteed_violations"] for r in records if r["control"] == "off"
    )
    results["silently_violated_total"] = sum(
        r["silently_violated"] for r in records
    )
    return results


# ---------------------------------------------------------------------------
# E16 — [ext] network-calculus bound tightness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E16Params:
    #: Disciplines with a strict service curve in ``repro.analysis.netcalc``.
    disciplines: Tuple[str, ...] = ("srr", "drr", "wrr", "iwrr")
    flow_counts: Tuple[int, ...] = (2, 4, 8)
    #: Independent weight draws per (discipline, n_flows) case.
    seeds_per_case: int = 3
    #: Source rate as a fraction of each flow's reserved share (< 1 keeps
    #: every arrival token-bucket conformant, so the bounds apply).
    utilization: float = 0.6
    horizon_s: float = 0.4
    packet_size: int = 250
    link_bps: float = 2_000_000.0
    quantum: int = 1500
    engine: str = "heap"


def _e16_point(
    discipline: str,
    n_flows: int,
    seed: int,
    engine: str,
    utilization: float,
    horizon_s: float,
    packet_size: int,
    link_bps: float,
    quantum: int,
) -> Dict:
    import random as _random

    from ..conformance.oracles import bounds_certification_run

    rng = _random.Random(seed)
    if discipline == "drr":
        # DRR is the one discipline whose curve accepts fractional quanta.
        weights: List[float] = [
            round(rng.uniform(0.5, 8.0), 3) for _ in range(n_flows)
        ]
    else:
        weights = [rng.choice((1, 2, 3, 4, 6, 8, 16)) for _ in range(n_flows)]
    records = bounds_certification_run(
        discipline,
        [(f"f{i}", w) for i, w in enumerate(weights)],
        engine=engine,
        link_bps=link_bps,
        packet_size=packet_size,
        utilization=utilization,
        horizon_s=horizon_s,
        quantum=quantum,
    )
    ratios = [r["ratio"] for r in records if r["ratio"] is not None]
    certified = bool(ratios) and all(
        r["ratio"] is not None and r["ratio"] <= 1.0 + 1e-9 for r in records
    )
    return {
        "discipline": discipline,
        "n_flows": n_flows,
        "seed": seed,
        "worst_ratio": max(ratios) if ratios else None,
        "mean_ratio": sum(ratios) / len(ratios) if ratios else None,
        "worst_bound_ms": round(
            max(r["bound_s"] for r in records) * 1e3, 3
        ),
        "delivered": sum(r["delivered"] for r in records),
        "certified": certified,
    }


def _e16_body(p: E16Params, ctx: RunContext) -> Dict:
    """Network-calculus bound tightness per discipline (E16).

    For each (discipline, N, weight draw) the certification run computes
    every flow's closed-form delay bound (token-bucket arrival through
    the discipline's rate-latency service curve) and measures the worst
    observed delivery delay under conformant CBR load. The reported
    observed/certified ratio is the bound-tightness figure: <= 1 means
    the bound held (the ``bounds`` conformance oracle asserts exactly
    this on the fuzz corpus), and how far below 1 says how much slack
    the analysis leaves on realistic traffic.
    """
    tasks = []
    i = 0
    for d in p.disciplines:
        for n in p.flow_counts:
            for _ in range(p.seeds_per_case):
                tasks.append((
                    d, n, ctx.child_seed(i), p.engine, p.utilization,
                    p.horizon_s, p.packet_size, p.link_bps, p.quantum,
                ))
                i += 1
    records = ctx.sweep(_e16_point, tasks)
    ctx.add_points(records)

    rows: List[Dict] = []
    all_certified = True
    worst_overall = 0.0
    for d in p.disciplines:
        recs = [r for r in records if r["discipline"] == d]
        ratios = [
            r["worst_ratio"] for r in recs if r["worst_ratio"] is not None
        ]
        means = [
            r["mean_ratio"] for r in recs if r["mean_ratio"] is not None
        ]
        ok = bool(recs) and all(r["certified"] for r in recs)
        all_certified = all_certified and ok
        worst = max(ratios) if ratios else math.inf
        worst_overall = max(worst_overall, worst)
        rows.append({
            "discipline": d,
            "cases": len(recs),
            "worst_ratio": round(worst, 4) if ratios else None,
            "mean_ratio": (
                round(sum(means) / len(means), 4) if means else None
            ),
            "worst_bound_ms": max(r["worst_bound_ms"] for r in recs),
            "certified": ok,
        })
        ctx.metrics.gauge(
            "e16_worst_ratio", discipline=d,
        ).set(round(worst, 6) if ratios else math.inf)
    ctx.table(
        ["discipline", "cases", "worst obs/cert", "mean obs/cert",
         "worst bound ms", "certified"],
        records=rows,
        columns=["discipline", "cases", "worst_ratio", "mean_ratio",
                 "worst_bound_ms", "certified"],
        title="E16: network-calculus bound tightness "
              f"(CBR at {p.utilization:.0%} of reserved rate, "
              f"{p.link_bps / 1e6:g} Mbps link)",
    )
    metrics: Dict = {
        "disciplines": list(p.disciplines),
        "cases": len(records),
        "all_certified": all_certified,
        "worst_ratio": round(worst_overall, 4),
    }
    for row in rows:
        metrics[f"worst_ratio_{row['discipline']}"] = row["worst_ratio"]
    return metrics


# ---------------------------------------------------------------------------
# The declarative experiment registry
# ---------------------------------------------------------------------------

SPECS: Dict[str, ExperimentSpec] = {
    "e1": ExperimentSpec(
        eid="e1",
        title="WSS definition table and properties",
        params_type=E1Params,
        body=_e1_body,
        scales={"quick": {"max_order": 8}, "full": {"max_order": 14}},
    ),
    "e2": ExperimentSpec(
        eid="e2",
        title="service-order smoothness: SRR vs WRR/DRR/RR",
        params_type=E2Params,
        body=_e2_body,
        scales={"quick": {"rounds": 4}, "full": {"rounds": 16}},
    ),
    "e3": ExperimentSpec(
        eid="e3",
        title="end-to-end delay in the Fig. 8 dumbbell",
        params_type=E3Params,
        body=_e3_body,
        scales={
            "quick": {"duration": 3.0, "n_background": 100},
            "full": {"duration": 20.0, "repeats": 5},
        },
    ),
    "e4": ExperimentSpec(
        eid="e4",
        title="delay vs number of flows N (Theorem 1 shape)",
        params_type=E4Params,
        body=_e4_body,
        scales={
            "quick": {"n_values": (16, 64, 128), "duration": 2.0},
            "full": {"duration": 8.0},
        },
    ),
    "e5": ExperimentSpec(
        eid="e5",
        title="per-packet scheduling cost vs N (the O(1) claim)",
        params_type=E5Params,
        body=_e5_body,
        scales={
            "quick": {"n_values": (16, 256, 2048), "measure": 1500},
            "full": {"time_it": True},
        },
        timing_fields=("us_per_packet",),
    ),
    "e6": ExperimentSpec(
        eid="e6",
        title="weighted fairness indices, saturated node",
        params_type=E6Params,
        body=_e6_body,
        scales={"quick": {"rounds": 6}, "full": {"rounds": 24}},
    ),
    "e7": ExperimentSpec(
        eid="e7",
        title="throughput guarantees under best-effort overload",
        params_type=E7Params,
        body=_e7_body,
        scales={
            "quick": {"duration": 3.0, "n_background": 50},
            "full": {"duration": 12.0},
        },
    ),
    "e8": ExperimentSpec(
        eid="e8",
        title="[ext] G-3 vs SRR vs RRR (follow-on Fig. 9)",
        params_type=E8Params,
        body=_e8_body,
        scales={
            "quick": {"duration": 3.0, "n_background": 100},
            "full": {"duration": 16.0},
        },
    ),
    "e9": ExperimentSpec(
        eid="e9",
        title="space-time tradeoffs (WSS storage, TArray expansion)",
        params_type=E9Params,
        body=_e9_body,
        scales={"quick": {"lookups": 4000}, "full": {"lookups": 100000}},
        timing_fields=("ns", "us", "us_raw"),
    ),
    "e10": ExperimentSpec(
        eid="e10",
        title="measured delay vs analytic bounds",
        params_type=E10Params,
        body=_e10_body,
        scales={
            "quick": {"n_flows": 16, "rounds": 12},
            "full": {"n_flows": 80, "rounds": 60},
        },
    ),
    "e11": ExperimentSpec(
        eid="e11",
        title="variable packet sizes: packet vs deficit mode byte fairness",
        params_type=E11Params,
        body=_e11_body,
        scales={"quick": {"rounds": 120}, "full": {"rounds": 600}},
    ),
    "e12": ExperimentSpec(
        eid="e12",
        title="admission control: per-discipline delay quotes + validation",
        params_type=E12Params,
        body=_e12_body,
        scales={"quick": {"validate": False}, "full": {}},
    ),
    "e13": ExperimentSpec(
        eid="e13",
        title="[ext] churn/fault resilience: fairness + O(1) under chaos",
        params_type=E13Params,
        body=_e13_body,
        scales={
            "quick": {
                "intensities": (0.0, 4.0), "duration": 2.0, "n_flows": 4,
            },
            "full": {
                "intensities": (0.0, 1.0, 2.0, 4.0, 8.0, 16.0),
                "duration": 10.0, "n_flows": 16,
            },
        },
    ),
    "e14": ExperimentSpec(
        eid="e14",
        title="[ext] adaptive overload control: SLO compliance under churn",
        params_type=E14Params,
        body=_e14_body,
        scales={
            "quick": {"duration": 3.0, "schedulers": ("srr",)},
            "full": {
                "duration": 8.0,
                "schedulers": ("srr", "drr"),
                "adapt_weights": True,
            },
        },
    ),
    "e16": ExperimentSpec(
        eid="e16",
        title="[ext] network-calculus bound tightness (observed/certified)",
        params_type=E16Params,
        body=_e16_body,
        scales={
            "quick": {
                "flow_counts": (2, 4), "seeds_per_case": 1,
                "horizon_s": 0.2,
            },
            "full": {},
        },
    ),
}
