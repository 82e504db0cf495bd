"""Queue-backend equivalence: ``--engine heap`` vs ``--engine calendar``.

The backend is a pure wall-time optimisation — both dequeue in exactly
``(time, seq)`` order — so it must be invisible in every result: stable
experiment artifacts (E5, E13), packet-lifecycle traces, fault-plan
replays, and invariant-guard verdicts are asserted bit-identical here.
"""

import json

from repro.bench.runner import run_config
from repro.bench.scenarios import single_bottleneck_network
from repro.faults import FaultInjector, FaultSpec, build_fault_plan
from repro.net import CBRSource, Network
from repro.net.eventq import ENGINE_ENV_VAR
from repro.obs.trace import Tracer, set_tracer

ENGINES = ("heap", "calendar")


def _stable(name, engine, **overrides):
    result = run_config(
        name, scale="quick", engine=engine,
        overrides=overrides or None,
    )
    return result


class TestArtifactIdentity:
    def test_e5_artifacts_bit_identical(self):
        runs = {kind: _stable("e5", kind) for kind in ENGINES}
        stable = {k: r.stable_json_dict() for k, r in runs.items()}
        assert stable["heap"] == stable["calendar"]
        # The artifact equality must be textual too (what lands on disk).
        assert (
            json.dumps(stable["heap"], sort_keys=True)
            == json.dumps(stable["calendar"], sort_keys=True)
        )
        # The backend choice is recorded in the raw (non-stable) form,
        # so the comparison above is not vacuous.
        for kind, result in runs.items():
            assert result.to_json_dict()["config"]["engine"] == kind

    def test_e13_artifacts_bit_identical_with_invariants(self):
        runs = {
            kind: _stable("e13", kind, check_invariants=True)
            for kind in ENGINES
        }
        stable = {k: r.stable_json_dict() for k, r in runs.items()}
        assert stable["heap"] == stable["calendar"]
        # E13 drives real simulators, so queue_kind lands in the
        # engine block — proving each run used its requested backend.
        for kind, result in runs.items():
            assert result.engine["queue_kind"] == kind
        # Invariant guards see the same world under the new engine:
        # same number of checks, zero violations on both.
        for result in runs.values():
            assert result.metrics["violations_total"] == 0
            assert result.metrics["checks_total"] > 0
        assert (
            runs["heap"].metrics["checks_total"]
            == runs["calendar"].metrics["checks_total"]
        )
        # Fault plans are built from the config seed, not the engine.
        assert (
            runs["heap"].metrics["plan_signatures"]
            == runs["calendar"].metrics["plan_signatures"]
        )


class TestTraceIdentity:
    def test_packet_traces_hash_identical(self, monkeypatch):
        def traced_run(kind):
            # Ports capture the simulator at link creation, so the
            # backend must be chosen before the network is built —
            # exactly how the harness does it (REPRO_ENGINE).
            monkeypatch.setenv(ENGINE_ENV_VAR, kind)
            # Ports pick up the active tracer at construction, too.
            tracer = Tracer(capacity=1 << 18)
            previous = set_tracer(tracer)
            try:
                net = single_bottleneck_network("srr", n_flows=8)
            finally:
                set_tracer(previous)
            assert net.sim.queue_kind == kind
            net.run(until=0.25)
            assert tracer.dropped == 0
            # Packet uids come from a process-global counter, so two
            # runs in one process see different absolute values.
            # Renumber by first appearance: packet identity structure
            # is preserved, the arbitrary offset is not.
            remap = {}
            events = []
            for e in tracer.events():
                e = dict(e)
                if "uid" in e:
                    e["uid"] = remap.setdefault(e["uid"], len(remap))
                events.append(json.dumps(e, sort_keys=True))
            return events

        traces = {kind: traced_run(kind) for kind in ENGINES}
        assert traces["heap"]  # non-vacuous: packets actually traced
        assert traces["heap"] == traces["calendar"]


class TestFaultReplayIdentity:
    def test_plan_replay_identical_across_engines(self):
        spec = FaultSpec(
            churn_rate_hz=3.0, flap_rate_hz=2.0,
            burst_rate_hz=2.0, malformed_rate_hz=2.0,
        )

        def run_once(kind):
            net = Network(default_scheduler="srr", engine=kind)
            for n in ("a", "r", "b"):
                net.add_node(n)
            net.add_link("a", "r", rate_bps=10e6, delay=0.0001)
            net.add_link("r", "b", rate_bps=1e6, delay=0.0001)
            net.add_flow("f1", "a", "b", weight=1)
            net.attach_source("f1", CBRSource(200_000, packet_size=200))
            plan = build_fault_plan(
                spec, seed=11, duration=2.0,
                links=[("r", "b")], churn_route=("a", "b"), burst_node="a",
            )
            inj = FaultInjector(net, plan, fault_route=("a", "b"))
            inj.install()
            net.run(until=2.0)
            assert net.sim.queue_kind == kind
            return plan.signature(), inj.fired, net.sinks.flow("f1").packets

        assert run_once("heap") == run_once("calendar")
