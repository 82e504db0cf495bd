"""InvariantGuard: seeded corruption is caught, clean runs are silent,
and an unguarded scheduler pays nothing (repro.faults.invariants)."""

import pytest

from repro.core import InvariantViolation, OpCounter, Packet, SRRScheduler
from repro.faults import InvariantGuard, attach_guard, guard_network
from repro.net import CBRSource, Network
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.schedulers import DRRScheduler, WFQScheduler


def load(sched, flows, packets_each, size=100):
    for fid in flows:
        for i in range(packets_each):
            sched.enqueue(Packet(fid, size, seq=i))


def make_srr(**kw):
    s = SRRScheduler(**kw)
    s.add_flow("f1", 1)
    s.add_flow("f2", 2)
    s.add_flow("f3", 4)
    return s


def make_drr():
    s = DRRScheduler(quantum=100)
    for fid in ("f1", "f2"):
        s.add_flow(fid, 1)
    return s


class TestCleanRuns:
    @pytest.mark.parametrize("factory", [make_srr, make_drr])
    def test_no_violations_on_honest_scheduler(self, factory):
        sched = factory()
        guard = attach_guard(sched, every=1)
        load(sched, ["f1", "f2"], 20)
        while sched.dequeue() is not None:
            pass
        assert guard.violations == []
        assert guard.checks_run > 0
        guard.detach()

    def test_counters_exported(self):
        registry = MetricsRegistry()
        sched = make_srr()
        guard = attach_guard(sched, every=1, registry=registry)
        load(sched, ["f1"], 5)
        while sched.dequeue() is not None:
            pass
        checks = registry.counter(
            "invariant_checks_total", scheduler="srr"
        ).value
        assert checks == guard.checks_run > 0
        assert registry.counter(
            "invariant_violations_total", scheduler="srr"
        ).value == 0
        guard.detach()


class TestCorruptionCaught:
    def test_srr_matrix_corruption(self):
        sched = make_srr()
        guard = attach_guard(sched, every=1)
        load(sched, ["f1", "f2", "f3"], 4)
        sched.dequeue()
        # Rip a backlogged flow out of the matrix behind SRR's back.
        sched.matrix.remove(sched._flows["f2"])
        with pytest.raises(InvariantViolation) as info:
            for _ in range(10):
                sched.dequeue()
        assert info.value.scheduler == "srr"
        assert info.value.check in (
            "srr_flow_linkage", "srr_matrix_links", "work_conservation",
        )
        guard.detach()

    def test_drr_deficit_corruption(self):
        sched = make_drr()
        guard = attach_guard(sched, every=1)
        load(sched, ["f1", "f2"], 4)
        sched.dequeue()
        sched._flows["f2"].deficit = 10**9  # forged credit
        with pytest.raises(InvariantViolation) as info:
            for _ in range(10):
                sched.dequeue()
        assert info.value.check == "drr_deficit_bound"
        assert info.value.details["flow"] == "f2"
        guard.detach()

    def test_drr_idle_credit_corruption(self):
        sched = make_drr()
        guard = attach_guard(sched, every=1)
        load(sched, ["f1"], 4)
        sched._flows["f2"].deficit = 50  # credit while idle
        with pytest.raises(InvariantViolation) as info:
            sched.dequeue()
        assert info.value.check == "drr_idle_credit"
        guard.detach()

    def test_wfq_vtime_corruption(self):
        sched = WFQScheduler()
        sched.add_flow("f1", 1.0)
        guard = attach_guard(sched, every=1)
        load(sched, ["f1"], 4)
        sched.dequeue()
        sched._vtime = -5.0  # time ran backwards
        with pytest.raises(InvariantViolation) as info:
            sched.dequeue()
        assert info.value.check == "vtime_monotonic"
        guard.detach()

    def test_backlog_counter_corruption(self):
        sched = make_srr()
        guard = attach_guard(sched, every=1)
        load(sched, ["f1"], 4)
        sched._backlog_packets += 3
        with pytest.raises(InvariantViolation) as info:
            sched.dequeue()
        assert info.value.check == "backlog_accounting"
        guard.detach()

    def test_record_mode_collects_instead_of_raising(self):
        sched = make_drr()
        guard = attach_guard(sched, every=1, mode="record")
        load(sched, ["f1", "f2"], 4)
        sched._flows["f2"].deficit = 10**9
        while sched.dequeue() is not None:
            pass
        assert guard.violations
        assert all(
            isinstance(v, InvariantViolation) for v in guard.violations
        )
        guard.detach()

    def test_violation_carries_trace_window(self):
        tracer = Tracer()
        for i in range(8):
            tracer.emit("enqueue", float(i), flow="f1")
        sched = make_drr()
        guard = attach_guard(sched, every=1, window=4, tracer=tracer)
        load(sched, ["f1"], 2)
        sched._flows["f2"].deficit = 50
        with pytest.raises(InvariantViolation) as info:
            sched.dequeue()
        assert len(info.value.trace_window) == 4
        assert info.value.trace_window[-1]["t"] == 7.0
        guard.detach()

    def test_zero_window_attaches_no_events(self):
        tracer = Tracer()
        for i in range(8):
            tracer.emit("enqueue", float(i), flow="f1")
        sched = make_drr()
        guard = attach_guard(sched, every=1, window=0, tracer=tracer)
        load(sched, ["f1"], 2)
        sched._flows["f2"].deficit = 50
        with pytest.raises(InvariantViolation) as info:
            sched.dequeue()
        assert info.value.trace_window == []
        guard.detach()
        with pytest.raises(ValueError):
            InvariantGuard(make_drr(), window=-1)


class TestZeroOverhead:
    def profile(self, with_guard_cycle):
        """Total elementary ops for a fixed workload."""
        ops = OpCounter()
        sched = make_srr(op_counter=ops)
        if with_guard_cycle:
            guard = attach_guard(sched, every=1)
            guard.detach()
        load(sched, ["f1", "f2", "f3"], 30)
        while sched.dequeue() is not None:
            pass
        if with_guard_cycle:
            # detach() restored the class method, not a wrapper.
            assert "dequeue" not in vars(sched)
        return ops.count

    def test_detached_guard_costs_nothing(self):
        assert self.profile(False) == self.profile(True)

    def test_attached_guard_does_not_perturb_op_counts(self):
        """Guards watch from outside: the scheduler's own op profile is
        identical guarded vs unguarded (checks never touch the counter)."""
        def run(guarded):
            ops = OpCounter()
            sched = make_srr(op_counter=ops)
            guard = attach_guard(sched, every=1) if guarded else None
            load(sched, ["f1", "f2", "f3"], 30)
            order = []
            while True:
                p = sched.dequeue()
                if p is None:
                    break
                order.append(p.flow_id)
            if guard:
                guard.detach()
            return ops.count, order

        assert run(False) == run(True)


class TestNetworkHelper:
    def test_guard_network_covers_every_port(self):
        net = Network(default_scheduler="srr")
        for n in ("a", "r", "b"):
            net.add_node(n)
        net.add_link("a", "r", rate_bps=10e6, delay=0.0001)
        net.add_link("r", "b", rate_bps=1e6, delay=0.0001)
        net.add_flow("f1", "a", "b", weight=1)
        net.attach_source("f1", CBRSource(200_000, packet_size=200))
        guards = guard_network(net, every=4)
        # add_link is bidirectional: a<->r and r<->b yield four ports.
        assert len(guards) == 4
        net.run(until=0.5)
        assert sum(g.checks_run for g in guards) > 0
        assert all(not g.violations for g in guards)
        for g in guards:
            g.detach()


class TestGuardConfig:
    def test_bad_every_rejected(self):
        with pytest.raises(ValueError):
            InvariantGuard(make_srr(), every=0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            InvariantGuard(make_srr(), mode="explode")

    def test_attach_is_idempotent(self):
        sched = make_srr()
        guard = InvariantGuard(sched, every=1)
        guard.attach()
        guard.attach()
        load(sched, ["f1"], 2)
        sched.dequeue()
        assert guard.checks_run == 1
        guard.detach()
        guard.detach()  # second detach is a no-op
