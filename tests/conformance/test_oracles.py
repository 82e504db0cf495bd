"""Oracle families: clean schedulers pass; planted bugs are caught."""

import pytest

from repro.conformance.oracles import (
    check_conservation,
    check_fluid_lag,
    check_metamorphic,
    check_scenario,
    fluid_lag,
)
from repro.conformance.runner import (
    VARIANTS,
    Departure,
    ScenarioRun,
    run_scenario,
    variant_by_name,
)
from repro.conformance.scenario import FlowDef, Scenario, generate_scenario
from repro.schedulers.drr import DRRScheduler
from repro.schedulers.registry import register_scheduler


@pytest.fixture
def restore_drr():
    yield
    register_scheduler("drr", DRRScheduler)


class _TruncatingDRR(DRRScheduler):
    """DRR with the historical credit-truncation bug re-planted."""

    def dequeue(self):
        ops = self._ops
        active = self._active
        while active:
            ops.bump()
            flow = active[0]
            if not self._head_charged:
                flow.deficit += int(flow.weight * self.quantum)
                self._head_charged = True
            if flow.head_size() <= flow.deficit:
                packet = flow.take()
                flow.deficit -= packet.size
                if not flow.queue:
                    flow.deficit = 0
                    active.popleft()
                    self._active_set.discard(flow.flow_id)
                    self._head_charged = False
                return self._account_departure(packet)
            active.rotate(-1)
            self._head_charged = False
        return None


def _fractional_scenario():
    flows = (FlowDef("fat", 4, 4.0), FlowDef("thin", 1, 0.0004))
    ops = tuple(("enq", i, 200) for i in (0, 1, 0, 0, 1, 0))
    return Scenario(1, flows, ops)


class TestConservationOracle:
    @pytest.mark.parametrize("variant", VARIANTS(),
                             ids=lambda v: v.name)
    def test_clean_schedulers_pass(self, variant):
        for seed in range(6):
            scenario = generate_scenario(seed, quick=True)
            run = run_scenario(variant, scenario)
            assert check_conservation(variant, scenario, run) == []

    def test_livelock_is_caught(self, restore_drr):
        register_scheduler("drr", _TruncatingDRR)
        variant = variant_by_name("drr")
        scenario = _fractional_scenario()
        run = run_scenario(variant, scenario, op_budget=50_000)
        violations = check_conservation(variant, scenario, run)
        assert [v.check for v in violations] == ["livelock"]

    def test_phantom_service_is_caught(self):
        variant = variant_by_name("fifo")
        scenario = _fractional_scenario()
        run = run_scenario(variant, scenario)
        run.departures.append(Departure(0, 200, uid=10**9))
        checks = {v.check for v in
                  check_conservation(variant, scenario, run)}
        assert "phantom_service" in checks

    def test_duplicate_service_is_caught(self):
        variant = variant_by_name("fifo")
        scenario = _fractional_scenario()
        run = run_scenario(variant, scenario)
        run.departures.append(run.departures[-1])
        run.dequeued_bytes += run.departures[-1].size
        checks = {v.check for v in
                  check_conservation(variant, scenario, run)}
        assert "duplicate_service" in checks
        assert "byte_conservation" in checks

    def test_fifo_order_is_checked(self):
        variant = variant_by_name("fifo")
        scenario = _fractional_scenario()
        run = run_scenario(variant, scenario)
        flow0 = [d for d in run.departures if d.flow_index == 0]
        assert len(flow0) >= 2
        i = run.departures.index(flow0[0])
        j = run.departures.index(flow0[1])
        run.departures[i], run.departures[j] = (run.departures[j],
                                                run.departures[i])
        checks = {v.check for v in
                  check_conservation(variant, scenario, run)}
        assert "fifo_order" in checks


class TestLagOracle:
    @pytest.mark.parametrize("variant", VARIANTS(),
                             ids=lambda v: v.name)
    def test_clean_schedulers_within_bounds(self, variant):
        for seed in range(6):
            scenario = generate_scenario(seed, quick=True)
            run = run_scenario(variant, scenario)
            assert check_fluid_lag(variant, scenario, run) == []

    def test_fluid_reference_is_exact_waterfilling(self):
        # Two flows, weights 3:1, 4 packets each of 100B. GPS serves them
        # 3:1, so when the real system serves flow 1 first, flow 0 lags by
        # 75B after the first departure.
        run = ScenarioRun(variant="x")
        run.drain_backlog_bytes = {0: 400, 1: 400}
        run.final_drain_start = 0
        run.departures = [Departure(1, 100, uid=i) for i in range(4)] + \
            [Departure(0, 100, uid=4 + i) for i in range(4)]
        lags = fluid_lag(run, {0: 3.0, 1: 1.0}, "bytes")
        # Flow 0's fluid share of the first 400B transmitted is 300B
        # while flow 0 has received no real service: max lag 300.
        assert lags[0] == pytest.approx(300.0)
        assert lags[1] == pytest.approx(0.0)

    def test_starvation_breaks_the_bound(self, restore_drr):
        register_scheduler("drr", _TruncatingDRR)
        variant = variant_by_name("drr")
        # Thin flow gets int(0.2 * 1500) = 300B per visit truncated from
        # 300.0 — fine; use 0.0004 so credit truncates to 0 but load the
        # fat flow heavily so the run ends by op budget on the thin tail.
        flows = (FlowDef("fat", 4, 4.0), FlowDef("thin", 1, 0.0004))
        ops = tuple(("enq", 0, 200) for _ in range(40)) + \
            (("enq", 1, 200),) * 3
        scenario = Scenario(2, flows, ops)
        run = run_scenario(variant, scenario, op_budget=50_000)
        violations = check_conservation(variant, scenario, run) + \
            check_fluid_lag(variant, scenario, run)
        assert violations  # starves -> livelock once fat drains


class TestMetamorphicOracle:
    @pytest.mark.parametrize("variant", VARIANTS(),
                             ids=lambda v: v.name)
    def test_clean_schedulers_invariant(self, variant):
        for seed in range(4):
            scenario = generate_scenario(seed, quick=True)
            run = run_scenario(variant, scenario)
            assert check_metamorphic(variant, scenario, run) == []

    def test_relabel_catches_id_dependence(self, restore_drr):
        class IdOrderedDRR(DRRScheduler):
            # Serves flows in sorted-flow-id order: relabeling changes
            # the service order, which the oracle must flag.
            def dequeue(self):
                backlogged = sorted(
                    (f for f in self._flows.values() if f.queue),
                    key=lambda f: str(f.flow_id),
                )
                if not backlogged:
                    return None
                return self._account_departure(backlogged[0].take())

        register_scheduler("drr", IdOrderedDRR)
        variant = variant_by_name("drr")
        flows = (FlowDef("a", 1, 1.0), FlowDef("b", 1, 1.0))
        ops = (("enq", 0, 100), ("enq", 1, 100),
               ("enq", 0, 100), ("enq", 1, 100))
        scenario = Scenario(3, flows, ops)
        run = run_scenario(variant, scenario)
        checks = {v.check for v in
                  check_metamorphic(variant, scenario, run)}
        assert "relabel" in checks


class TestCheckScenario:
    def test_accepts_precomputed_run(self):
        variant = variant_by_name("srr")
        scenario = generate_scenario(1, quick=True)
        run = run_scenario(variant, scenario)
        assert check_scenario(variant, scenario, run=run) == []

    def test_families_to_recheck_adds_recorded_opt_in_families(self):
        from repro.conformance.oracles import (
            DEFAULT_FAMILIES,
            families_to_recheck,
        )

        assert families_to_recheck([]) == DEFAULT_FAMILIES
        assert families_to_recheck(["lag", "lag"]) == DEFAULT_FAMILIES
        assert families_to_recheck(["bounds", "lag"]) == (
            DEFAULT_FAMILIES + ("bounds",)
        )


class TestBoundsOracle:
    """Family 4: network-calculus delay-bound certification."""

    @pytest.mark.parametrize("name", ["srr", "drr", "wrr", "iwrr"])
    def test_clean_disciplines_certify(self, name):
        from repro.conformance.oracles import check_bounds

        variant = variant_by_name(name)
        for seed in range(3):
            scenario = generate_scenario(seed, quick=True)
            assert check_bounds(variant, scenario) == []

    def test_uncertified_disciplines_are_exempt(self):
        from repro.conformance.oracles import check_bounds

        scenario = generate_scenario(0, quick=True)
        for name in ("rr", "wfq"):
            variant = variant_by_name(name)
            assert check_bounds(variant, scenario) == []

    def test_starved_flow_is_flagged(self, restore_drr):
        from repro.conformance.oracles import check_bounds

        class FirstFlowOnlyDRR(DRRScheduler):
            # Serves only the first-registered flow: everyone else
            # starves, which the oracle must refuse to certify.
            def dequeue(self):
                first = next(iter(self._flows.values()), None)
                if first is None or not first.queue:
                    return None
                return self._account_departure(first.take())

        register_scheduler("drr", FirstFlowOnlyDRR)
        variant = variant_by_name("drr")
        flows = (FlowDef("a", 2, 2.0), FlowDef("b", 1, 1.0))
        scenario = Scenario(7, flows, (("enq", 0, 200), ("enq", 1, 200)))
        checks = {v.check for v in check_bounds(variant, scenario)}
        assert checks & {"no_service", "delay_bound"}

    def test_check_scenario_wires_bounds_family(self):
        variant = variant_by_name("iwrr")
        scenario = generate_scenario(5, quick=True)
        violations = check_scenario(
            variant, scenario,
            families=("conservation", "lag", "metamorphic", "bounds"),
        )
        assert violations == []

    def test_certification_records_are_sound(self):
        from repro.conformance.oracles import bounds_certification_run

        records = bounds_certification_run(
            "iwrr", [("a", 4.0), ("b", 2.0), ("c", 1.0)],
        )
        assert [r["flow_id"] for r in records] == ["a", "b", "c"]
        for rec in records:
            assert rec["delivered"] > 0
            assert rec["observed_s"] <= rec["bound_s"]
            assert 0 < rec["ratio"] <= 1.0
