"""Tests for adaptive quotes: requote, revoke, and the overload governor.

These pin the PR's audit invariant: an admission-time quote is either
honored, or explicitly revoked — never silently violated. The frozen
assumed-max-flows bound is the mechanism under test: quotes are linear
in N (SRR Lemma 2, DRR latency), so churn past the booking bound
invalidates them, and the governor's job is to notice and withdraw.
"""

import pytest

from repro.net import Network
from repro.obs.metrics import MetricsRegistry
from repro.qos import AdmissionController, OverloadGovernor, SLOWatchdog


def make_net(scheduler="srr"):
    net = Network(default_scheduler=scheduler)
    for n in ("a", "r1", "r2", "b"):
        net.add_node(n)
    net.add_link("a", "r1", rate_bps=10e6, delay=0.001)
    net.add_link("r1", "r2", rate_bps=1e6, delay=0.005)
    net.add_link("r2", "b", rate_bps=10e6, delay=0.001)
    return net


def make_cac(net=None, **kw):
    kw.setdefault("assumed_max_flows", 32)
    return AdmissionController(net if net is not None else make_net(), **kw)


class TestRequote:
    def test_initial_quote_preserved(self):
        cac = make_cac()
        res = cac.request("f1", "a", "b", 100_000)
        first = res.quote
        assert res.initial_quote is first
        cac.requote("f1")
        assert res.initial_quote is first  # admission-time promise kept
        assert res.requotes == 1

    def test_measured_n_tightens_when_underbooked(self):
        """One live flow on a bound booked for 32: the measured re-quote
        must be tighter than the worst-case admission quote."""
        cac = make_cac()
        res = cac.request("f1", "a", "b", 100_000)
        quote = cac.requote("f1")
        assert quote.total < res.initial_quote.total

    def test_measured_n_loosens_honestly_past_booking(self):
        """Churn past the booking bound must show up as a *looser*
        re-quote than the admission-time promise — the honest signal the
        governor revokes on, instead of a silently wrong bound."""
        net = make_net()
        cac = AdmissionController(net, assumed_max_flows=4)
        res = cac.request("f1", "a", "b", 100_000)
        sched = net.port("r1", "r2").scheduler
        for i in range(20):  # ungated churn blows past the bound
            sched.add_flow(f"churn-{i}", 1)
        honest = cac.requote("f1")
        assert honest.total > res.initial_quote.total

    def test_requote_unknown_flow_returns_none(self):
        assert make_cac().requote("ghost") is None


class TestRevoke:
    def test_revoke_releases_and_audits(self):
        cac = make_cac()
        res = cac.request("f1", "a", "b", 900_000)
        assert cac.revoke("f1", reason="overload") is True
        assert res.revoked
        assert res.revoke_reason == "overload"
        assert "f1" not in cac.reservations
        assert "f1" in cac.revoked
        assert cac.revocations == 1
        cac.request("f2", "a", "b", 900_000)  # capacity actually freed

    def test_revoke_unknown_is_noop(self):
        cac = make_cac()
        assert cac.revoke("ghost") is False
        assert cac.revocations == 0


class TestGovernor:
    def test_bound_holds_initially(self):
        cac = make_cac()
        cac.request("f1", "a", "b", 100_000)
        gov = OverloadGovernor(cac)
        assert not gov.bound_invalidated()

    def test_churn_past_bound_detected_and_enforced(self):
        net = make_net()
        cac = AdmissionController(net, assumed_max_flows=4)
        cac.request("f1", "a", "b", 100_000)
        sched = net.port("r1", "r2").scheduler
        for i in range(10):
            sched.add_flow(f"churn-{i}", 1)
        gov = OverloadGovernor(cac, quote_slack=1.0)
        assert gov.bound_invalidated()
        result = gov.enforce()
        assert result["requoted"] == 1
        # Measured N (11) > booked N (4): the honest quote exceeds the
        # promise, so the reservation is revoked, not silently broken.
        assert result["revoked"] == 1
        assert gov.revoked == [("f1", "quote_invalidated")]
        assert cac.reservations == {}

    def test_enforce_keeps_quotes_within_slack(self):
        cac = make_cac()
        cac.request("f1", "a", "b", 100_000)
        gov = OverloadGovernor(cac, quote_slack=1.25)
        result = gov.enforce()  # measured N below booking: quotes tighten
        assert result["revoked"] == 0
        assert "f1" in cac.reservations

    def test_violation_revokes_and_unwatches(self):
        cac = make_cac()
        cac.request("f1", "a", "b", 100_000)
        dog = SLOWatchdog(
            mode="record", tracer=None, registry=MetricsRegistry()
        )
        dog.watch("f1", 0.010)
        gov = OverloadGovernor(cac)
        gov.watchdog = dog
        dog.add_violation_listener(gov.on_violation)

        class P:
            flow_id, created_at, delivered_at, seq, size = (
                "f1", 0.0, 0.5, 0, 200,
            )

        dog.on_delivery(P())
        assert gov.revoked == [("f1", "slo_violation")]
        assert "f1" not in cac.reservations
        assert "f1" not in dog.watched()  # a revoked promise is unwatched

    def test_demotion_polices_best_effort_only(self):
        gov = OverloadGovernor(make_cac())

        class P:
            def __init__(self, fid):
                self.flow_id = fid

        assert gov.police(P("fault-burst")) is None  # not demoting yet
        gov.set_demoting(True)
        assert gov.police(P("fault-burst")) == "demoted"
        assert gov.police(P("be-bulk")) == "demoted"
        assert gov.police(P("gold")) is None  # guaranteed never demoted
        gov.set_demoting(False)
        assert gov.police(P("fault-burst")) is None
        assert gov.demoted_packets == 2
        assert gov.demotions == 1
