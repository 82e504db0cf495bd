"""Reference builds of a TopologySpec are bit-identical across engines.

Digests are sha256 over per-flow delivery streams (seq, size, created_at,
delivered_at — floats via repr), so "equal digest" means every packet of
every flow was created and delivered at exactly the same simulated times.
"""

from repro.net.scenario import dumbbell_of_dumbbells, fat_tree
from repro.shard.build import build_network
from repro.shard.digest import delivery_digest, network_delivery_digest

UNTIL = 0.2


class TestDigestEquivalence:
    def test_heap_and_calendar_agree(self):
        for spec in (
            dumbbell_of_dumbbells(groups=4, hosts_per_group=2),
            fat_tree(k=4),
        ):
            digests = {}
            for engine in ("heap", "calendar"):
                net = build_network(spec, engine=engine)
                net.run(until=UNTIL)
                assert net.sinks.total_packets > 0, spec.name
                digests[engine] = network_delivery_digest(net)
            assert digests["heap"] == digests["calendar"], spec.name


class TestResultShape:
    """Properties of the digest a run's deliveries reduce to."""

    def test_digest_function_is_order_insensitive_across_flows(self):
        flows_a = {"f1": [(0, 200, 0.0, 0.1)], "f2": [(0, 200, 0.0, 0.2)]}
        flows_b = {"f2": [(0, 200, 0.0, 0.2)], "f1": [(0, 200, 0.0, 0.1)]}
        assert delivery_digest(flows_a) == delivery_digest(flows_b)

    def test_digest_sensitive_to_timing(self):
        flows_a = {"f1": [(0, 200, 0.0, 0.1)]}
        flows_b = {"f1": [(0, 200, 0.0, 0.1000001)]}
        assert delivery_digest(flows_a) != delivery_digest(flows_b)
