"""Reference builds of a TopologySpec reproduce pinned delivery digests.

Digests are sha256 over per-flow delivery streams (seq, size, created_at,
delivered_at — floats via repr), so "equal digest" means every packet of
every flow was created and delivered at exactly the same simulated times.
The golden values are identical on CPython 3.10, 3.11 and 3.12.
"""

from repro.net.scenario import dumbbell_of_dumbbells, fat_tree
from repro.shard.build import build_network
from repro.shard.digest import delivery_digest, network_delivery_digest

UNTIL = 0.2

#: (spec, packets delivered by UNTIL, delivery digest).
GOLDEN = (
    (
        dumbbell_of_dumbbells(groups=4, hosts_per_group=2),
        181,
        "fea7f0d99f6f009fdb8505ab40f6506e30c1cc457aea153577ab3bd0067c1067",
    ),
    (
        fat_tree(k=4),
        240,
        "81c62daf12aa8506de24c70b51a39554fbaa5409c98ccd11eba73af109e9c049",
    ),
)


class TestDigestEquivalence:
    def test_reference_builds_match_golden_digests(self):
        for spec, packets, digest in GOLDEN:
            net = build_network(spec)
            net.run(until=UNTIL)
            assert net.sinks.total_packets == packets, spec.name
            assert network_delivery_digest(net) == digest, spec.name


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
