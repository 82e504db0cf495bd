"""Tests for the pure-data topology specs and the generators."""

import pickle

import pytest

from repro.core import ConfigurationError
from repro.net.scenario import dumbbell_of_dumbbells, fat_tree
from repro.shard.topology import (
    FlowDecl,
    LinkSpec,
    NodeSpec,
    SourceDecl,
    TopologySpec,
)


def tiny_spec(**kwargs):
    base = dict(
        name="tiny",
        nodes=(NodeSpec("a", group=0), NodeSpec("b", group=1)),
        links=(LinkSpec("a", "b", rate_bps=1e6, delay=0.001),),
        flows=(FlowDecl("f1", "a", "b"),),
        sources=(
            SourceDecl("f1", "cbr", (("rate_bps", 8e4),)),
        ),
    )
    base.update(kwargs)
    return TopologySpec(**base)


class TestValidation:
    def test_valid_spec_builds(self):
        spec = tiny_spec()
        assert spec.n_groups == 2
        assert spec.groups() == (0, 1)
        assert spec.group_of()["b"] == 1

    def test_duplicate_node_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(nodes=(NodeSpec("a"), NodeSpec("a")))

    def test_unknown_link_endpoint_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(links=(LinkSpec("a", "zz", rate_bps=1e6),))

    def test_unknown_flow_endpoint_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(flows=(FlowDecl("f1", "a", "zz"),))

    def test_duplicate_flow_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(flows=(FlowDecl("f1", "a", "b"),
                             FlowDecl("f1", "b", "a")))

    def test_source_for_unknown_flow_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(sources=(SourceDecl("nope", "cbr", ()),))

    def test_unknown_source_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(sources=(SourceDecl("f1", "quantum", ()),))

    def test_window_source_not_offered(self):
        # A closed-loop source's offered load depends on delivery
        # feedback, not on its declaration; the spec vocabulary must not
        # offer one.
        from repro.shard.topology import SOURCE_KINDS
        assert "window" not in SOURCE_KINDS


class TestSignature:
    def test_signature_stable(self):
        assert tiny_spec().signature() == tiny_spec().signature()

    def test_signature_tracks_content(self):
        changed = tiny_spec(links=(
            LinkSpec("a", "b", rate_bps=2e6, delay=0.001),
        ))
        assert changed.signature() != tiny_spec().signature()

    def test_spec_is_picklable(self):
        spec = tiny_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.signature() == spec.signature()


class TestGenerators:
    def test_dumbbell_groups_are_router_groups(self):
        spec = dumbbell_of_dumbbells(groups=3, hosts_per_group=2)
        assert spec.n_groups == 3
        # Every host/sink/router of group g carries group g.
        groups = spec.group_of()
        assert groups["g1h0"] == 1
        assert groups["g2d1"] == 2

    def test_fat_tree_shape(self):
        spec = fat_tree(k=4)
        # k=4: 4 pods x (2 edge + 2 agg + 4 hosts) + 4 cores.
        assert len(spec.nodes) == 4 * 8 + 4
        assert spec.n_groups == 4
        assert len(spec.flows) == 16  # one flow per host

    def test_fat_tree_odd_k_rejected(self):
        with pytest.raises(ConfigurationError):
            fat_tree(k=3)

    def test_fat_tree_flows_per_host_bounds(self):
        with pytest.raises(ConfigurationError):
            fat_tree(k=4, flows_per_host=4)
        assert len(fat_tree(k=4, flows_per_host=3).flows) == 48

    def test_source_rates_pairwise_distinct(self):
        # The tie-freedom contract: no two CBR sources share a rate.
        spec = fat_tree(k=4, flows_per_host=3)
        rates = [dict(s.params)["rate_bps"] for s in spec.sources]
        assert len(set(rates)) == len(rates)
