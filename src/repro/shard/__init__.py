"""repro.shard: pure-data topology specs, their reference build, and digests.

* :mod:`repro.shard.topology` — :class:`~repro.shard.topology.TopologySpec`,
  an ordered, picklable, signature-hashable description of a multi-hop
  scenario (the generators in :mod:`repro.net.scenario` produce them);
* :mod:`repro.shard.build` — :func:`~repro.shard.build.build_network`,
  which materialises a spec as one :class:`~repro.net.scenario.Network`;
* :mod:`repro.shard.digest` — sha256 delivery-stream digests, the
  bit-identity check between two runs of the same spec.

The package once also held a multi-process sharded engine; its name stays
because these import paths are public (the ``perfbench`` workloads and
their spec-keyed goldens import them). Import from the submodules: the
package root exports nothing, so :mod:`repro.net.scenario` can import
:mod:`repro.shard.topology` without a cycle through :mod:`repro.net`.
"""
