"""The scalar lane against the packet lane of the same scheduler.

SRR in packet mode serves ``push``/``pull`` (``(slot, size, ref)``
tuples) and ``enqueue``/``dequeue`` (Packet objects) through one set of
service structures. Driven with the same randomized churn, two
instances — one per lane — must agree on every accept/reject decision,
the service order, backlog accounting, per-flow service counters,
elementary-op counts and the number of WSS terms scanned.
``pull_batch(k)`` must equal ``k`` pulls. In deficit mode the lane
refuses to serve.
"""

import random

import pytest

from repro.core.errors import ConfigurationError
from repro.core.opcount import OpCounter
from repro.core.packet import Packet
from repro.schedulers.registry import create_scheduler

WEIGHTS = [1, 2, 3, 5, 8, 13, 64]

CONFIGS = [
    pytest.param("srr", {"quantum": 200}, id="srr-packet"),
]


def build_pair(name, kwargs):
    """(packet-lane scheduler, scalar-lane scheduler, their op counters)."""
    obj_ops, lane_ops = OpCounter(), OpCounter()
    obj = create_scheduler(name, op_counter=obj_ops, **kwargs)
    lane = create_scheduler(name, op_counter=lane_ops, **kwargs)
    return obj, lane, obj_ops, lane_ops


def flow_stats(sched, flow_ids):
    """Per-flow credit and service counters, by flow id."""
    out = {}
    for fid in flow_ids:
        f = sched.flow_state(fid)
        out[fid] = (f.deficit, f.packets_sent, f.bytes_sent,
                    f.packets_dropped, len(f.queue))
    return out


def lane_pull(lane, fids):
    """One scalar pull as ``(flow_id, size)`` (or None)."""
    item = lane.pull()
    if item is None:
        return None
    slot, size, ref = item
    assert fids[slot] == ref[0], "pull returned another flow's item"
    return ref[0], size


def assert_same_cost(obj, lane, obj_ops, lane_ops, step):
    """Equal op counts and equal WSS terms scanned so far."""
    assert obj_ops.count == lane_ops.count, (
        f"step {step}: op-count profiles diverged"
    )
    assert obj.terms_scanned == lane.terms_scanned, (
        f"step {step}: WSS terms scanned diverged"
    )


@pytest.mark.parametrize("name,kwargs", CONFIGS)
@pytest.mark.parametrize("seed", range(8))
def test_randomized_churn_is_bit_identical(name, kwargs, seed):
    rng = random.Random(seed * 7919 + 13)
    obj, lane, obj_ops, lane_ops = build_pair(name, kwargs)

    flows = {}
    fids = {}  # lane slot -> flow id (slots are recycled on removal)
    next_fid = 0

    def add_flow():
        nonlocal next_fid
        fid = f"f{next_fid}"
        next_fid += 1
        weight = rng.choice(WEIGHTS)
        limit = rng.choice([None, None, 4, 32])
        obj.add_flow(fid, weight, max_queue=limit)
        lane.add_flow(fid, weight, max_queue=limit)
        flows[fid] = weight
        fids[lane.slot_of(fid)] = fid

    for _ in range(rng.randint(2, 5)):
        add_flow()

    for step in range(300):
        r = rng.random()
        if r < 0.45 and flows:
            fid = rng.choice(sorted(flows))
            size = rng.randint(40, 1500)
            a = obj.enqueue(Packet(fid, size))
            b = lane.push(lane.slot_of(fid), size, (fid, step))
            assert a == b, f"step {step}: accept mismatch"
        elif r < 0.85:
            p_obj = obj.dequeue()
            got = lane_pull(lane, fids)
            if p_obj is None:
                assert got is None, f"step {step}: lane served extra"
            else:
                assert got == (p_obj.flow_id, p_obj.size), (
                    f"step {step}: service order diverged"
                )
        elif r < 0.93 and len(flows) > 1:
            fid = rng.choice(sorted(flows))
            assert obj.remove_flow(fid) == lane.remove_flow(fid)
            del flows[fid]
        else:
            add_flow()
        assert obj.backlog == lane.backlog
        assert obj.backlog_bytes == lane.backlog_bytes
        assert flow_stats(obj, flows) == flow_stats(lane, flows), (
            f"step {step}: per-flow state diverged"
        )
        assert_same_cost(obj, lane, obj_ops, lane_ops, step)

    # Drain to empty and compare the tail order too.
    while True:
        p_obj, got = obj.dequeue(), lane_pull(lane, fids)
        assert_same_cost(obj, lane, obj_ops, lane_ops, "drain")
        if p_obj is None:
            assert got is None
            break
        assert got == (p_obj.flow_id, p_obj.size)

    assert flow_stats(obj, flows) == flow_stats(lane, flows)
    assert lane.backlog == 0 and lane.backlog_bytes == 0


@pytest.mark.parametrize("name,kwargs", CONFIGS)
def test_pull_batch_matches_object_dequeue_sequence(name, kwargs):
    """``pull_batch`` serves exactly the per-call sequence."""
    rng = random.Random(99)
    obj, lane, obj_ops, lane_ops = build_pair(name, kwargs)
    for i, w in enumerate(WEIGHTS):
        obj.add_flow(i, w)
        lane.add_flow(i, w)
    for seq in range(400):
        fid = rng.randrange(len(WEIGHTS))
        size = rng.randint(40, 1500)
        obj.enqueue(Packet(fid, size))
        lane.push(lane.slot_of(fid), size, seq)

    expected = []
    while True:
        p = obj.dequeue()
        if p is None:
            break
        expected.append((p.flow_id, p.size))

    got = []
    while True:
        batch = lane.pull_batch(7)  # odd budget: exercises partial fills
        if not batch:
            break
        got.extend((slot, size) for slot, size, _ref in batch)
    assert got == expected  # slots equal flow ids: added in id order
    assert lane.backlog == 0 and lane.backlog_bytes == 0
    assert lane_ops.count == obj_ops.count
    assert obj.terms_scanned == lane.terms_scanned


@pytest.mark.parametrize("name,kwargs", CONFIGS)
def test_flow_table_reads_scalar_items(name, kwargs):
    """``remove_flow``, ``reweight`` and ``backlog_bytes`` stay exact
    while ``(slot, size, ref)`` items are queued."""
    sched = create_scheduler(name, **kwargs)
    sched.add_flow("a", 2)
    sched.add_flow("b", 3)
    for size in (100, 250, 400):
        sched.push(sched.slot_of("a"), size)
        sched.push(sched.slot_of("b"), size + 1)
    assert sched.flow_state("a").backlog_bytes == 750
    assert sched.backlog_bytes == 750 + 753
    sched.reweight("b", 5)
    assert sched.remove_flow("a") == 3
    assert sched.backlog == 3 and sched.backlog_bytes == 753
    served = sched.pull_batch(10)
    assert [size for _slot, size, _ref in served] == [101, 251, 401]
    assert sched.backlog == 0 and sched.backlog_bytes == 0


def test_slots_are_recycled():
    sched = create_scheduler("srr")
    sched.add_flow("a", 1)
    sched.add_flow("b", 1)
    slot_a = sched.slot_of("a")
    sched.remove_flow("a")
    sched.add_flow("c", 4)
    assert sched.slot_of("c") == slot_a
    assert sched.push(slot_a, 100, "ref")
    assert sched.pull() == (slot_a, 100, "ref")


def test_deficit_mode_has_no_scalar_lane():
    """Deficit mode runs on ``enqueue``/``dequeue`` only: ``pull`` and
    ``pull_batch`` refuse rather than serve."""
    sched = create_scheduler("srr", mode="deficit", quantum=200)
    sched.add_flow("a", 1)
    sched.push(sched.slot_of("a"), 100)
    with pytest.raises(ConfigurationError):
        sched.pull()
    with pytest.raises(ConfigurationError):
        sched.pull_batch(4)
    assert sched.backlog == 1
