"""NodeIndex ≡ reference scheduler — the property the scale path rests on.

The PBS server places jobs through :class:`repro.pbs.scheduler.NodeIndex`
(persistent free-core buckets); ``allocate_fifo`` in
``tests/pbs/reference.py`` is the readable O(n log n) reference.  These properties hold the two equal on
arbitrary node tables, queues, and mutation sequences — any divergence
would silently change every experiment's trace, so the tests compare
*placements* (exact hosts, in order), not just feasibility.
"""

from hypothesis import given, settings, strategies as st

from repro.pbs.job import PbsJob
from repro.pbs.nodes import PbsNodeRecord, PbsNodeState
from repro.pbs.scheduler import NodeIndex
from tests.pbs.reference import allocate_fifo


def _make_nodes(specs):
    """specs: list of (np, occupied, state) -> ({host: record}, NodeIndex)."""
    nodes = {}
    index = NodeIndex()
    for i, (np, occupied, state) in enumerate(specs):
        record = PbsNodeRecord(hostname=f"n{i:02d}", cores=np)
        record.mark_up(0.0)
        if occupied:
            record.allocate(f"pre{i}.head", min(occupied, np))
        if state is not PbsNodeState.FREE:
            record.state = state
        nodes[record.hostname] = record
        index.add(record)
    return nodes, index


def _make_jobs(shapes):
    return [
        PbsJob(job_id=f"{i + 1}.head", name=f"j{i}", owner="u",
               nodes=n, ppn=p)
        for i, (n, p) in enumerate(shapes)
    ]


node_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),           # np
        st.integers(min_value=0, max_value=8),           # occupied cores
        st.sampled_from([PbsNodeState.FREE, PbsNodeState.FREE,
                         PbsNodeState.DOWN, PbsNodeState.OFFLINE]),
    ),
    min_size=0,
    max_size=12,
)


def _hosts(placement):
    return None if placement is None else [
        (record.hostname, ppn) for record, ppn in placement
    ]


@settings(max_examples=120)
@given(specs=node_specs, shape=st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=8),
))
def test_allocate_fifo_matches_reference(specs, shape):
    nodes, index = _make_nodes(specs)
    job = _make_jobs([shape])[0]
    assert _hosts(index.allocate_fifo(job)) == _hosts(
        allocate_fifo(job, nodes)
    )


@settings(max_examples=80, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.integers(min_value=1, max_value=8),
                  st.integers(min_value=0, max_value=8),
                  st.just(PbsNodeState.FREE)),
        min_size=1, max_size=8,
    ),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["allocate", "release", "down", "up"]),
            st.integers(min_value=0, max_value=7),   # node pick (mod len)
            st.integers(min_value=1, max_value=8),   # cores / job pick
        ),
        max_size=25,
    ),
    shape=st.tuples(st.integers(min_value=1, max_value=4),
                    st.integers(min_value=1, max_value=8)),
)
def test_index_stays_equivalent_under_mutations(specs, ops, shape):
    """reindex() after arbitrary allocate/release/up/down sequences keeps
    the index equal to a fresh reference scan of the same node table."""
    nodes, index = _make_nodes(specs)
    hostnames = sorted(nodes)
    seq = 0
    for op, pick, amount in ops:
        record = nodes[hostnames[pick % len(hostnames)]]
        if op == "allocate":
            if record.available_cores >= amount:
                seq += 1
                record.allocate(f"m{seq}.head", amount)
        elif op == "release":
            held = sorted(set(record.core_jobs.values()))
            if held:
                record.release(held[amount % len(held)])
        elif op == "down":
            record.mark_down(0.0)
        else:
            record.mark_up(0.0)
        index.reindex(record)

    assert index.free_cores() == sum(
        r.available_cores for r in nodes.values()
    )
    job = _make_jobs([shape])[0]
    assert _hosts(index.allocate_fifo(job)) == _hosts(
        allocate_fifo(job, nodes)
    )
