"""``NodeRecord.cores_in_use`` is a kept counter, never out of step.

Placement reads ``available_cores`` for every candidate node, so the
shared node record keeps its in-use core total instead of summing
``allocations`` on each read.  Random sequences of every mutator must
leave the counter equal to that sum on each personality's record (and
PBS's per-core slots in step with it), and the counter must not leak
into the record's equality or ``repr``.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import SchedulerError
from repro.pbs.nodes import PbsNodeRecord
from repro.slurm.nodestate import SlurmNodeRecord
from repro.winhpc.nodestate import WinNodeRecord, WinNodeState

CORES = 8
RECORDS = (PbsNodeRecord, SlurmNodeRecord, WinNodeRecord)

# allocations are listed twice so that nodes actually fill up
ops = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.integers(1, 4), st.integers(0, CORES)),
        st.tuples(st.just("allocate"), st.integers(1, 4), st.integers(0, CORES)),
        st.tuples(st.just("release"), st.integers(1, 5)),
        st.tuples(st.sampled_from(["mark_up", "mark_down", "cordon", "uncordon"])),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(program=ops)
def test_counter_equals_the_sum_of_allocations(program):
    for record_class in RECORDS:
        record = record_class(hostname="enode01", cores=CORES)
        record.mark_up(0.0)
        for op in program:
            if op[0] == "allocate":
                try:
                    record.allocate(op[1], op[2])
                except SchedulerError:
                    pass  # more cores than available: nothing booked
            elif op[0] == "release":
                record.release(op[1])
            else:
                getattr(record, op[0])(1.0)
            assert record.cores_in_use == sum(record.allocations.values())
            expected_free = (
                CORES - record.cores_in_use
                if record.state is record_class.UP else 0
            )
            assert record.available_cores == expected_free
            if record_class is PbsNodeRecord:
                assert len(record.core_jobs) == record.cores_in_use


def test_counter_stays_out_of_equality_and_repr():
    busy = WinNodeRecord(hostname="enode01", cores=CORES)
    busy.mark_up(0.0)
    busy.allocate(7, 3)
    twin = WinNodeRecord(
        hostname="enode01", cores=CORES, state=WinNodeState.ONLINE,
        allocations={7: 3},
    )
    # the twin was built with its allocations, never through allocate()
    assert twin.cores_in_use == 3
    assert busy == twin
    assert repr(busy) == (
        "WinNodeRecord(hostname='enode01', cores=8, "
        "state=<WinNodeState.ONLINE: 'Online'>, allocations={7: 3}, "
        "last_state_change=0.0)"
    )
