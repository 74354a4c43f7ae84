"""Property-based tests for utilisation math and workload invariants."""

from hypothesis import given, settings, strategies as st

from repro.metrics.recorder import JobRecord
from repro.metrics.utilization import (
    busy_core_seconds,
    cluster_utilization,
    utilization_timeline,
)
from repro.workloads import MixedWorkload, load_trace, save_trace

record_strategy = st.builds(
    lambda submit, wait, run, cores, started: JobRecord(
        name="j",
        scheduler="pbs",
        cores=cores,
        submit_time=submit,
        start_time=(submit + wait) if started else None,
        end_time=(submit + wait + run) if started else None,
    ),
    submit=st.floats(min_value=0, max_value=1000),
    wait=st.floats(min_value=0, max_value=500),
    run=st.floats(min_value=0, max_value=500),
    cores=st.integers(min_value=1, max_value=8),
    started=st.booleans(),
)


@settings(max_examples=60)
@given(records=st.lists(record_strategy, max_size=20),
       horizon=st.floats(min_value=1, max_value=3000))
def test_utilization_bounded_and_consistent(records, horizon):
    total_cores = 16
    util = cluster_utilization(records, total_cores, horizon)
    assert util >= 0.0
    busy = busy_core_seconds(records, horizon)
    assert busy <= sum(r.cores for r in records) * horizon + 1e-6
    # timeline integrates to the same busy core-seconds
    timeline = utilization_timeline(records, horizon, bin_s=horizon / 10)
    # jobs may end after the horizon; timeline clips identically
    assert abs(float(timeline.sum()) * (horizon / 10) - busy) < 1e-3
    assert (timeline >= -1e-9).all()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_mixed_workload_invariants(seed, fraction):
    jobs = MixedWorkload(
        seed=seed, windows_fraction=fraction, horizon_s=4 * 3600.0,
        rate_per_hour=5.0,
    ).generate()
    names = [j.name for j in jobs]
    assert len(names) == len(set(names))  # names unique (join key!)
    for job in jobs:
        assert 0 <= job.arrival_s < 4 * 3600.0
        assert job.runtime_s > 0
        assert job.cores >= 1
        if fraction == 0.0:
            assert job.os_name == "linux"
        if fraction == 1.0:
            assert job.os_name == "windows"
    # trace round-trip preserves everything
    assert load_trace(save_trace(jobs)) == sorted(
        jobs, key=lambda j: j.arrival_s
    )
