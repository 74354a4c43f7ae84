"""Metrics: intervals, utilisation math, wait stats, tables, effort."""

import numpy as np
import pytest

from repro.metrics import (
    AdminEffortLedger,
    JobRecord,
    OsInterval,
    Table,
    WaitStats,
    usable_core_seconds,
    wait_stats,
)
from repro.metrics.utilization import (
    busy_core_seconds,
    cluster_utilization,
    utilization_timeline,
)
from repro.metrics.waittime import makespan


def record(name="j", cores=4, submit=0.0, start=None, end=None, scheduler="pbs"):
    return JobRecord(
        name=name, scheduler=scheduler, cores=cores, submit_time=submit,
        start_time=start, end_time=end,
    )


def test_os_interval_duration_clipping():
    interval = OsInterval("n", "linux", start=100.0, end=300.0)
    assert interval.duration(horizon=1000.0) == 200.0
    assert interval.duration(horizon=250.0) == 150.0
    open_interval = OsInterval("n", "linux", start=100.0)
    assert open_interval.duration(horizon=400.0) == 300.0


def test_usable_core_seconds_filters_os():
    intervals = [
        OsInterval("a", "linux", 0.0, 100.0),
        OsInterval("b", "windows", 0.0, 50.0),
    ]
    assert usable_core_seconds(intervals, 4, 100.0) == 600.0
    assert usable_core_seconds(intervals, 4, 100.0, os_name="linux") == 400.0
    assert usable_core_seconds([], 4, 100.0) == 0.0


def test_busy_core_seconds():
    jobs = [
        record(start=0.0, end=100.0, cores=4),
        record(start=50.0, end=150.0, cores=2),
        record(start=None),  # never started
    ]
    assert busy_core_seconds(jobs, horizon=200.0) == 400.0 + 200.0
    # clipped at the horizon
    assert busy_core_seconds(jobs, horizon=100.0) == 400.0 + 100.0
    assert busy_core_seconds([], 100.0) == 0.0


def test_cluster_utilization():
    jobs = [record(start=0.0, end=50.0, cores=8)]
    assert cluster_utilization(jobs, total_cores=8, horizon=100.0) == 0.5
    assert cluster_utilization(jobs, total_cores=0, horizon=100.0) == 0.0


def test_utilization_timeline_bins():
    jobs = [record(start=60.0, end=180.0, cores=4)]
    timeline = utilization_timeline(jobs, horizon=240.0, bin_s=60.0)
    assert timeline.shape == (4,)
    assert np.allclose(timeline, [0.0, 4.0, 4.0, 0.0])


def test_utilization_timeline_open_job_runs_to_horizon():
    jobs = [record(start=30.0, end=None, cores=2)]
    timeline = utilization_timeline(jobs, horizon=60.0, bin_s=60.0)
    assert np.allclose(timeline, [1.0])


def test_wait_stats():
    jobs = [
        record(submit=0.0, start=10.0),
        record(submit=0.0, start=30.0),
        record(submit=0.0, start=None),  # excluded
    ]
    stats = wait_stats(jobs)
    assert stats.count == 2
    assert stats.mean == 20.0
    assert stats.median == 20.0
    assert stats.maximum == 30.0


def test_wait_stats_empty():
    assert wait_stats([]) == WaitStats.empty()


def test_makespan():
    jobs = [
        record(submit=0.0, start=5.0, end=50.0),
        record(submit=10.0, start=20.0, end=90.0),
    ]
    assert makespan(jobs) == 90.0
    assert makespan([record()]) is None


def test_table_rendering():
    table = Table(["a", "long-header"], title="T")
    table.add_row(["x", 1.2345])
    table.add_row(["yy", 123.456])
    text = table.render()
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "long-header" in lines[1]
    assert "1.23" in text and "123" in text


def test_table_row_width_mismatch():
    table = Table(["a", "b"])
    with pytest.raises(ValueError):
        table.add_row([1])


def test_effort_ledger():
    ledger = AdminEffortLedger()
    ledger.record("edit-script", "x")
    ledger.record("edit-script", "y", node="enode01")
    ledger.record("fix-mbr", "z")
    assert ledger.count() == 3
    assert ledger.count("edit-script") == 2
    assert ledger.by_category() == {"edit-script": 2, "fix-mbr": 1}
