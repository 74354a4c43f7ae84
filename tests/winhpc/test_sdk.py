"""SDK facade tests."""

import pytest

from repro.errors import SchedulerError
from repro.simkernel import Simulator
from repro.winhpc import (
    HpcSchedulerConnection,
    WinHpcScheduler,
    WinJobSpec,
    WinJobState,
)


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def conn(sim):
    scheduler = WinHpcScheduler(sim)
    for i in range(1, 3):
        scheduler.add_node(f"enode{i:02d}", cores=4)
        scheduler.node_online(f"enode{i:02d}")
    connection = HpcSchedulerConnection()
    connection.connect(scheduler)
    return connection


def test_unconnected_calls_rejected():
    conn = HpcSchedulerConnection()
    with pytest.raises(SchedulerError):
        conn.get_job_list()
    with pytest.raises(SchedulerError):
        conn.max_node_cores()


def test_get_job_list_filters(sim, conn):
    submit = conn.scheduler.submit
    running = submit(WinJobSpec(name="r", amount=8, runtime_s=100.0))
    queued = submit(WinJobSpec(name="q", amount=8, runtime_s=100.0))
    assert conn.get_job_list(WinJobState.RUNNING) == [running]
    assert conn.get_job_list(WinJobState.QUEUED) == [queued]
    assert len(conn.get_job_list()) == 2
