"""Middleware configuration: the eleven settable values and their validation.

The elasticity switch lives in a nested dataclass
(:class:`ElasticConfig`); that group is the only way to set it.  Every
other default lives in the component class that uses it, so the field
lists below are pinned: a new knob has to be added here on purpose.
"""

import dataclasses

import pytest

from repro.core.config import ElasticConfig, MiddlewareConfig
from repro.errors import ConfigurationError


def _fields(cls):
    return [f.name for f in dataclasses.fields(cls)]


def test_the_deployment_surface_is_pinned():
    assert _fields(MiddlewareConfig) == [
        "version",
        "check_cycle_s",
        "initial_windows_nodes",
        "v1_switch_method",
        "v2_per_mac_menus",
        "eager_detectors",
        "order_timeout_s",
        "checkpoint_interval_s",
        "burst_nodes",
        "windows_scheduler",
        "elastic",
    ]
    assert _fields(ElasticConfig) == ["enabled"]


def test_nested_groups_are_the_canonical_spelling():
    config = MiddlewareConfig(elastic=ElasticConfig(enabled=True))
    assert config.elastic.enabled is True


@pytest.mark.parametrize("kwargs", [
    {"version": 3},
    {"check_cycle_s": 0.0},
    {"initial_windows_nodes": -1},
    {"v1_switch_method": "telepathy"},
    {"order_timeout_s": 0.0},
    {"checkpoint_interval_s": 0.0},
    {"burst_nodes": -1},
])
def test_bad_values_are_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        MiddlewareConfig(**kwargs)


def test_windows_scheduler_is_validated():
    assert MiddlewareConfig().windows_scheduler == "winhpc"
    assert MiddlewareConfig(windows_scheduler="slurm").windows_scheduler == (
        "slurm"
    )
    with pytest.raises(ConfigurationError, match="windows_scheduler"):
        MiddlewareConfig(windows_scheduler="lsf")


@pytest.mark.parametrize("keyword", [
    "elastic_typo",
    # the flat spellings of the nested group fields are not keywords
    "elastic_enabled",
    "elastic_cycle_s",
    "elastic_hysteresis_cycles",
    "elastic_min_online",
    "elastic_idle_surplus",
    "elastic_max_actions",
    "energy_metering",
    "trace_mode",
    "trace",
    # values whose defaults now live in the component that uses them
    "windows_partition_mb",
    "initial_os",
    "communicator_port",
    "pbs_user",
    "comm_acks",
    "comm_max_retries",
    "comm_retry_base_s",
    "comm_ack_timeout_s",
    "staleness_cycles",
    "watchdog_poll_s",
    "health_monitoring",
    "health_beat_s",
    "health_suspect_misses",
    "health_fence_misses",
    "job_max_restarts",
    "energy",
])
def test_unknown_keywords_fail_loudly(keyword):
    with pytest.raises(TypeError):
        MiddlewareConfig(**{keyword: True})

