"""Middleware configuration: nested knob groups and their validation.

The elasticity/energy/trace knobs live in nested dataclasses
(:class:`ElasticConfig`, :class:`EnergyConfig`, :class:`TraceConfig`);
those groups are the only way to set them.
"""

import pytest

from repro.core.config import (
    ElasticConfig,
    EnergyConfig,
    MiddlewareConfig,
    TraceConfig,
)
from repro.errors import ConfigurationError


def test_nested_groups_are_the_canonical_spelling():
    config = MiddlewareConfig(
        elastic=ElasticConfig(enabled=True, cycle_s=120.0, max_actions=4),
        energy=EnergyConfig(metering=False),
        trace=TraceConfig(mode="counts"),
    )
    assert config.elastic.enabled is True
    assert config.elastic.cycle_s == 120.0
    assert config.elastic.max_actions == 4
    assert config.energy.metering is False
    assert config.trace.mode == "counts"


def test_group_validation_runs_for_nested_groups():
    with pytest.raises(ConfigurationError):
        ElasticConfig(cycle_s=0.0)
    with pytest.raises(ConfigurationError):
        ElasticConfig(hysteresis_cycles=0)
    with pytest.raises(ConfigurationError):
        TraceConfig(mode="everything")


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
])
def test_unknown_keywords_fail_loudly(keyword):
    with pytest.raises(TypeError):
        MiddlewareConfig(**{keyword: True})
