"""Applications: the Table-I catalog and runtime models.

Table I is the paper's motivation in data form: 15 packages used on the
Huddersfield campus cluster, 10 Linux-only, 2 Windows-only, 3 on both.
A single-OS cluster strands part of that list — the hybrid runs it all.
"""

from repro.apps.application import AppJobRequest, Application, JobProfile
from repro.apps.catalog import (
    TABLE_I,
    app_by_name,
    supported_on,
)

__all__ = [
    "AppJobRequest",
    "Application",
    "JobProfile",
    "TABLE_I",
    "app_by_name",
    "supported_on",
]
