"""PERF003 positive: a TraceEvent built eagerly at the emit site.

This pays the dataclass + boxing cost on every event regardless of the
run's trace mode, and forges a seq number the tracer never assigned
— exactly the overhead the lazy tracer fast path removed.
"""

from repro.trace import TraceEvent


def record_job_start(events, sim, node):
    events.append(
        TraceEvent(
            seq=len(events), time=sim.now, kind="pbs.job.start", node=node
        )
    )
