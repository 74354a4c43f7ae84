"""Rule modules — importing this package registers every rule.

Add a new rule by creating a module here with a ``@register``-decorated
:class:`repro.analysis.registry.Rule` subclass and importing it below;
see docs/STATIC_ANALYSIS.md ("Adding a rule") for the full checklist.
"""

from repro.analysis.rules import (  # noqa: F401  (side effect: registration)
    determinism,
    hygiene,
    layering,
    ordering,
    perf,
    tracing,
)
from repro.analysis.rules import (  # noqa: F401  (flow rules; they import
    clock_taint,                    # determinism above, so keep this second)
    rng_streams,
    trace_cover,
)
