"""Time units and duration formatting.

Simulation time is a ``float`` number of seconds since simulation start.
These constants keep scenario code readable (``10 * MINUTE`` instead of
``600.0``) and :func:`format_duration` renders times in reports.
"""

from __future__ import annotations

SECOND: float = 1.0
MINUTE: float = 60.0
HOUR: float = 3600.0
DAY: float = 86400.0


def format_duration(seconds: float) -> str:
    """Render a duration in seconds as a compact human-readable string.

    >>> format_duration(272.5)
    '4m32.5s'
    >>> format_duration(3600)
    '1h00m00.0s'
    >>> format_duration(12.25)
    '12.2s'
    """
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if seconds < MINUTE:
        return f"{seconds:.1f}s"
    if seconds < HOUR:
        minutes, rem = divmod(seconds, MINUTE)
        return f"{int(minutes)}m{rem:04.1f}s"
    hours, rem = divmod(seconds, HOUR)
    minutes, rem = divmod(rem, MINUTE)
    return f"{int(hours)}h{int(minutes):02d}m{rem:04.1f}s"
