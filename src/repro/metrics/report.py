"""Plain-text tables for the benchmark harness.

Every bench prints the rows the paper (or the claim) implies; this keeps
the rendering in one place so ``bench_output.txt`` reads uniformly.
"""

from __future__ import annotations

from typing import Any, List, Sequence


class Table:
    """A minimal aligned-column text table.

    >>> t = Table(["system", "utilisation"])
    >>> t.add_row(["hybrid", 0.83])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    system | utilisation
    ------ | -----------
    hybrid | 0.83
    """

    def __init__(self, headers: Sequence[str], title: str = "") -> None:
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: List[List[str]] = []

    def add_row(self, values: Sequence[Any]) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append([_fmt(v) for v in values])

    def render(self) -> str:
        widths = [
            max(len(self.headers[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(
            " | ".join(h.ljust(w) for h, w in zip(self.headers, widths)).rstrip()
        )
        lines.append(" | ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
            )
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)
