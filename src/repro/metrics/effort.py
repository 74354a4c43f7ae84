"""Administration-effort accounting (experiment E4).

The paper's v1→v2 argument is qualitative: v1 "requires a substantial
input from the administrators ... time and labour consuming in the
process of reinstallation and reconfiguration" (§III.C), v2 "has achieved
the improvement in the system maintenance and reduction of manual
modification" (§V).  To make that measurable, every deployment flow logs
a :class:`ManualStep` whenever a human would have had to intervene, and
counts collateral damage (the other OS destroyed, MBR repairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass(frozen=True)
class ManualStep:
    """One human intervention."""

    category: str  # e.g. "edit-script", "reinstall-other-os", "fix-mbr"
    description: str
    node: str = ""


@dataclass
class AdminEffortLedger:
    """Tally of human interventions during a deployment scenario."""

    steps: List[ManualStep] = field(default_factory=list)

    def record(self, category: str, description: str, node: str = "") -> None:
        self.steps.append(ManualStep(category, description, node))

    def count(self, category: str = "") -> int:
        """Steps in *category* (all steps when empty)."""
        if not category:
            return len(self.steps)
        return sum(1 for s in self.steps if s.category == category)

    def by_category(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for step in self.steps:
            out[step.category] = out.get(step.category, 0) + 1
        return dict(sorted(out.items()))
