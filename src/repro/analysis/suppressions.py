"""Inline suppression comments.

A finding is silenced with a comment on the offending line (or on a
comment-only line directly above it)::

    t0 = time.time()  # reprolint: disable=DET001 -- host-side bench timer

The justification after ``--`` is **required**: a suppression without one
is itself a finding (``SUP001``), and a suppression that silences
nothing is dead weight and also a finding (``SUP002``).  This keeps the
suppression inventory honest — every exception to the contract is
written down next to the code with a reason, and stale exceptions are
garbage-collected by the lint run itself.

Comments are discovered with :mod:`tokenize`, so the marker text inside
string literals is ignored.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set

from repro.analysis.findings import Finding, Severity

#: Marker grammar: ``# reprolint: disable=ID[,ID...] [-- justification]``
# The rules capture is deliberately loose ([\w-] not [A-Z0-9]): a typo'd
# id like ``det-one`` must still parse as a suppression so SUP001 can
# call it out, rather than being silently ignored.
_MARKER = re.compile(
    r"#\s*reprolint:\s*disable=(?P<rules>[\w\s,-]+?)"
    r"(?:\s*--\s*(?P<why>.*))?$"
)

_RULE_ID = re.compile(r"^[A-Z]+[0-9]+$")


@dataclass
class Suppression:
    """One parsed suppression comment."""

    line: int            # line the comment sits on (1-based)
    target_line: int     # line whose findings it silences
    rules: List[str]
    justification: str
    col: int
    used_rules: Set[str] = field(default_factory=set)

    def covers(self, rule_id: str, line: int) -> bool:
        return line == self.target_line and rule_id in self.rules


def _comment_tokens(source: str) -> Iterator[tokenize.TokenInfo]:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    try:
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                yield tok
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The AST parse will report the real syntax problem; comments
        # found up to that point still count.
        return


def parse_suppressions(source: str) -> List[Suppression]:
    """All suppression comments in *source*, in line order.

    A comment that shares its line with code targets that line; a
    comment alone on its line targets the next line (the conventional
    "annotation above the statement" style).
    """
    lines = source.splitlines()
    out: List[Suppression] = []
    for tok in _comment_tokens(source):
        match = _MARKER.search(tok.string)
        if match is None:
            continue
        rules = [r.strip() for r in match.group("rules").split(",") if r.strip()]
        why = (match.group("why") or "").strip()
        lineno = tok.start[0]
        text_before = lines[lineno - 1][: tok.start[1]] if lineno <= len(lines) else ""
        comment_only = not text_before.strip()
        target = lineno + 1 if comment_only else lineno
        out.append(
            Suppression(
                line=lineno,
                target_line=target,
                rules=rules,
                justification=why,
                col=tok.start[1],
            )
        )
    return out


def apply_suppressions(
    findings: List[Finding],
    suppressions: List[Suppression],
    path: str,
    unverified: Optional[FrozenSet[str]] = None,
) -> List[Finding]:
    """Filter suppressed findings; append SUP001/SUP002 hygiene findings.

    ``unverified`` names rule ids whose checks did *not* run in this
    pass (the graph-aware rules, when a file is linted stand-alone
    without the project-wide flow analysis).  A suppression for an
    unverified rule is exempt from SUP002 staleness: "silenced nothing"
    is only evidence of staleness when the rule actually looked.  When
    the flow pass runs, the runner passes an empty set and a stale
    DET007 suppression is flagged like any other.

    Returns the surviving findings (unsorted — the runner sorts).
    """
    if unverified is None:
        unverified = frozenset()
    kept: List[Finding] = []
    for finding in findings:
        silenced = False
        for sup in suppressions:
            if sup.covers(finding.rule, finding.line):
                sup.used_rules.add(finding.rule)
                silenced = True
        if not silenced:
            kept.append(finding)

    for sup in suppressions:
        bad_ids = [r for r in sup.rules if not _RULE_ID.match(r)]
        if bad_ids:
            kept.append(Finding(
                rule="SUP001", severity=Severity.ERROR, path=path,
                line=sup.line, col=sup.col,
                message=(
                    f"malformed rule id(s) {', '.join(bad_ids)} in "
                    "suppression (expected e.g. DET001)"
                ),
            ))
        if not sup.justification:
            kept.append(Finding(
                rule="SUP001", severity=Severity.ERROR, path=path,
                line=sup.line, col=sup.col,
                message=(
                    "suppression without justification: write "
                    "'# reprolint: disable=RULE -- <why this is safe>'"
                ),
            ))
        unused = sorted(set(sup.rules) - sup.used_rules - set(unverified))
        unused = [r for r in unused if _RULE_ID.match(r)]
        if unused:
            kept.append(Finding(
                rule="SUP002", severity=Severity.ERROR, path=path,
                line=sup.line, col=sup.col,
                message=(
                    f"unused suppression for {', '.join(unused)}: "
                    "nothing on the target line triggers it — remove it"
                ),
            ))
    return kept


#: Rule-catalogue entries for the suppression hygiene checks, so the
#: docs self-test and ``--rules`` listing can describe them alongside
#: the AST rules (they are implemented here, not as Rule subclasses).
SUPPRESSION_RULES: Dict[str, str] = {
    "SUP001": "suppression comment missing its '-- justification' text",
    "SUP002": "suppression that silences nothing (stale exception)",
}
