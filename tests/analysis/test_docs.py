"""The rule catalogue in docs/STATIC_ANALYSIS.md matches the registry.

A rule added without a catalogue row, or a row left behind for a
deleted rule, fails here.
"""

import re
from pathlib import Path

from repro.analysis import all_rules
from repro.analysis.suppressions import SUPPRESSION_RULES

DOC = Path(__file__).parents[2] / "docs" / "STATIC_ANALYSIS.md"

#: a catalogue row starts with the rule id, e.g. ``| DET007 `[flow]` |``
_ROW = re.compile(r"^\| ([A-Z]+[0-9]*)[ |]", re.MULTILINE)


def test_catalogue_rows_match_the_registry():
    text = DOC.read_text(encoding="utf-8")
    start = text.index("## Rule catalogue")
    end = text.index("\n## ", start + 1)
    documented = _ROW.findall(text[start:end])
    assert len(documented) == len(set(documented)), documented
    registered = {rule.id for rule in all_rules()}
    assert set(documented) == registered | set(SUPPRESSION_RULES) | {"PARSE"}
