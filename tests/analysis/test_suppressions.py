"""Suppression semantics: targeting, justification policy, staleness."""

from repro.analysis import lint_source
from repro.analysis.suppressions import parse_suppressions


def rules_of(report):
    return [f.rule for f in report.findings]


def test_same_line_suppression_silences_finding():
    src = "import time\nx = time.time()  # reprolint: disable=DET001 -- bench\n"
    assert lint_source(src, module="repro.core.f").findings == []


def test_line_above_suppression_silences_finding():
    src = (
        "import time\n"
        "# reprolint: disable=DET001 -- bench timer\n"
        "x = time.time()\n"
    )
    assert lint_source(src, module="repro.core.f").findings == []


def test_suppression_only_covers_its_line():
    src = (
        "import time\n"
        "x = time.time()  # reprolint: disable=DET001 -- bench\n"
        "y = time.time()\n"
    )
    report = lint_source(src, module="repro.core.f")
    assert rules_of(report) == ["DET001"]
    assert report.findings[0].line == 3


def test_suppression_is_per_rule():
    src = (
        "import time\n"
        "def f(q=[]):  # reprolint: disable=DET001 -- wrong rule id\n"
        "    return q\n"
    )
    report = lint_source(src, module="repro.core.f")
    # API001 still fires, and the DET001 suppression is reported unused.
    assert sorted(rules_of(report)) == ["API001", "SUP002"]


def test_missing_justification_is_sup001():
    src = "import time\nx = time.time()  # reprolint: disable=DET001\n"
    report = lint_source(src, module="repro.core.f")
    assert rules_of(report) == ["SUP001"]


def test_multi_rule_suppression():
    src = (
        "import time\n"
        "def f(q=[]):\n"
        "    return q or time.time()  "
        "# reprolint: disable=DET001 -- demo of multi-rule suppression\n"
    )
    report = lint_source(src, module="repro.core.f")
    assert rules_of(report) == ["API001"]  # the mutable default, line 2


def test_malformed_rule_id_is_sup001():
    src = "x = 1  # reprolint: disable=det-one -- lowercase id\n"
    report = lint_source(src, module="repro.core.f")
    assert "SUP001" in rules_of(report)


def test_marker_inside_string_is_ignored():
    src = 's = "# reprolint: disable=DET001 -- not a comment"\n'
    assert parse_suppressions(src) == []
    assert lint_source(src, module="repro.core.f").findings == []


def test_parse_extracts_rules_and_justification():
    src = "x = 1  # reprolint: disable=DET001,TRC001 -- two rules, one why\n"
    (sup,) = parse_suppressions(src)
    assert sup.rules == ["DET001", "TRC001"]
    assert sup.justification == "two rules, one why"
    assert sup.target_line == 1


# -- flow-rule suppressions and SUP002 staleness -----------------------------

def test_flow_suppression_not_stale_in_single_file_mode():
    """Without the project-wide flow pass, a DET007 suppression silences
    nothing — but that is not evidence of staleness (the rule never
    looked), so SUP002 must stay quiet."""
    src = "x = 1  # reprolint: disable=DET007 -- cross-module; verified by flow pass\n"
    report = lint_source(src, module="repro.core.f")
    assert report.findings == []


def test_flow_suppression_is_stale_when_flow_pass_runs(tmp_path):
    """When lint_paths runs the flow pass, an unused flow-rule
    suppression is flagged like any other."""
    from repro.analysis import lint_paths

    target = tmp_path / "clean.py"
    target.write_text(
        "x = 1  # reprolint: disable=DET007 -- nothing here reads the clock\n",
        encoding="utf-8",
    )
    report = lint_paths([str(target)])
    assert [f.rule for f in report.findings] == ["SUP002"]
