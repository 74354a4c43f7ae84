"""Every lint rule: one positive (bad) and one negative (good) fixture.

Fixtures live under ``tests/analysis/fixtures`` as real source files so
they double as readable examples of each violation; they are linted as
if they sat inside the simulated substrate (``repro.core``), which is
where every rule is active.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> exact set of rules its *bad* fixture must trigger.  Exact,
#: not superset: a bad fixture tripping an unrelated rule would mean the
#: fixtures (and docs examples) teach the wrong lesson.
EXPECTED = {
    "DET001": {"DET001"},
    "DET002": {"DET002"},
    "DET003": {"DET003"},
    "DET004": {"DET004"},
    "DET005": {"DET005"},
    "TRC001": {"TRC001"},
    "API001": {"API001"},
    "API002": {"API002"},
    "SUP001": {"SUP001"},
    "SUP002": {"SUP002"},
}

#: Rules that are scoped to specific modules (not package-wide): their
#: fixtures must lint *as* a module where the rule is active.
MODULE_FOR = {
    "api002": "repro.core.middleware",
}


def lint_fixture(name: str):
    path = FIXTURES / f"{name}.py"
    source = path.read_text(encoding="utf-8")
    stem = name.rsplit("_", 1)[0]
    module = MODULE_FOR.get(stem, f"repro.core.{name}")
    return lint_source(source, path=str(path), module=module)


@pytest.mark.parametrize("rule_id", sorted(EXPECTED))
def test_bad_fixture_triggers_rule(rule_id):
    report = lint_fixture(f"{rule_id.lower()}_bad")
    fired = {f.rule for f in report.findings}
    assert fired == EXPECTED[rule_id], [f.render() for f in report.findings]
    assert not report.ok()


@pytest.mark.parametrize("rule_id", sorted(EXPECTED))
def test_good_fixture_is_clean(rule_id):
    report = lint_fixture(f"{rule_id.lower()}_good")
    assert report.findings == [], [f.render() for f in report.findings]
    assert report.ok()


def test_every_registered_rule_has_fixture_pair():
    """Adding a rule without fixtures fails here, not in review.

    Per-file rules get single-file fixtures; graph-aware flow rules get
    fixture *packages* (directories), since their findings span files.
    """
    from repro.analysis import all_rules, flow_rule_ids
    from repro.analysis.suppressions import SUPPRESSION_RULES

    covered = set(EXPECTED) | set(FLOW_EXPECTED)
    flow_ids = flow_rule_ids()
    for rule_id in [r.id for r in all_rules()] + list(SUPPRESSION_RULES):
        assert rule_id in covered, f"no fixture pair for {rule_id}"
        stem = rule_id.lower()
        if rule_id in flow_ids:
            assert (FIXTURES / f"{stem}_bad").is_dir()
            assert (FIXTURES / f"{stem}_good").is_dir()
        else:
            assert (FIXTURES / f"{stem}_bad.py").is_file()
            assert (FIXTURES / f"{stem}_good.py").is_file()


# -- flow (graph-aware) rules ------------------------------------------------

FLOW_EXPECTED = {
    "DET007": {"DET007"},
}


def lint_flow_fixture(rule_id: str, kind: str):
    return lint_paths([str(FIXTURES / f"{rule_id.lower()}_{kind}")])


@pytest.mark.parametrize("rule_id", sorted(FLOW_EXPECTED))
def test_bad_flow_fixture_triggers_rule(rule_id):
    report = lint_flow_fixture(rule_id, "bad")
    fired = {f.rule for f in report.findings}
    assert fired == FLOW_EXPECTED[rule_id], [
        f.render() for f in report.findings
    ]
    assert not report.ok()


@pytest.mark.parametrize("rule_id", sorted(FLOW_EXPECTED))
def test_good_flow_fixture_is_clean(rule_id):
    report = lint_flow_fixture(rule_id, "good")
    assert report.findings == [], [f.render() for f in report.findings]
    assert report.ok()


def test_det001_counts_each_call_site():
    report = lint_fixture("det001_bad")
    assert len(report.findings) == 4  # time(), now(), pc(), sleep()


def test_det003_respects_rebinding():
    """A tainted name rebound to a sorted list is no longer a set."""
    src = "xs = {1, 2}\nxs = sorted(xs)\nout = list(xs)\n"
    assert lint_source(src, module="repro.core.f").findings == []


def test_trc001_skips_dynamic_kinds():
    src = "def f(tracer, kind):\n    tracer.emit(kind, node='n')\n"
    assert lint_source(src, module="repro.core.f").findings == []


def test_det001_aliased_import_is_still_caught():
    src = "import time as t\nx = t.time()\n"
    report = lint_source(src, module="repro.core.f")
    assert [f.rule for f in report.findings] == ["DET001"]
