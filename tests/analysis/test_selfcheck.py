"""The acceptance gate: the shipped tree lints clean.

``repro-lint --strict src/repro benchmarks examples`` exiting 0 is part
of the merge contract (CI runs exactly that); this test is the same
check in pytest form so a violation fails the suite locally before CI
ever sees it.
"""

from pathlib import Path

from repro.analysis import lint_paths

REPO_ROOT = Path(__file__).parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_repo_source_lints_clean():
    report = lint_paths([str(SRC)])
    assert report.files_checked > 100  # the walk really found the tree
    assert report.findings == [], "\n" + "\n".join(
        f.render() for f in report.findings
    )
    assert report.ok(strict=True)


def test_benchmarks_and_examples_lint_clean():
    report = lint_paths([
        str(REPO_ROOT / "benchmarks"), str(REPO_ROOT / "examples"),
    ])
    assert report.files_checked > 0
    assert report.findings == [], "\n" + "\n".join(
        f.render() for f in report.findings
    )


def test_full_tree_lints_clean():
    """The exact CI invocation: src + benchmarks + examples, strict."""
    report = lint_paths(
        [str(SRC), str(REPO_ROOT / "benchmarks"), str(REPO_ROOT / "examples")],
    )
    assert report.findings == [], "\n" + "\n".join(
        f.render() for f in report.findings
    )
    assert report.ok(strict=True)
