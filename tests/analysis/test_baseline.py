"""The findings baseline (ratchet) and the flow-aware CLI flags."""

import json

import pytest

from repro.analysis import lint_paths
from repro.analysis.cli import main
from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.baseline import (
    BaselineEntry,
    finding_key,
    load_baseline,
    match_baseline,
    normalize_path,
    render_baseline,
)


def finding(rule="DET006", path="src/repro/x.py", message="boom", line=3):
    return Finding(
        rule=rule, severity=Severity.ERROR, path=path, line=line, col=0,
        message=message,
    )


# -- path normalization ------------------------------------------------------

@pytest.mark.parametrize("raw,expected", [
    ("src/repro/x.py", "src/repro/x.py"),
    ("/abs/checkout/src/repro/x.py", "src/repro/x.py"),
    ("./benchmarks/bench_lint.py", "benchmarks/bench_lint.py"),
    ("elsewhere/thing.py", "elsewhere/thing.py"),
])
def test_normalize_path(raw, expected):
    assert normalize_path(raw) == expected


def test_finding_key_uses_normalized_path():
    a = finding(path="/somewhere/src/repro/x.py", line=3)
    b = finding(path="src/repro/x.py", line=99)  # line is NOT part of the key
    assert finding_key(a) == finding_key(b)


# -- matching ----------------------------------------------------------------

def test_match_subtracts_budgeted_findings():
    entries = [BaselineEntry("DET006", "src/repro/x.py", "boom", count=2)]
    findings = [finding(), finding(line=9), finding(line=12)]
    new, stale = match_baseline(findings, entries)
    assert len(new) == 1  # two grandfathered, the third is new
    assert stale == []


def test_match_reports_stale_entries():
    entries = [
        BaselineEntry("DET006", "src/repro/x.py", "boom"),
        BaselineEntry("TRC002", "src/repro/y.py", "gone"),
    ]
    new, stale = match_baseline([finding()], entries)
    assert new == []
    assert [e.rule for e in stale] == ["TRC002"]


# -- serialization -----------------------------------------------------------

def test_render_then_load_round_trips():
    text = render_baseline([finding(), finding(line=8)], why="legacy")
    entries = load_baseline(text)
    assert len(entries) == 1
    assert entries[0].count == 2
    assert entries[0].why == "legacy"
    assert entries[0].key == ("DET006", "src/repro/x.py", "boom")


@pytest.mark.parametrize("payload", [
    "[]",
    '{"version": 2, "findings": []}',
    '{"version": 1, "findings": {}}',
    '{"version": 1, "findings": [{"rule": "X1", "path": "p", '
    '"message": "m", "count": 0}]}',
])
def test_load_rejects_bad_shapes(payload):
    with pytest.raises(ValueError):
        load_baseline(payload)


# -- runner integration ------------------------------------------------------

BAD_PKG = {
    "producer.py": (
        "from repro.simkernel.rng import RngStreams\n"
        "\n"
        "\n"
        "class FaultBox:\n"
        "    def __init__(self, rng: RngStreams) -> None:\n"
        "        self.rng = rng\n"
    ),
    "consumer.py": (
        "from badpkg.producer import FaultBox\n"
        "\n"
        "\n"
        "class Scheduler:\n"
        "    def __init__(self, box: FaultBox) -> None:\n"
        "        self.box = box\n"
        "\n"
        "    def jitter(self) -> float:\n"
        "        return self.box.rng.uniform(0.0, 1.0)\n"
    ),
}


@pytest.fixture()
def bad_pkg(tmp_path):
    pkg = tmp_path / "badpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    for name, source in BAD_PKG.items():
        (pkg / name).write_text(source, encoding="utf-8")
    return pkg


def test_runner_subtracts_baseline(bad_pkg):
    report = lint_paths([str(bad_pkg)])
    (hit,) = report.findings
    assert hit.rule == "DET006"
    entries = load_baseline(render_baseline(report.findings))
    covered = lint_paths([str(bad_pkg)], baseline=entries)
    assert covered.findings == []


def test_runner_flags_stale_baseline_entries(bad_pkg):
    entries = [BaselineEntry("TRC002", "nowhere.py", "long gone")]
    report = lint_paths(
        [str(bad_pkg)], baseline=entries, baseline_path="base.json"
    )
    rules = [f.rule for f in report.findings]
    assert rules == ["DET006", "BASE001"]
    stale = report.findings[-1]
    assert stale.severity is Severity.WARNING
    assert stale.path == "base.json"
    assert not report.ok(strict=True)


def test_no_flow_skips_flow_rules(bad_pkg):
    report = lint_paths([str(bad_pkg)], flow=False)
    assert report.findings == []
    assert report.project is None


# -- CLI ---------------------------------------------------------------------

def test_cli_baseline_and_write_baseline(bad_pkg, tmp_path, capsys):
    assert main([str(bad_pkg)]) == 1  # unbaselined DET006

    base = tmp_path / "base.json"
    assert main(["--write-baseline", str(base), str(bad_pkg)]) == 0
    capsys.readouterr()
    assert main(["--baseline", str(base), "--strict", str(bad_pkg)]) == 0
    capsys.readouterr()


def test_cli_rejects_corrupt_baseline(tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text('{"version": 9}', encoding="utf-8")
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n", encoding="utf-8")
    assert main(["--baseline", str(base), str(target)]) == 2
    assert "bad baseline" in capsys.readouterr().err


def test_cli_graph_out_is_deterministic(bad_pkg, tmp_path, capsys):
    g1 = tmp_path / "g1.json"
    g2 = tmp_path / "g2.json"
    dot = tmp_path / "g.dot"
    main(["--graph-out", str(g1), "--graph-dot", str(dot), str(bad_pkg)])
    main(["--graph-out", str(g2), str(bad_pkg)])
    capsys.readouterr()
    assert g1.read_bytes() == g2.read_bytes()
    payload = json.loads(g1.read_text(encoding="utf-8"))
    assert payload["version"] == 1
    assert dot.read_text(encoding="utf-8").startswith("digraph")


def test_cli_graph_out_requires_flow(bad_pkg, tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["--no-flow", "--graph-out", str(out), str(bad_pkg)]) == 2
    assert "flow" in capsys.readouterr().err


def test_cli_rules_lists_flow_and_baseline_rules(capsys):
    assert main(["--rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET006", "DET007", "TRC002", "BASE001"):
        assert rule_id in out
    assert "[flow]" in out
