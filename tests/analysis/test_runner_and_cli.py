"""Runner mechanics (discovery, module mapping, output) and the CLI."""

import json

import pytest

from repro.analysis import lint_paths, module_name_for
from repro.analysis.cli import main
from repro.analysis.runner import lint_source


# -- module name mapping -----------------------------------------------------

@pytest.mark.parametrize("path,expected", [
    ("src/repro/core/wire.py", "repro.core.wire"),
    ("src/repro/core/__init__.py", "repro.core"),
    ("src/repro/__init__.py", "repro"),
    ("/abs/checkout/src/repro/trace/events.py", "repro.trace.events"),
    ("tests/core/test_wire.py", None),
    ("setup.py", None),
])
def test_module_name_for(path, expected):
    assert module_name_for(path) == expected


# -- discovery ---------------------------------------------------------------

def test_lint_paths_discovers_only_visible_python_files(tmp_path):
    bad = "import random\n"  # DET002 is an error everywhere
    (tmp_path / "b.py").write_text(bad)
    (tmp_path / "a.py").write_text(bad)
    (tmp_path / "notes.txt").write_text(bad)
    for skipped in ("__pycache__", ".hidden"):
        (tmp_path / skipped).mkdir()
        (tmp_path / skipped / "c.py").write_text(bad)
    report = lint_paths([str(tmp_path)])
    assert report.files_checked == 2
    assert [f.path.rsplit("/", 1)[-1] for f in report.findings] == ["a.py", "b.py"]


def test_lint_paths_merges_and_sorts(tmp_path):
    (tmp_path / "b.py").write_text("import time\nx = time.time()\n")
    (tmp_path / "a.py").write_text("def f(q=[]):\n    return q\n")
    report = lint_paths([str(tmp_path)])
    assert report.files_checked == 2
    assert [f.rule for f in report.findings] == ["API001", "DET001"]
    assert report.findings[0].path.endswith("a.py")


# -- output ------------------------------------------------------------------

def test_syntax_error_is_a_parse_finding():
    report = lint_source("def broken(:\n", path="x.py")
    assert [f.rule for f in report.findings] == ["PARSE"]
    assert not report.ok()


def test_unclosed_bracket_is_a_parse_finding_in_lint_paths(tmp_path):
    """The tokenizer stops at EOF inside brackets; the run must still
    report PARSE instead of crashing while reading suppressions."""
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n    pass\n")
    report = lint_paths([str(target)])
    assert [f.rule for f in report.findings] == ["PARSE"]


def test_text_report_shape():
    report = lint_source(
        "def f(q=[]):\n    return q\n", path="m.py", module="repro.core.m"
    )
    text = report.to_text()
    assert "m.py:1:" in text and "API001" in text
    assert text.endswith("1 error(s), 0 warning(s) in 1 file(s)")


def test_json_report_shape():
    report = lint_source(
        "def f(q=[]):\n    return q\n", path="m.py", module="repro.core.m"
    )
    payload = json.loads(report.to_json())
    assert payload["errors"] == 1
    assert payload["files_checked"] == 1
    (finding,) = payload["findings"]
    assert finding["rule"] == "API001"
    assert finding["severity"] == "error"
    assert finding["path"] == "m.py"


# -- CLI ---------------------------------------------------------------------

def test_cli_clean_file_exits_zero(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    assert main([str(target)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_bad_file_exits_one(tmp_path, capsys):
    target = tmp_path / "bad.py"
    target.write_text("import random\n")  # DET002 is an error everywhere
    assert main([str(target)]) == 1
    assert "DET002" in capsys.readouterr().out


def test_cli_strict_promotes_warnings(tmp_path, capsys):
    target = tmp_path / "warn.py"
    target.write_text("import time\nx = time.time()\n")  # DET001: warning here
    assert main([str(target)]) == 0
    assert main(["--strict", str(target)]) == 1
    capsys.readouterr()


def test_cli_json_output(tmp_path, capsys):
    target = tmp_path / "bad.py"
    target.write_text("import random\n")
    assert main(["--format", "json", str(target)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["errors"] == 1


def test_cli_rules_listing(capsys):
    assert main(["--rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET005", "TRC001", "API001", "SUP001", "SUP002"):
        assert rule_id in out


def test_cli_rules_lists_flow_rules(capsys):
    assert main(["--rules"]) == 0
    out = capsys.readouterr().out
    assert "DET007" in out
    assert "[flow]" in out


def test_cli_always_runs_the_flow_pass(tmp_path, capsys):
    """A wall-clock value that reaches object state in another module
    (the read itself suppressed) fails the CLI run; no single file
    shows it."""
    pkg = tmp_path / "badpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "clock.py").write_text(
        "import time\n"
        "\n"
        "\n"
        "def stamp() -> float:\n"
        "    return time.perf_counter()  "
        "# reprolint: disable=DET001 -- host-side timer\n"
    )
    (pkg / "meter.py").write_text(
        "from badpkg.clock import stamp\n"
        "\n"
        "\n"
        "class Meter:\n"
        "    def __init__(self) -> None:\n"
        "        self.started_at = 0.0\n"
        "\n"
        "    def start(self) -> None:\n"
        "        self.started_at = stamp()\n"
    )
    assert main([str(pkg)]) == 1
    assert "DET007" in capsys.readouterr().out
