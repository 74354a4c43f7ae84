"""Every example script must run to completion from a fresh interpreter.

Scripts run with ``-W error::DeprecationWarning`` so an example that
calls a deprecated spelling fails here rather than teaching it.  The
flag applies only inside the subprocess: the test process itself loads
third-party modules that raise their own DeprecationWarnings.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
SCRIPTS = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    assert "quickstart.py" in SCRIPTS
    assert len(SCRIPTS) >= 5


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning",
         str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()


def test_quickstart_narrates_a_switch():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert "switch 1 node(s) to windows" in result.stdout
    assert "rebooted into windows" in result.stdout


def test_policy_playground_rejects_unknown_args():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "policy_playground.py"),
         "black_friday"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert "unknown scenario" in result.stderr
