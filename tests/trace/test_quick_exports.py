"""Every quick-run trace export and the printed results, pinned by digest.

``repro-experiments run all --quick --trace-out DIR`` (seed 0) writes one
JSONL file per simulation.  Their sha256 digests are checked in under
``tests/fixtures/quick_trace_digests.json``, so a change that moves any
byte of any export -- not only the three golden scenarios -- fails here
and names the files it moved.  The sha256 of what the run prints (with
``DIR`` masked in its "wrote N trace file(s)" lines) is checked in beside
them, under ``tests/fixtures/quick_stdout.sha256``, so a printed number
(E2, E3, E15, ...) that moves fails here too.

To regenerate after an intentional trace or output change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/trace/test_quick_exports.py
"""

import hashlib
import json
import os
import re

import pytest

from repro.cli.main import main

from tests.fixtures import FIXTURES_DIR

REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

DIGESTS = FIXTURES_DIR / "quick_trace_digests.json"
STDOUT_DIGEST = FIXTURES_DIR / "quick_stdout.sha256"

#: the lines that name the ``--trace-out`` directory
_WROTE = re.compile(r"^(wrote \d+ trace file\(s\) to ).*$", re.MULTILINE)


def _digests(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def test_quick_run_exports_match_pinned_digests(tmp_path, capsys):
    assert main(["run", "all", "--quick", "--trace-out", str(tmp_path)]) == 0
    printed = _WROTE.sub(r"\1DIR", capsys.readouterr().out)
    printed_digest = hashlib.sha256(printed.encode("utf-8")).hexdigest()
    fresh = _digests(tmp_path)

    if REGEN:
        DIGESTS.write_text(
            json.dumps(fresh, indent=1, sort_keys=True) + "\n", encoding="ascii"
        )
        STDOUT_DIGEST.write_text(printed_digest + "\n", encoding="ascii")
        pytest.skip(
            f"regenerated {DIGESTS.name} ({len(fresh)} files) "
            f"and {STDOUT_DIGEST.name}"
        )

    assert DIGESTS.exists(), (
        f"{DIGESTS.name} missing — run with REPRO_REGEN_GOLDEN=1 to create it"
    )
    pinned = json.loads(DIGESTS.read_text(encoding="ascii"))
    assert sorted(fresh) == sorted(pinned), "the set of exported traces changed"
    moved = [name for name in pinned if fresh[name] != pinned[name]]
    assert moved == [], (
        f"{len(moved)} export(s) changed (REPRO_REGEN_GOLDEN=1 to accept): "
        + ", ".join(moved)
    )
    assert STDOUT_DIGEST.exists(), (
        f"{STDOUT_DIGEST.name} missing — run with REPRO_REGEN_GOLDEN=1 to create it"
    )
    assert printed_digest == STDOUT_DIGEST.read_text(encoding="ascii").strip(), (
        "the printed output of `run all --quick` changed "
        "(REPRO_REGEN_GOLDEN=1 to accept)"
    )
