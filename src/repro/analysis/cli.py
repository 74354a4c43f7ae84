"""``repro-lint`` — the command-line front end.

Usage::

    repro-lint src/repro                 # text report, exit 1 on errors
    repro-lint --format json src tests   # machine-readable report
    repro-lint --strict src/repro        # warnings also fail the run
    repro-lint --rules                   # print the rule catalogue

Also runnable without installation as ``python -m repro.analysis``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.registry import all_rules
from repro.analysis.runner import lint_paths
from repro.analysis.suppressions import SUPPRESSION_RULES


def _print_rules() -> None:
    print("reprolint rule catalogue (see docs/STATIC_ANALYSIS.md):")
    for rule in all_rules():
        flow = "  [flow]" if rule.is_flow else ""
        print(f"  {rule.id}  [{rule.default_severity.value}]{flow}  {rule.summary}")
    for rule_id, summary in sorted(SUPPRESSION_RULES.items()):
        print(f"  {rule_id}  [error]  {summary}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Determinism-aware static analysis for the repro codebase: "
            "guards the simulation's correctness contracts at the "
            "source level."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=[],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="treat warnings as failures too",
    )
    parser.add_argument(
        "--rules", action="store_true",
        help="list the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.rules:
        _print_rules()
        return 0

    report = lint_paths(args.paths or ["src/repro"])

    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.ok(strict=args.strict) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
