"""Diff fresh ``BENCH_*.json`` timings against the committed reference.

The bench harness (``benchmarks/conftest.py``) drops one machine-local
``benchmarks/reports/BENCH_<name>.json`` per benchmark.  This script
compares those fresh numbers with ``benchmarks/reference_baselines.json``
(committed) and exits non-zero when any bench regressed by more than the
tolerance (default 25%).

Because absolute wall time varies across machines, the comparison is
*normalised* by default: every bench's fresh/reference ratio is divided
by the median ratio over all matched benches, so a uniformly faster or
slower host cancels out and only benches that slowed down **relative to
the rest of the suite** fail the gate.  Pass ``--raw`` on a machine that
produced the reference itself to compare absolute times instead.

Usage::

    PYTHONPATH=src:. python -m pytest -q benchmarks/bench_kernel_micro.py \
        benchmarks/bench_substrate_micro.py       # refresh BENCH_*.json
    python benchmarks/compare_baselines.py        # gate (CI perf-smoke)
    python benchmarks/compare_baselines.py --update   # re-pin the re-run rows
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Tuple

REPORTS_DIR = pathlib.Path(__file__).parent / "reports"
REFERENCE_PATH = pathlib.Path(__file__).parent / "reference_baselines.json"

#: Fail when a bench is more than this factor slower (1.25 == +25%).
DEFAULT_TOLERANCE = 1.25


def load_fresh(reports_dir: pathlib.Path) -> Dict[str, float]:
    """name -> median seconds, from every ``BENCH_*.json`` in *reports_dir*."""
    fresh = {}
    for path in sorted(reports_dir.glob("BENCH_*.json")):
        record = json.loads(path.read_text())
        name = path.stem[len("BENCH_"):]
        fresh[name] = float(record["seconds"])
    return fresh


def load_reference(reference_path: pathlib.Path) -> Dict[str, float]:
    record = json.loads(reference_path.read_text())
    return {name: float(entry["seconds"])
            for name, entry in record["benches"].items()}


def write_reference(reference_path: pathlib.Path,
                    fresh: Dict[str, float]) -> None:
    """Pin *fresh* into the reference; a pinned bench not re-run keeps
    its time."""
    benches = load_reference(reference_path) if reference_path.exists() else {}
    benches.update(fresh)
    record = {
        "comment": (
            "Reference wall-time baselines for compare_baselines.py; "
            "regenerate with --update after an intentional perf change."
        ),
        "benches": {
            name: {"seconds": seconds}
            for name, seconds in sorted(benches.items())
        },
    }
    reference_path.write_text(json.dumps(record, indent=2) + "\n")


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def compare(
    fresh: Dict[str, float],
    reference: Dict[str, float],
    tolerance: float,
    normalise: bool,
) -> Tuple[List[str], List[str]]:
    """Return (report lines, failure lines) for the matched benches."""
    matched = sorted(set(fresh) & set(reference))
    if not matched:
        return [], ["no benches matched between fresh reports and reference "
                    "(run the bench suites first)"]
    ratios = {name: fresh[name] / reference[name] for name in matched}
    scale = _median(list(ratios.values())) if normalise else 1.0
    if scale <= 0:
        scale = 1.0
    lines = [
        f"machine speed factor (median fresh/reference): {scale:.2f}"
        if normalise else "raw comparison (no machine normalisation)"
    ]
    failures = []
    for name in matched:
        relative = ratios[name] / scale
        verdict = "ok"
        if relative > tolerance:
            verdict = "REGRESSED"
            failures.append(
                f"{name}: {relative:.2f}x the reference "
                f"(fresh {fresh[name] * 1e3:.1f}ms, "
                f"reference {reference[name] * 1e3:.1f}ms, "
                f"tolerance {tolerance:.2f}x)"
            )
        lines.append(
            f"  {name:<44s} {fresh[name] * 1e3:9.1f}ms "
            f"vs {reference[name] * 1e3:9.1f}ms  "
            f"rel {relative:5.2f}x  {verdict}"
        )
    unmatched = sorted(set(reference) - set(fresh))
    if unmatched:
        lines.append(
            "  (not re-run, skipped: " + ", ".join(unmatched) + ")"
        )
    return lines, failures


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reports-dir", type=pathlib.Path, default=REPORTS_DIR,
        help="directory holding the fresh BENCH_*.json files",
    )
    parser.add_argument(
        "--reference", type=pathlib.Path, default=REFERENCE_PATH,
        help="committed reference baseline file",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="failure threshold as a slowdown factor (default 1.25 = +25%%)",
    )
    parser.add_argument(
        "--raw", action="store_true",
        help="compare absolute seconds (same-machine runs only)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="pin the fresh reports into the reference and exit "
             "(benches not re-run keep their pinned time)",
    )
    args = parser.parse_args(argv)

    fresh = load_fresh(args.reports_dir)
    if not fresh:
        print(f"no BENCH_*.json files under {args.reports_dir}; "
              "run the bench suites first", file=sys.stderr)
        return 2

    if args.update:
        write_reference(args.reference, fresh)
        print(f"pinned {len(fresh)} benches into {args.reference}")
        return 0

    if not args.reference.exists():
        print(f"reference file {args.reference} missing "
              "(generate with --update)", file=sys.stderr)
        return 2
    reference = load_reference(args.reference)
    lines, failures = compare(
        fresh, reference, args.tolerance, normalise=not args.raw
    )
    for line in lines:
        print(line)
    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(set(fresh) & set(reference))} matched benches "
          f"within {args.tolerance:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
