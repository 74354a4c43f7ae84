"""``benchmarks/compare_baselines.py --update`` re-pins only what was re-run."""

import json

from benchmarks.compare_baselines import load_reference, main


def test_update_keeps_the_rows_that_were_not_re_run(tmp_path):
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"benches": {
        "test_bench_rerun": {"seconds": 1.0},
        "test_bench_kept": {"seconds": 2.0},
    }}))
    reports = tmp_path / "reports"
    reports.mkdir()
    (reports / "BENCH_test_bench_rerun.json").write_text(
        json.dumps({"seconds": 1.5})
    )

    assert main(["--reports-dir", str(reports), "--reference", str(reference),
                 "--update"]) == 0

    assert load_reference(reference) == {
        "test_bench_rerun": 1.5,
        "test_bench_kept": 2.0,
    }
