"""Per-package severity scoping."""

from repro.analysis import (
    DEFAULT_CONFIG,
    LintConfig,
    RulePolicy,
    SUBSTRATE_PACKAGES,
    Severity,
    lint_source,
)

WALLCLOCK = "import time\nx = time.time()\n"
THREADS = "import threading\n"
EMIT_BAD = "def f(tracer):\n    tracer.emit('bogus.kind')\n"


def severities(report):
    return [(f.rule, f.severity) for f in report.findings]


def test_det001_error_in_substrate():
    report = lint_source(WALLCLOCK, module="repro.simkernel.kernel")
    assert severities(report) == [("DET001", Severity.ERROR)]
    assert not report.ok()


def test_det001_error_on_host_side_too():
    report = lint_source(WALLCLOCK, module="repro.metrics.recorder")
    assert severities(report) == [("DET001", Severity.ERROR)]


def test_det001_warning_outside_the_package():
    report = lint_source(WALLCLOCK, module=None)
    assert severities(report) == [("DET001", Severity.WARNING)]
    assert report.ok()
    assert not report.ok(strict=True)


def test_det004_off_outside_substrate():
    assert lint_source(THREADS, module="repro.cli.main").findings == []
    assert lint_source(THREADS, module=None).findings == []
    report = lint_source(THREADS, module="repro.netsvc.network")
    assert severities(report) == [("DET004", Severity.ERROR)]


def test_trc001_off_outside_repro_package():
    """Tracer unit tests emit synthetic kinds; only repro.* is policed."""
    assert lint_source(EMIT_BAD, module=None).findings == []
    report = lint_source(EMIT_BAD, module="repro.core.communicator")
    assert [f.rule for f in report.findings] == ["TRC001"]


def test_longest_prefix_wins():
    config = LintConfig(policies={
        "DET001": RulePolicy(
            default=Severity.OFF,
            overrides={
                "repro": Severity.WARNING,
                "repro.core": Severity.ERROR,
            },
        ),
    })
    report = lint_source(WALLCLOCK, module="repro.core.wire", config=config)
    assert severities(report) == [("DET001", Severity.ERROR)]
    report = lint_source(WALLCLOCK, module="repro.cli.main", config=config)
    assert severities(report) == [("DET001", Severity.WARNING)]
    assert lint_source(WALLCLOCK, module=None, config=config).findings == []


def test_prefix_matches_whole_components_only():
    config = LintConfig(policies={
        "DET001": RulePolicy(
            default=Severity.OFF,
            overrides={"repro.core": Severity.ERROR},
        ),
    })
    # "repro.corelib" must not match the "repro.core" prefix.
    assert lint_source(
        WALLCLOCK, module="repro.corelib.x", config=config
    ).findings == []


def test_substrate_list_is_sound():
    """Every substrate package must actually exist in the tree."""
    import importlib

    for pkg in SUBSTRATE_PACKAGES:
        assert importlib.import_module(pkg) is not None


def test_off_rules_never_run():
    config = LintConfig(policies={
        "DET001": RulePolicy(default=Severity.OFF),
    })
    assert lint_source(
        WALLCLOCK, module="repro.simkernel.kernel", config=config
    ).findings == []


def test_default_config_covers_every_rule():
    from repro.analysis import all_rules

    for rule in all_rules():
        assert rule.id in DEFAULT_CONFIG.policies, rule.id
