"""The lint runner: file discovery, per-file analysis, report assembly.

The pytest-importable API is :func:`lint_paths` (walks files and
directories) and :func:`lint_source` (a single in-memory source string —
what the fixture tests use).  Both return a :class:`LintReport`.

:func:`lint_paths` runs in two phases.  Phase one is per-file: every
non-flow rule checks each file in isolation.  Phase two is
project-wide: the parsed files become one
:class:`~repro.analysis.flow.project.Project` and the graph-aware
:class:`~repro.analysis.registry.FlowRule` (DET007, the only one)
checks it as a whole.  Flow findings land on real file/line locations,
so inline suppressions apply to them unchanged.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.config import DEFAULT_CONFIG, LintConfig
from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.project import Project, SourceFile
from repro.analysis.registry import all_rules, flow_rules
from repro.analysis.suppressions import apply_suppressions, parse_suppressions


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def ok(self, strict: bool = False) -> bool:
        return not self.errors and not (strict and self.warnings)

    # -- rendering -----------------------------------------------------------

    def to_text(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s) "
            f"in {self.files_checked} file(s)"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "files_checked": self.files_checked,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "findings": [f.to_dict() for f in self.findings],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def module_name_for(path: str) -> Optional[str]:
    """Dotted module name for *path*, or ``None`` outside ``repro``.

    Works from the path alone (no imports): the part after the last
    ``src/`` — or from the ``repro/`` component itself — becomes the
    dotted name, with ``__init__`` mapping to its package.
    """
    norm = os.path.normpath(path).replace(os.sep, "/")
    parts = norm.split("/")
    if "repro" not in parts:
        return None
    start = len(parts) - 1 - parts[::-1].index("repro")
    mod_parts = parts[start:]
    if not mod_parts[-1].endswith(".py"):
        return None
    mod_parts[-1] = mod_parts[-1][:-3]
    if mod_parts[-1] == "__init__":
        mod_parts.pop()
    return ".".join(mod_parts)


def _fallback_module(path: str, root: str) -> str:
    """Dotted module name for a file outside ``repro`` (benchmarks,
    fixture packages): the scan root's own name anchors the prefix, so
    scanning ``benchmarks`` yields ``benchmarks.bench_x`` and scanning
    ``tests/analysis/fixtures/det007_bad`` yields ``det007_bad.meter``."""
    base = os.path.dirname(os.path.normpath(root))
    rel = os.path.relpath(os.path.normpath(path), base or ".")
    parts = rel.replace(os.sep, "/").split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(p for p in parts if p and p != "..")


def flow_rule_ids() -> frozenset:
    return frozenset(rule.id for rule in flow_rules())


def lint_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
    config: LintConfig = DEFAULT_CONFIG,
) -> LintReport:
    """Lint one source string as if it were the file at *path*.

    Single-file mode never runs the project-wide flow pass, so flow-rule
    suppressions are treated as unverified (exempt from SUP002).
    """
    report = LintReport(files_checked=1)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.findings.append(_parse_error(path, exc))
        return report

    raw = _check_file(path, source, tree, module, config)
    suppressions = parse_suppressions(source)
    report.findings = apply_suppressions(
        raw, suppressions, path, unverified=flow_rule_ids()
    )
    report.findings.sort(key=Finding.sort_key)
    return report


def _check_file(
    path: str,
    source: str,
    tree: ast.Module,
    module: Optional[str],
    config: LintConfig,
) -> List[Finding]:
    """Run every per-file (non-flow) rule over one parsed file."""
    from repro.analysis.registry import RuleContext

    ctx = RuleContext(path=path, source=source, tree=tree, module=module)
    raw: List[Finding] = []
    for rule in all_rules():
        if rule.is_flow:
            continue
        severity = config.severity_for(rule.id, rule.default_severity, module)
        if severity is Severity.OFF:
            continue
        for finding in rule.check(ctx):
            raw.append(finding.with_severity(severity))
    return raw


def _discover(paths: Iterable[str]) -> List[Tuple[str, str]]:
    """``(file, scan root)`` pairs, sorted by file path.

    Sorted so a run over a directory reports in a stable order
    regardless of filesystem enumeration order.
    """
    out: List[Tuple[str, str]] = []
    for root in paths:
        if os.path.isdir(root):
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d != "__pycache__" and not d.startswith(".")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.append((os.path.join(dirpath, name), root))
        else:
            out.append((root, root))
    return sorted(out)


def _parse_error(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule="PARSE", severity=Severity.ERROR, path=path,
        line=exc.lineno or 1, col=(exc.offset or 1) - 1,
        message=f"syntax error: {exc.msg}",
    )


def _read_files(
    paths: Iterable[str],
) -> Tuple[List[SourceFile], List[Tuple[str, str, Finding]]]:
    """Read and parse every ``.py`` file under *paths*.

    Returns the parsed files and, for each file that does not parse,
    ``(path, source, PARSE finding)``.
    """
    files: List[SourceFile] = []
    broken: List[Tuple[str, str, Finding]] = []
    for path, root in _discover(paths):
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            broken.append((path, source, _parse_error(path, exc)))
            continue
        files.append(_source_file(path, root, source, tree))
    return files, broken


def build_project(paths: Iterable[str]) -> Project:
    """Parse every file under *paths* into a flow-analysis project.

    Unparseable files are skipped (``lint_paths`` reports them).
    """
    return Project(_read_files(paths)[0])


def _source_file(path: str, root: str, source: str, tree: ast.Module) -> SourceFile:
    module = module_name_for(path)
    if module is None:
        module = _fallback_module(path, root)
    basename = os.path.basename(path)
    return SourceFile(
        path=path, module=module, source=source, tree=tree,
        is_package=basename == "__init__.py",
    )


def lint_paths(
    paths: Iterable[str],
    config: LintConfig = DEFAULT_CONFIG,
) -> LintReport:
    """Lint every ``.py`` file under *paths* into one merged report,
    per-file rules first, then the project-wide flow rules."""
    files, broken = _read_files(paths)
    by_path: Dict[str, List[Finding]] = {}
    sources: Dict[str, str] = {}
    for path, source, finding in broken:
        sources[path] = source
        by_path.setdefault(path, []).append(finding)
    for sf in files:
        sources[sf.path] = sf.source
        by_path.setdefault(sf.path, []).extend(_check_file(
            sf.path, sf.source, sf.tree, module_name_for(sf.path), config
        ))

    project = Project(files)
    for rule in flow_rules():
        for finding in rule.check_project(project):
            module = project.module_of_path(finding.path)
            severity = config.severity_for(
                rule.id, rule.default_severity, module
            )
            if severity is Severity.OFF:
                continue
            by_path.setdefault(finding.path, []).append(
                finding.with_severity(severity)
            )

    merged: List[Finding] = []
    for path in sorted(by_path):
        suppressions = parse_suppressions(sources[path])
        merged.extend(apply_suppressions(by_path[path], suppressions, path))

    return LintReport(
        findings=sorted(merged, key=Finding.sort_key),
        files_checked=len(files) + len(broken),
    )
