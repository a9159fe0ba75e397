"""The reprolint engine: walk, parse, dispatch, filter, sort.

Two-phase execution:

1. every ``.py`` file under the requested paths is parsed once into a
   :class:`~repro.analysis.context.FileContext`; file-scoped rules run
   against each context they are scoped to;
2. all contexts are bundled into a
   :class:`~repro.analysis.context.ProjectContext` and the
   project-scoped rules (call-graph walks) run once over the bundle.

Severity overrides, path scoping and ``enabled`` come from
``[tool.reprolint]``; inline suppression comments are honoured last so
a suppressed diagnostic never reaches a reporter.  Files that fail to
parse produce a single ``parse-error`` diagnostic instead of aborting
the run.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Iterable, Sequence

from repro.analysis.config import LintConfig
from repro.analysis.context import FileContext, ProjectContext
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.registry import Rule, all_rules
from repro.analysis.suppressions import scan_suppressions

__all__ = ["AnalysisResult", "iter_python_files", "analyze_paths"]

#: pseudo-rule id attached to files that do not parse
PARSE_ERROR_RULE = "parse-error"


@dataclasses.dataclass
class AnalysisResult:
    """Outcome of one engine run."""

    diagnostics: list[Diagnostic]
    files_analyzed: int
    #: count of findings removed by inline suppressions
    suppressed: int

    @property
    def errors(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.WARNING)


def iter_python_files(
    paths: Sequence[pathlib.Path], excluded_dirs: frozenset[str]
) -> list[pathlib.Path]:
    """All ``.py`` files under ``paths``, pruning excluded directories."""
    out: list[pathlib.Path] = []
    seen: set[pathlib.Path] = set()

    def add(path: pathlib.Path) -> None:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            out.append(path)

    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                add(path)
            continue
        if not path.is_dir():
            continue
        for sub in sorted(path.rglob("*.py")):
            if any(part in excluded_dirs for part in sub.relative_to(path).parts):
                continue
            add(sub)
    return out


def _in_scope(ctx: FileContext, paths: tuple[str, ...]) -> bool:
    if not paths:
        return True
    if ctx.subpath is None:
        return False
    return any(
        ctx.subpath == p or ctx.subpath.startswith(p.rstrip("/") + "/")
        for p in paths
    )


def _instantiate_rules(config: LintConfig) -> list[Rule]:
    rules: list[Rule] = []
    for rule_id, rule_cls in sorted(all_rules().items()):
        rule_config = config.rule(rule_id)
        if not rule_config.enabled:
            continue
        rule = rule_cls(options=rule_config.options)
        if rule_config.severity is not None:
            rule.severity = rule_config.severity
        # effective scope, visible to project-phase rules too
        rule.paths = (  # type: ignore[attr-defined]
            rule_config.paths if rule_config.paths is not None else rule_cls.default_paths
        )
        rules.append(rule)
    return rules


def analyze_paths(
    paths: Sequence[pathlib.Path],
    config: LintConfig,
    *,
    only_rules: Iterable[str] | None = None,
) -> AnalysisResult:
    """Run every enabled rule over ``paths`` and return filtered findings."""
    selected = set(only_rules) if only_rules is not None else None
    rules = [
        r for r in _instantiate_rules(config) if selected is None or r.id in selected
    ]

    files: list[FileContext] = []
    raw: list[Diagnostic] = []
    n_files = 0
    for path in iter_python_files(paths, config.excluded_dirs()):
        n_files += 1
        display = str(path)
        try:
            ctx = FileContext.parse(path, display_path=display)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            line = getattr(exc, "lineno", None) or 1
            raw.append(
                Diagnostic(
                    rule=PARSE_ERROR_RULE,
                    severity=Severity.ERROR,
                    path=display,
                    line=int(line),
                    col=0,
                    message=f"cannot analyze file: {exc}",
                )
            )
            continue
        files.append(ctx)
        for rule in rules:
            scope: tuple[str, ...] = getattr(rule, "paths", ())
            if _in_scope(ctx, scope):
                raw.extend(rule.check_file(ctx))

    project = ProjectContext(files=files, entry_points=config.entry_points)
    for rule in rules:
        raw.extend(rule.check_project(project))

    # inline suppressions, applied via each file's own source
    suppressions = {ctx.display_path: scan_suppressions(ctx.source) for ctx in files}
    kept: list[Diagnostic] = []
    suppressed = 0
    for diag in raw:
        supp = suppressions.get(diag.path)
        if supp is not None and supp.is_suppressed(diag.rule, diag.line):
            suppressed += 1
            continue
        kept.append(diag)

    kept.sort(key=Diagnostic.sort_key)
    return AnalysisResult(
        diagnostics=kept, files_analyzed=n_files, suppressed=suppressed
    )
