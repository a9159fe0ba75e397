"""reprolint configuration, loaded from ``pyproject.toml``.

The ``[tool.reprolint]`` table controls the walker and the rules::

    [tool.reprolint]
    exclude = ["tests", "build"]          # directory names pruned anywhere

    [tool.reprolint.rules."det-wallclock"]
    enabled = true                        # default true
    severity = "error"                    # overrides the rule's default
    paths = ["repro/sim", "repro/core"]   # package-path scope override

    [tool.reprolint.rules."inv-conservation"]
    solver-pattern = '(allocate$|allocation$|knapsack|qos_plan)'
    anchor = "assert_conservation"

Unknown keys inside a rule table are kept verbatim in
:attr:`RuleConfig.options` so individual rules can define their own
knobs (like ``solver-pattern`` above) without touching this module.
The ``[project.scripts]`` targets are read too: they are the console
entry points the ``dead-code`` rule roots its walk at.

TOML parsing uses :mod:`tomllib` (Python >= 3.11) and falls back to the
``tomli`` backport on 3.10.  When neither is importable the loader
degrades to the built-in defaults rather than failing: the lint pass
must stay runnable in minimal environments.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Any

from repro.analysis.diagnostics import Severity

__all__ = ["RuleConfig", "LintConfig", "load_config", "find_pyproject"]

#: directory basenames never descended into, regardless of config
ALWAYS_EXCLUDE = ("__pycache__", ".git", ".hg", ".venv", "venv", "node_modules")


def _load_toml(path: pathlib.Path) -> dict[str, Any] | None:
    try:
        import tomllib  # Python >= 3.11
    except ImportError:  # pragma: no cover - exercised only on 3.10
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            return None
    try:
        with open(path, "rb") as fh:
            data = tomllib.load(fh)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


@dataclasses.dataclass(frozen=True)
class RuleConfig:
    """Per-rule settings; ``None`` fields mean "use the rule's default"."""

    enabled: bool = True
    severity: Severity | None = None
    paths: tuple[str, ...] | None = None
    #: rule-specific knobs, verbatim from the TOML table
    options: dict[str, Any] = dataclasses.field(default_factory=dict)

    @classmethod
    def from_table(cls, table: dict[str, Any]) -> "RuleConfig":
        known = {"enabled", "severity", "paths"}
        severity = table.get("severity")
        paths = table.get("paths")
        return cls(
            enabled=bool(table.get("enabled", True)),
            severity=Severity.parse(severity) if isinstance(severity, str) else None,
            paths=tuple(str(p) for p in paths) if isinstance(paths, list) else None,
            options={k: v for k, v in table.items() if k not in known},
        )


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Resolved project-wide reprolint configuration."""

    exclude: tuple[str, ...] = ("tests", "build", "dist")
    rules: dict[str, RuleConfig] = dataclasses.field(default_factory=dict)
    #: where the config came from (None -> built-in defaults)
    source: pathlib.Path | None = None
    #: ``[project.scripts]`` targets (``pkg.cli:main``)
    entry_points: tuple[str, ...] = ()

    def rule(self, rule_id: str) -> RuleConfig:
        return self.rules.get(rule_id, _DEFAULT_RULE_CONFIG)

    def excluded_dirs(self) -> frozenset[str]:
        return frozenset(self.exclude) | frozenset(ALWAYS_EXCLUDE)


_DEFAULT_RULE_CONFIG = RuleConfig()


def find_pyproject(start: pathlib.Path) -> pathlib.Path | None:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    node = start if start.is_dir() else start.parent
    for candidate in (node, *node.parents):
        path = candidate / "pyproject.toml"
        if path.is_file():
            return path
    return None


def load_config(pyproject: pathlib.Path | None) -> LintConfig:
    """Parse ``[tool.reprolint]`` from ``pyproject``; defaults if absent."""
    if pyproject is None:
        return LintConfig()
    data = _load_toml(pyproject)
    if data is None:
        return LintConfig(source=None)
    scripts = data.get("project", {}).get("scripts", {})
    entry_points = (
        tuple(sorted({str(t).strip() for t in scripts.values()}))
        if isinstance(scripts, dict)
        else ()
    )
    table = data.get("tool", {}).get("reprolint", {})
    if not isinstance(table, dict):
        return LintConfig(source=pyproject, entry_points=entry_points)
    exclude = table.get("exclude")
    rules_table = table.get("rules", {})
    rules: dict[str, RuleConfig] = {}
    if isinstance(rules_table, dict):
        for rule_id, rule_table in rules_table.items():
            if isinstance(rule_table, dict):
                rules[str(rule_id)] = RuleConfig.from_table(rule_table)
    return LintConfig(
        exclude=(
            tuple(str(e) for e in exclude)
            if isinstance(exclude, list)
            else LintConfig.exclude
        ),
        rules=rules,
        source=pyproject,
        entry_points=entry_points,
    )
