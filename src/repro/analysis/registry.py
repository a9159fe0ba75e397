"""Rule base class and registry for reprolint.

A rule subclasses :class:`Rule`, sets its metadata, implements
:meth:`Rule.check_file` (most rules) or :meth:`Rule.check_project`
(cross-module rules like the conservation anchor walk), and registers
itself with the :func:`register` decorator.  ``repro.analysis.rules``
imports every rule module at package import, so the registry is fully
populated as soon as the engine loads.
"""

from __future__ import annotations

from typing import Any, Iterable, TypeVar

from repro.analysis.context import FileContext, ProjectContext
from repro.analysis.diagnostics import Diagnostic, Severity

__all__ = ["Rule", "register", "all_rules"]


class Rule:
    """One reprolint check.

    Class attributes declare the rule's identity and defaults:

    ``id``
        Stable kebab-case identifier used in reports, suppressions and
        configuration (``det-wallclock``).
    ``severity``
        Default severity; overridable per-project in ``pyproject.toml``.
    ``default_paths``
        Package-path prefixes (``repro/sim``) the rule applies to.  The
        empty tuple means *every* analyzed file, including files outside
        the ``repro`` package.  Non-empty scopes only match files whose
        :attr:`~repro.analysis.context.FileContext.subpath` is set.
    ``description``
        One-line summary shown by ``repro-lint --list-rules``.
    """

    id: str = ""
    severity: Severity = Severity.ERROR
    default_paths: tuple[str, ...] = ()
    description: str = ""

    #: rule-specific options, merged from config by the engine
    options: dict[str, Any]

    def __init__(self, options: dict[str, Any] | None = None) -> None:
        self.options = dict(options or {})

    def check_file(self, ctx: FileContext) -> Iterable[Diagnostic]:
        return ()

    def check_project(self, project: ProjectContext) -> Iterable[Diagnostic]:
        return ()

    # helper so rule bodies read naturally
    def diag(self, ctx: FileContext, node: Any, message: str) -> Diagnostic:
        return ctx.diagnostic(self.id, self.severity, node, message)


_REGISTRY: dict[str, type[Rule]] = {}

R = TypeVar("R", bound=type[Rule])


def register(rule_cls: R) -> R:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id!r}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules() -> dict[str, type[Rule]]:
    """The registry, populated by importing :mod:`repro.analysis.rules`."""
    import repro.analysis.rules  # noqa: F401  (import-for-side-effect)

    return dict(_REGISTRY)

