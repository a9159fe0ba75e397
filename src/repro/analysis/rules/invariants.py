"""Invariant-anchoring rule: every solver must hit the Eq. 2 check.

Eq. 2 of the paper is the feasibility contract every allocation must
satisfy (``0 <= x_i <= a_i``, ``sum x_i <= B``, and work-conserving
equality when requested).  :func:`repro.core.bandwidth.assert_conservation`
is the single runtime checkpoint for it; this rule makes the anchoring
*structural*: any function in ``repro.core`` whose name says it produces
an allocation (``*_allocate``, ``*_allocation``, ``*knapsack*``,
``*qos_plan*``) must be able to reach a reference to the anchor through
the project call graph.  A new solver that skips the check -- or a
refactor that disconnects one -- fails lint before it can ship
unchecked allocations.

The reachability walk is generous (see :mod:`repro.analysis.callgraph`):
dict dispatch and helper indirection count.  What cannot pass is a
solver with no path to the anchor at all.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.callgraph import build_module_graph, reaches
from repro.analysis.context import ProjectContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, register

__all__ = ["ConservationAnchorRule"]

DEFAULT_SOLVER_PATTERN = r"(allocate$|allocation$|knapsack|qos_plan)"
DEFAULT_ANCHOR = "assert_conservation"


def _is_declaration_only(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Abstract methods and protocol stubs declare, they do not solve."""
    for decorator in node.decorator_list:
        name = decorator
        if isinstance(name, ast.Attribute):
            name = ast.Name(id=name.attr)
        if isinstance(name, ast.Name) and name.id in (
            "abstractmethod",
            "overload",
        ):
            return True
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]  # drop the docstring
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in body
    )


@register
class ConservationAnchorRule(Rule):
    id = "inv-conservation"
    description = (
        "solver functions in repro.core must route results through the "
        "Eq. 2 conservation check (call-graph verified)"
    )
    default_paths = ("repro/core",)

    def check_project(self, project: ProjectContext) -> Iterable[Diagnostic]:
        pattern = re.compile(
            str(self.options.get("solver-pattern", DEFAULT_SOLVER_PATTERN))
        )
        anchor = str(self.options.get("anchor", DEFAULT_ANCHOR))
        scope = getattr(self, "paths", None) or self.default_paths

        graph = build_module_graph(project.files)
        scoped_files = {
            f.module: f
            for f in project.files
            if f.module is not None
            and f.subpath is not None
            and any(
                f.subpath == p or f.subpath.startswith(p.rstrip("/") + "/")
                for p in scope
            )
        }
        for module, ctx in sorted(scoped_files.items()):
            for info in graph.functions(module):
                if info.is_binding or info.is_class:
                    continue
                if info.name.startswith("_") or info.name == anchor:
                    continue
                if not pattern.search(info.name):
                    continue
                if _is_declaration_only(info.node):
                    continue
                if reaches(graph, info, anchor):
                    continue
                yield self.diag(
                    ctx,
                    info.node,
                    f"solver {info.qualname!r} has no call-graph path to "
                    f"{anchor}(); every allocation must pass the Eq. 2 "
                    "conservation check before it escapes repro.core",
                )
