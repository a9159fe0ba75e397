"""Module reachability: every package module must serve an entry point.

Code that no program runs is kept alive only by its own tests, so it
drifts from the code around it and still costs every reader.  This rule
walks the import graph from the roots -- the ``[project.scripts]``
targets and every module with an ``if __name__ == "__main__":`` guard
-- and reports each ``repro`` module the walk never reaches.

Edges are every import statement in a module, function-local and
``TYPE_CHECKING`` imports included; importing ``a.b.c`` also runs the
packages ``a`` and ``a.b``.  Imports from tests and examples are not
edges: those files are not package modules.  A ``disable-file`` for
this rule silences one module's finding; it does not make the module a
root, so what only that module imports is still reported.

The walk needs the whole package in one run (``repro-lint src``).  A
run that contains no root at all, such as a library tree or a single
file, reports nothing.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.context import FileContext, ProjectContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, register

__all__ = ["DeadModuleRule"]

_MAIN_GUARDS = frozenset({"__name__ == '__main__'", "'__main__' == __name__"})


def _has_main_guard(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.If) and ast.unparse(node.test) in _MAIN_GUARDS
        for node in tree.body
    )


def _imported(ctx: FileContext) -> Iterator[str]:
    """Every dotted name the module's import statements may load."""
    assert ctx.module is not None
    is_package = ctx.path.name == "__init__.py"
    package = ctx.module if is_package else ctx.module.rpartition(".")[0]
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parent = ".".join(parts[: len(parts) - node.level + 1])
                base = f"{parent}.{base}" if base else parent
            yield base
            for alias in node.names:
                if alias.name != "*":
                    yield f"{base}.{alias.name}"


def _with_parents(name: str) -> Iterator[str]:
    """``a.b.c`` -> ``a``, ``a.b``, ``a.b.c``: importing runs each one."""
    parts = name.split(".")
    for i in range(1, len(parts) + 1):
        yield ".".join(parts[:i])


@register
class DeadModuleRule(Rule):
    id = "dead-code"
    description = (
        "every repro module must be imported, directly or not, by a "
        "[project.scripts] target or a __main__-guarded module"
    )

    def check_project(self, project: ProjectContext) -> Iterable[Diagnostic]:
        modules = project.by_module
        roots = [m for m in project.entry_points if m in modules]
        roots += [m for m, ctx in modules.items() if _has_main_guard(ctx.tree)]
        if not roots:
            return
        reached: set[str] = set()
        work = [p for root in roots for p in _with_parents(root)]
        while work:
            module = work.pop()
            if module in reached or module not in modules:
                continue
            reached.add(module)
            for name in _imported(modules[module]):
                work.extend(_with_parents(name))
        for module, ctx in sorted(modules.items()):
            if module not in reached:
                yield self.diag(
                    ctx,
                    ctx.tree,
                    f"module {module!r} is not reached from any entry point "
                    "([project.scripts] targets and __main__-guarded "
                    "modules); delete it or import it from one",
                )
