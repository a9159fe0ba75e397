"""Reachability: every module and definition must serve an entry point.

Code that no program runs is kept alive only by its own tests, so it
drifts from the code around it and still costs every reader.  This rule
walks from the roots -- the ``[project.scripts]`` target functions and
every module with an ``if __name__ == "__main__":`` guard -- at two
granularities, and reports what the walk never reaches.

*Modules.*  Edges are every import statement in a module,
function-local and ``TYPE_CHECKING`` imports included; importing
``a.b.c`` also runs the packages ``a`` and ``a.b``.  Imports from tests
and examples are not edges: those files are not package modules.

*Definitions.*  A module-level ``def`` or ``class`` in a reached module
is reached when code that runs refers to it.  Code that runs is the top
level of a reached module (minus its import statements and its
``__all__``), the body of a reached definition, and a script target.
References and their resolution are the call graph's
(:mod:`repro.analysis.callgraph`): names, attributes and identifier
strings, resolved to the same module, else to the import origin through
package re-exports, else to every definition of that name.  So a
package re-export or an ``__all__`` entry is not a use.  A decorated or
dunder definition is reached with its module (``@register`` runs at
import).  A reached class reaches its whole body; methods are never
reported.

A suppression for this rule (``disable-file`` for a module, ``disable``
on a ``def`` line) silences one finding; it does not make a root, so
what only the suppressed code uses is still reported.

The walk needs the whole package in one run (``repro-lint src``).  A
run that contains no root at all, such as a library tree or a single
file, reports nothing.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.callgraph import (
    FunctionInfo,
    build_module_graph,
    references,
    resolve,
)
from repro.analysis.context import FileContext, ProjectContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, register

__all__ = ["DeadCodeRule"]

_MAIN_GUARDS = frozenset({"__name__ == '__main__'", "'__main__' == __name__"})
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def _top_level(ctx: FileContext) -> FunctionInfo:
    """A module's own statements: not its imports, ``__all__`` or defs."""
    names: set[str] = set()
    for node in ctx.tree.body:
        if isinstance(node, _DEFS + (ast.Import, ast.ImportFrom)):
            continue
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        names |= references(node)
    assert ctx.module is not None
    return FunctionInfo(
        module=ctx.module,
        name="",
        qualname="",
        node=ctx.tree,
        references=frozenset(names),
        local_imports={},
    )


def _runs_on_import(node: ast.AST) -> bool:
    """Decorators run at import; dunders (``__getattr__``) run implicitly."""
    assert isinstance(node, _DEFS)
    return bool(node.decorator_list) or (
        node.name.startswith("__") and node.name.endswith("__")
    )


@register
class DeadCodeRule(Rule):
    id = "dead-code"
    description = (
        "every repro module, and every module-level function and class, "
        "must be reached from a [project.scripts] target or a "
        "__main__-guarded module"
    )

    def check_project(self, project: ProjectContext) -> Iterable[Diagnostic]:
        modules = project.by_module
        scripts = [target.partition(":")[::2] for target in project.entry_points]
        roots = [m for m, _ in scripts if m in modules]
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
        yield from self._dead_definitions(
            [ctx for m, ctx in sorted(modules.items()) if m in reached], scripts
        )

    def _dead_definitions(
        self, files: list[FileContext], scripts: list[tuple[str, ...]]
    ) -> Iterator[Diagnostic]:
        """Module-level defs and classes no running code refers to."""
        graph = build_module_graph(files)
        defs = {
            (info.module, info.qualname): info
            for ctx in files
            for info in graph.functions(ctx.module or "")
            if isinstance(info.node, _DEFS) and "." not in info.qualname
        }
        work = [_top_level(ctx) for ctx in files]
        work += [info for m, f in scripts for info in graph.defs.get(m, {}).get(f, ())]
        work += [info for info in defs.values() if _runs_on_import(info.node)]
        seen: set[tuple[str, str]] = set()
        while work:
            info = work.pop()
            if (info.module, info.qualname) in seen:
                continue
            seen.add((info.module, info.qualname))
            for name in info.references:
                work.extend(
                    target
                    for target in resolve(graph, info, name)
                    if (target.module, target.qualname) in defs
                )
        contexts = {ctx.module: ctx for ctx in files}
        for key, info in sorted(defs.items()):
            if key not in seen:
                kind = "class" if info.is_class else "function"
                yield self.diag(
                    contexts[info.module],
                    info.node,
                    f"{kind} {info.module}.{info.qualname} is not reached from "
                    "any entry point; delete it or call it from one",
                )
