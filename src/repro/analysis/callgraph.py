"""Conservative cross-module reachability over function references.

Built for the ``inv-conservation`` rule: starting from a solver
function, can execution reach a named *anchor* function (the Eq. 2
conservation check)?  The graph is deliberately generous -- an edge is
added for every function name *referenced* in a body, not just direct
call expressions -- so dispatch-through-a-dict and
functions-stored-in-variables count as edges and the rule errs toward
accepting.  What it will not accept is a solver with no reference chain
to the anchor at all, which is exactly the regression it exists to
catch.

Resolution rules for a referenced name inside module ``M``:

* a function/class/method defined in ``M`` -> edge to that definition
  (when only methods share the name, the rules below apply too);
* a name ``M`` imported (``from X import f``) -> edge to ``X.f`` when
  ``X`` is part of the analyzed project;
* an imported name whose origin is a package re-export (``from
  repro.obs import configure``) -> followed to the defining module;
* an attribute reference ``anything.f`` -> edge to every analyzed
  module in scope that defines ``f`` (attribute receivers are not
  type-resolved; same-name fallback keeps methods like
  ``Scheme.allocate`` connected to their implementations).

String constants that are identifiers count as references too, so a
name looked up with ``getattr`` or kept in a dispatch table of strings
still connects.  Classes are nodes whose references cover their whole
body, methods included.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator

from repro.analysis.context import FileContext

__all__ = [
    "FunctionInfo",
    "ModuleGraph",
    "build_module_graph",
    "reaches",
    "references",
    "resolve",
]


@dataclasses.dataclass
class FunctionInfo:
    """One function/method/class definition -- or a module-level binding.

    Module-level assignments (``_KERNELS = {"direct": solve}``) join the
    graph as pseudo-nodes so dict-dispatch still connects solvers to
    their kernels; rules that only care about real functions skip nodes
    with :attr:`is_binding` set.
    """

    module: str
    #: simple name (methods drop their class qualifier)
    name: str
    #: ``Class.method`` for methods, else the simple name
    qualname: str
    node: ast.AST
    #: every Name id, Attribute attr and identifier string in the body
    references: frozenset[str]
    #: local imports inside the body: name -> fully qualified origin
    local_imports: dict[str, str]
    #: True for module-level assignments rather than function defs
    is_binding: bool = False
    #: True for a class node (its references cover the whole body)
    is_class: bool = False


def _iter_defs(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef]]:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def references(tree: ast.AST) -> frozenset[str]:
    """Names, attributes and identifier strings anywhere under ``tree``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return frozenset(names)


def _iter_bindings(tree: ast.Module) -> Iterator[tuple[str, ast.stmt, ast.AST]]:
    """Top-level ``NAME = <expr>`` assignments (incl. annotated ones)."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node, node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                yield node.target.id, node, node.value


def _local_imports(tree: ast.AST) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name != "*":
                    mapping[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = alias.name
    return mapping


@dataclasses.dataclass
class ModuleGraph:
    """Function definitions and import maps for a set of modules."""

    #: module -> simple function name -> definitions (overloads/methods)
    defs: dict[str, dict[str, list[FunctionInfo]]]
    #: module -> module-level import map (local name -> qualified origin)
    imports: dict[str, dict[str, str]]

    def functions(self, module: str) -> Iterator[FunctionInfo]:
        for infos in self.defs.get(module, {}).values():
            yield from infos

    def definers_of(self, name: str) -> Iterator[FunctionInfo]:
        """Every analyzed definition with the given simple name."""
        for by_name in self.defs.values():
            yield from by_name.get(name, ())


def build_module_graph(files: list[FileContext]) -> ModuleGraph:
    defs: dict[str, dict[str, list[FunctionInfo]]] = {}
    imports: dict[str, dict[str, str]] = {}
    for ctx in files:
        if ctx.module is None:
            continue
        by_name = defs.setdefault(ctx.module, {})
        imports[ctx.module] = dict(ctx.import_map)
        for qualname, node in _iter_defs(ctx.tree):
            simple = qualname.rsplit(".", 1)[-1]
            info = FunctionInfo(
                module=ctx.module,
                name=simple,
                qualname=qualname,
                node=node,
                references=references(node),
                local_imports=_local_imports(node),
                is_class=isinstance(node, ast.ClassDef),
            )
            by_name.setdefault(simple, []).append(info)
        for name, stmt, value in _iter_bindings(ctx.tree):
            if name in by_name:
                continue  # a def wins over a same-named rebinding
            by_name.setdefault(name, []).append(
                FunctionInfo(
                    module=ctx.module,
                    name=name,
                    qualname=name,
                    node=stmt,
                    references=references(value),
                    local_imports={},
                    is_binding=True,
                )
            )
    return ModuleGraph(defs=defs, imports=imports)


def resolve(
    graph: ModuleGraph, info: FunctionInfo, name: str
) -> Iterator[FunctionInfo]:
    """Definitions a referenced ``name`` may denote, conservatively."""
    local = graph.defs.get(info.module, {}).get(name, [])
    yield from local
    if any("." not in d.qualname for d in local):
        return
    # only methods share the name: a bare name still means the import
    origin = info.local_imports.get(name) or graph.imports.get(info.module, {}).get(
        name
    )
    seen: set[str] = set()
    while origin is not None and origin not in seen:
        seen.add(origin)
        module, _, func = origin.rpartition(".")
        targets = graph.defs.get(module, {}).get(func)
        if targets:
            yield from targets
            return
        origin = graph.imports.get(module, {}).get(func)  # a package re-export
    if not local:
        # attribute / dynamic fallback: any same-named analyzed definition
        yield from graph.definers_of(name)


def reaches(
    graph: ModuleGraph,
    start: FunctionInfo,
    anchor: str,
    *,
    max_nodes: int = 10_000,
) -> bool:
    """True when ``start`` can reach a reference to ``anchor``.

    The anchor matches either by referenced name or by the qualified
    origin of an import (``from repro.core.bandwidth import
    assert_conservation as _check`` still anchors).
    """
    seen: set[tuple[str, str]] = set()
    work: list[FunctionInfo] = [start]
    while work and len(seen) < max_nodes:
        info = work.pop()
        key = (info.module, info.qualname)
        if key in seen:
            continue
        seen.add(key)
        for name in info.references:
            if name == anchor:
                return True
            origin = info.local_imports.get(name) or graph.imports.get(
                info.module, {}
            ).get(name)
            if origin is not None and origin.rpartition(".")[2] == anchor:
                return True
            for target in resolve(graph, info, name):
                work.append(target)
    return False
