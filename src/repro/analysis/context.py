"""Per-file and per-project views handed to reprolint rules.

Rules never read files or parse source themselves: the engine parses
each file once and passes a :class:`FileContext` (source, AST, import
map, package-relative path) to every file-scoped rule, then bundles all
contexts into a :class:`ProjectContext` for the project-scoped rules
(call-graph walks need to see every module at once).
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from typing import Iterator

from repro.analysis.diagnostics import Diagnostic, Severity

__all__ = ["FileContext", "ProjectContext", "build_import_map", "package_subpath"]


def package_subpath(path: pathlib.Path) -> str | None:
    """Posix path from the ``repro`` package root, if the file is in it.

    ``src/repro/sim/dram.py`` -> ``repro/sim/dram.py``;  files outside a
    ``repro`` package tree (tests, fixtures, scripts) return ``None`` so
    package-scoped rules skip them.
    """
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return None


def build_import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> fully qualified origin for module-level imports.

    ``from repro.core.bandwidth import assert_conservation as ac`` maps
    ``ac -> repro.core.bandwidth.assert_conservation``;  ``import numpy
    as np`` maps ``np -> numpy``.  Only module-level statements are
    considered -- function-local imports are resolved lazily by the
    call-graph walker from the function body itself.
    """
    mapping: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


@dataclasses.dataclass
class FileContext:
    """Everything a file-scoped rule may inspect about one file."""

    #: path as passed on the command line (used in diagnostics)
    display_path: str
    path: pathlib.Path
    source: str
    tree: ast.Module
    #: ``repro/...`` subpath, or ``None`` outside the package
    subpath: str | None
    #: dotted module name (``repro.sim.dram``) when ``subpath`` is set
    module: str | None
    import_map: dict[str, str] = dataclasses.field(default_factory=dict)

    @classmethod
    def parse(cls, path: pathlib.Path, display_path: str | None = None) -> "FileContext":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        subpath = package_subpath(path)
        module = None
        if subpath is not None:
            stem = subpath[: -len(".py")] if subpath.endswith(".py") else subpath
            parts = stem.split("/")
            if parts[-1] == "__init__":
                parts = parts[:-1]
            module = ".".join(parts)
        return cls(
            display_path=display_path or str(path),
            path=path,
            source=source,
            tree=tree,
            subpath=subpath,
            module=module,
            import_map=build_import_map(tree),
        )

    def diagnostic(
        self,
        rule_id: str,
        severity: Severity,
        node: ast.AST,
        message: str,
    ) -> Diagnostic:
        return Diagnostic(
            rule=rule_id,
            severity=severity,
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)


@dataclasses.dataclass
class ProjectContext:
    """All analyzed files, indexed for cross-module rules."""

    files: list[FileContext]
    #: ``[project.scripts]`` targets, ``pkg.cli:main`` (see :class:`LintConfig`)
    entry_points: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.by_module: dict[str, FileContext] = {
            f.module: f for f in self.files if f.module is not None
        }
