"""The ``dead-code`` rule: module and definition reachability."""

from __future__ import annotations

import pathlib
import re

from repro.analysis import LintConfig, analyze_paths, load_config

from tests.analysis.conftest import REPO_ROOT
from tests.analysis.test_config import needs_toml

GUARD = 'if __name__ == "__main__":\n    main()\n'


def _write(root: pathlib.Path, files: dict[str, str]) -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)


def _dead(paths: list[pathlib.Path], config: LintConfig | None = None) -> list[str]:
    """Basenames (parent/name) reported by the rule, sorted."""
    result = analyze_paths(paths, config or LintConfig(), only_rules=["dead-code"])
    return sorted(
        "/".join(pathlib.PurePath(d.path).parts[-2:]) for d in result.diagnostics
    )


def _cli(*imports: str) -> str:
    body = "".join(f"import {m}\n" for m in imports)
    return f"{body}\n\ndef main():\n    pass\n\n\n{GUARD}"


def test_unimported_module_is_reported(tmp_path: pathlib.Path) -> None:
    _write(
        tmp_path / "src" / "repro",
        {
            "__init__.py": "",
            "cli.py": _cli("repro.used"),
            "used.py": "X = 1\n",
            "orphan.py": "Y = 2\n",
        },
    )
    assert _dead([tmp_path / "src"]) == ["repro/orphan.py"]


def test_function_local_and_relative_imports_are_edges(tmp_path: pathlib.Path) -> None:
    _write(
        tmp_path / "src" / "repro",
        {
            "__init__.py": "",
            "cli.py": (
                "def main():\n    from repro.sub.lazy import f\n    f()\n\n\n"
                + GUARD
            ),
            "sub/__init__.py": "",
            "sub/lazy.py": "from . import sibling\n\n\ndef f():\n    return sibling\n",
            "sub/sibling.py": "from .deeper import leaf\n",
            "sub/deeper/__init__.py": "",
            "sub/deeper/leaf.py": "Z = 3\n",
        },
    )
    # sub/__init__.py and sub/deeper/__init__.py run as parent packages
    assert _dead([tmp_path / "src"]) == []


def test_module_used_only_by_tests_and_examples_is_reported(
    tmp_path: pathlib.Path,
) -> None:
    _write(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/cli.py": _cli(),
            "src/repro/helper.py": "H = 1\n",
            "tests/test_helper.py": "from repro.helper import H\n",
            "examples/demo.py": (
                "from repro.helper import H\n\n\ndef main():\n    print(H)\n\n\n"
                + GUARD
            ),
        },
    )
    paths = [tmp_path / "src", tmp_path / "tests", tmp_path / "examples"]
    assert _dead(paths) == ["repro/helper.py"]


def test_disable_file_silences_but_does_not_make_a_root(
    tmp_path: pathlib.Path,
) -> None:
    _write(
        tmp_path / "src" / "repro",
        {
            "__init__.py": "",
            "cli.py": _cli(),
            "kept.py": (
                "# reprolint: disable-file=dead-code\n"
                "# paper content, run by an example\n"
                "from repro.only_kept_uses import K\n"
            ),
            "only_kept_uses.py": "K = 1\n",
        },
    )
    result = analyze_paths(
        [tmp_path / "src"], LintConfig(), only_rules=["dead-code"]
    )
    assert result.suppressed == 1
    assert [pathlib.PurePath(d.path).name for d in result.diagnostics] == [
        "only_kept_uses.py"
    ]


def test_roots_are_script_targets_and_main_guards(tmp_path: pathlib.Path) -> None:
    _write(
        tmp_path / "src" / "repro",
        {
            "__init__.py": "",
            "__main__.py": _cli("repro.guarded_dep"),
            "guarded_dep.py": "G = 1\n",
            "tool.py": "import repro.tool_dep\n\n\ndef main():\n    pass\n",
            "tool_dep.py": "T = 1\n",
        },
    )
    src = tmp_path / "src"
    # without the console script only the __main__ guard roots the walk
    assert _dead([src]) == ["repro/tool.py", "repro/tool_dep.py"]
    assert _dead([src], LintConfig(entry_points=("repro.tool:main",))) == []
    # with no root at all (no script, no guard) nothing is reported
    (src / "repro" / "__main__.py").write_text("import repro.guarded_dep\n")
    assert _dead([src]) == []


@needs_toml
def test_script_targets_come_from_pyproject(tmp_path: pathlib.Path) -> None:
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        "[project.scripts]\n"
        'repro-tool = "repro.tool:main"\n'
        'repro-other = "repro.other.cli:run"\n'
    )
    config = load_config(pyproject)
    assert config.entry_points == ("repro.other.cli:run", "repro.tool:main")
    _write(
        tmp_path / "src" / "repro",
        {"__init__.py": "", "tool.py": "def main():\n    pass\n", "dead.py": ""},
    )
    assert _dead([tmp_path / "src"], config) == ["repro/dead.py"]


# ----------------------------------------------------------------------
# definitions
# ----------------------------------------------------------------------
def _dead_defs(root: pathlib.Path, files: dict[str, str]) -> list[str]:
    """Dotted names of the definitions the rule reports, sorted."""
    _write(root, files)
    paths = [root / "src", root / "tests"]  # a missing directory is skipped
    result = analyze_paths(paths, LintConfig(), only_rules=["dead-code"])
    return sorted(
        d.message.split()[1]
        for d in result.diagnostics
        if d.message.startswith(("function ", "class "))
    )


def test_function_only_a_test_imports_is_reported(tmp_path: pathlib.Path) -> None:
    assert _dead_defs(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/cli.py": (
                "from repro.lib import used\n\n\ndef main():\n    used()\n\n\n"
                + GUARD
            ),
            "src/repro/lib.py": "def used():\n    pass\n\n\ndef tested():\n    pass\n",
            "tests/test_lib.py": "from repro.lib import tested\n",
        },
    ) == ["repro.lib.tested"]


def test_reexport_and_dunder_all_are_not_uses(tmp_path: pathlib.Path) -> None:
    assert _dead_defs(
        tmp_path,
        {
            "src/repro/__init__.py": (
                "from repro.pkg.impl import exported\n\n__all__ = ['exported']\n"
            ),
            "src/repro/cli.py": _cli("repro.pkg"),
            "src/repro/pkg/__init__.py": (
                "from repro.pkg.impl import listed\n\n__all__ = ['listed']\n"
            ),
            "src/repro/pkg/impl.py": (
                "def exported():\n    pass\n\n\ndef listed():\n    pass\n"
            ),
        },
    ) == ["repro.pkg.impl.exported", "repro.pkg.impl.listed"]


def test_attribute_call_and_local_import_reach(tmp_path: pathlib.Path) -> None:
    assert _dead_defs(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/cli.py": (
                "import repro.lib as lib\n\n\ndef main():\n    lib.by_attribute()\n"
                "    from repro.pkg import by_local_import\n"
                "    by_local_import()\n\n\n" + GUARD
            ),
            "src/repro/lib.py": "def by_attribute():\n    pass\n",
            # reached through the package re-export to its defining module
            "src/repro/pkg/__init__.py": "from repro.pkg.impl import by_local_import\n",
            "src/repro/pkg/impl.py": (
                "def by_local_import():\n    pass\n\n\ndef unused():\n    pass\n"
            ),
        },
    ) == ["repro.pkg.impl.unused"]


def test_class_reaches_its_methods_and_methods_are_not_reported(
    tmp_path: pathlib.Path,
) -> None:
    assert _dead_defs(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/cli.py": (
                "from repro.lib import Used\n\n\ndef main():\n    Used()\n\n\n" + GUARD
            ),
            "src/repro/lib.py": (
                "def helper():\n    pass\n\n\n"
                "class Used:\n    def never_called(self):\n        helper()\n\n\n"
                "class Unused:\n    def method(self):\n        pass\n"
            ),
        },
    ) == ["repro.lib.Unused"]


def test_decorated_definition_is_reached_with_its_module(
    tmp_path: pathlib.Path,
) -> None:
    assert _dead_defs(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/cli.py": _cli("repro.rules"),
            "src/repro/rules.py": (
                "def register(cls):\n    return cls\n\n\n"
                "def check():\n    pass\n\n\n"
                "@register\nclass Rule:\n    def run(self):\n        check()\n"
            ),
        },
    ) == []


def test_dataclass_only_a_test_uses_is_reported(tmp_path: pathlib.Path) -> None:
    """``@dataclass`` only builds the class, so it does not make a root."""
    assert _dead_defs(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/cli.py": (
                "from repro.records import Used\n\n\ndef main():\n    Used()\n\n\n"
                + GUARD
            ),
            "src/repro/records.py": (
                "import dataclasses\nfrom dataclasses import dataclass\n\n\n"
                "@dataclass\nclass Used:\n    x: int = 0\n\n\n"
                "@dataclass(frozen=True)\nclass Bare:\n    x: int = 0\n\n\n"
                "@dataclasses.dataclass(frozen=True)\nclass Dotted:\n    x: int = 0\n"
            ),
            "tests/test_records.py": "from repro.records import Bare, Dotted\n",
        },
    ) == ["repro.records.Bare", "repro.records.Dotted"]


def test_register_still_reaches_a_decorated_dataclass(tmp_path: pathlib.Path) -> None:
    """A decorator that is not inert keeps its definition a root, even
    stacked on ``@dataclass``."""
    assert _dead_defs(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/cli.py": _cli("repro.rules"),
            "src/repro/rules.py": (
                "from dataclasses import dataclass\n\n\n"
                "def register(cls):\n    return cls\n\n\n"
                "@register\n@dataclass\nclass Rule:\n    x: int = 0\n"
            ),
        },
    ) == []


def test_string_naming_a_definition_reaches_it(tmp_path: pathlib.Path) -> None:
    assert _dead_defs(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/cli.py": (
                "import repro.handlers as handlers\n\n\ndef main():\n"
                "    getattr(handlers, 'on_start')()\n\n\n" + GUARD
            ),
            "src/repro/handlers.py": (
                "def on_start():\n    pass\n\n\ndef on_stop():\n    pass\n"
            ),
        },
    ) == ["repro.handlers.on_stop"]


def test_suppressed_definition_is_not_a_root(tmp_path: pathlib.Path) -> None:
    files = {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": _cli("repro.lib"),
        "src/repro/lib.py": (
            "def helper():\n    pass\n\n\n"
            "# kept for examples/demo.py\n"
            "def kept():  # reprolint: disable=dead-code\n    helper()\n"
        ),
    }
    assert _dead_defs(tmp_path, files) == ["repro.lib.helper"]


#: ``# reprolint: disable[-file]=dead-code`` as a real comment
_DEAD_CODE_MARK = re.compile(r"#\s*reprolint:\s*disable(?:-file)?=[\w,-]*dead-code")


def _reason(lines: list[str], i: int) -> str:
    """The comment lines around a suppression marker on line ``i``."""
    start = i
    while start > 0 and lines[start - 1].lstrip().startswith("#"):
        start -= 1
    end = i + 1
    while end < len(lines) and lines[end].lstrip().startswith("#"):
        end += 1
    return " ".join(line.split("#", 1)[1] for line in lines[start:end])


def test_shipped_suppressions_are_the_paper_modules() -> None:
    """Only paper content, or code a program outside src/ runs, stays
    unreached -- and each suppression says which."""
    src = REPO_ROOT / "src"
    marked = []
    for path in sorted(src.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            if not _DEAD_CODE_MARK.search(line):
                continue
            rel = path.relative_to(src).as_posix()
            defined = re.match(r"\s*(?:async def|def|class) (\w+)", line)
            marked.append(f"{rel}:{defined.group(1) if defined else '*'}")
            reason = _reason(lines, i)
            files = [
                f.rstrip(".,;")
                for f in re.findall(r"[\w./-]+\.py\b", reason)
                if not f.startswith("src/")
            ]
            paper = "Sec." in reason or "Eq" in reason
            assert paper or files, f"{rel}:{i + 1}: no paper section or program"
            for f in files:
                assert (REPO_ROOT / f).is_file(), f"{rel}:{i + 1}: {f} is missing"
    assert marked == [
        "repro/core/bandwidth.py:conservation_residual",
        "repro/core/closed_form.py:*",
        "repro/core/frontier.py:*",
        "repro/core/sharedl2.py:*",
        "repro/core/weighted.py:*",
        "repro/experiments/plan.py:grid_plan",
        "repro/obs/__init__.py:configure",
        "repro/obs/exporters.py:chrome_trace",
        "repro/obs/exporters.py:write_chrome_trace",
        "repro/service/client.py:AsyncServiceClient",
        "repro/service/server.py:_solve_one_partition",
        "repro/sim/cache.py:*",
        "repro/sim/mc/frfcfs.py:FRFCFSScheduler",
        "repro/workloads/refgen.py:*",
    ]
