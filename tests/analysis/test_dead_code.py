"""The ``dead-code`` rule: module reachability from the entry points."""

from __future__ import annotations

import pathlib

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
    assert _dead([src], LintConfig(entry_points=("repro.tool",))) == []
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
    assert config.entry_points == ("repro.other.cli", "repro.tool")
    _write(
        tmp_path / "src" / "repro",
        {"__init__.py": "", "tool.py": "def main():\n    pass\n", "dead.py": ""},
    )
    assert _dead([tmp_path / "src"], config) == ["repro/dead.py"]


def test_shipped_suppressions_are_the_paper_modules() -> None:
    """Only paper content an example runs may stay unreached."""
    src = REPO_ROOT / "src"
    marked = sorted(
        p.relative_to(src).as_posix()
        for p in src.rglob("*.py")
        if "# reprolint: disable-file=dead-code" in p.read_text(encoding="utf-8")
    )
    assert marked == [
        "repro/core/sharedl2.py",
        "repro/core/weighted.py",
        "repro/sim/cache.py",
        "repro/workloads/refgen.py",
    ]
    for rel in marked:
        head = (src / rel).read_text(encoding="utf-8").splitlines()[:3]
        reason = " ".join(head[1:])
        assert "Sec." in reason and "examples/" in reason, rel
        example = reason.split("examples/", 1)[1].split()[0].rstrip(".,;")
        assert (REPO_ROOT / "examples" / example).is_file(), rel
