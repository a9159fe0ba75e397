"""Public-API surface tests: every documented export exists and matches
``__all__`` (guards against accidental export regressions)."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.sim",
    "repro.sim.dram",
    "repro.sim.mc",
    "repro.workloads",
    "repro.experiments",
    "repro.util",
]


def _all_modules() -> list[str]:
    import repro

    found = pkgutil.walk_packages(repro.__path__, "repro.")
    return ["repro"] + sorted(m.name for m in found)


@pytest.mark.parametrize("module", _all_modules())
def test_all_exports_resolve(module):
    """Every ``__all__`` entry of every module names a real attribute,
    so a deletion cannot leave a stale export behind."""
    mod = importlib.import_module(module)
    if module in PACKAGES:
        assert hasattr(mod, "__all__"), module
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{module}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_entries_unique(package):
    mod = importlib.import_module(package)
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_serving_imports_leave_scipy_unloaded():
    """repro.core loads its optimizer, and with it scipy, on first use."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys\n"
        "import repro.service.__main__\n"
        "assert 'scipy' not in sys.modules, 'serving imported scipy'\n"
        "from repro.core import PartitionOptimum, optimize_partition\n"
        "assert callable(optimize_partition) and PartitionOptimum\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_top_level_quickstart_surface():
    """The README quickstart imports exactly these names."""
    import repro

    for name in ("AnalyticalModel", "AppProfile", "Workload",
                 "QoSPartitioner", "QoSTarget", "OperatingPoint"):
        assert hasattr(repro, name)


def test_version_is_pep440ish():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) >= 2
    assert all(p.isdigit() for p in parts)


def test_readme_mentions_every_example():
    import pathlib

    root = pathlib.Path(__file__).parent.parent
    readme = (root / "README.md").read_text()
    for example in (root / "examples").glob("*.py"):
        assert example.name in readme, f"README missing {example.name}"


def test_design_md_lists_every_core_module():
    import pathlib

    root = pathlib.Path(__file__).parent.parent
    design = (root / "DESIGN.md").read_text()
    core = root / "src" / "repro" / "core"
    for module in core.glob("*.py"):
        if module.name == "__init__.py":
            continue
        assert module.name in design, f"DESIGN.md missing core/{module.name}"
