"""Rule modules for reprolint.

Importing this package registers every built-in rule; the registry in
:mod:`repro.analysis.registry` triggers the import itself, so callers
only ever need :func:`repro.analysis.registry.all_rules`.
"""

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    determinism,
    exceptions,
    invariants,
    ipc,
    numerics,
    reachability,
)

__all__ = [
    "determinism",
    "exceptions",
    "invariants",
    "ipc",
    "numerics",
    "reachability",
]
