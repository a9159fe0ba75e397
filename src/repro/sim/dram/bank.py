"""Per-bank state (row buffer + timing availability).

A bank is modelled as a resource with a *ready time* -- the earliest
cycle the next activate (or, for open-page row hits, the next column
command) may be accepted -- plus the identity of the open row under the
open-page policy.  The close-page policy (the paper's baseline,
Table II) auto-precharges after every access, so ``open_row`` stays
``None`` and every access pays the full tRCD cost.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Bank"]


@dataclass(slots=True)
class Bank:
    """State machine for one DRAM bank (close- and open-page)."""

    index: int
    #: earliest cycle the next command sequence may start at this bank
    ready_time: float = 0.0
    #: row currently latched in the row buffer (open-page only)
    open_row: int | None = None
    #: statistics
    n_activates: int = 0
    n_row_hits: int = 0
    n_accesses: int = 0

    def is_row_hit(self, row: int) -> bool:
        return self.open_row is not None and self.open_row == row

    @property
    def row_hit_rate(self) -> float:
        if self.n_accesses == 0:
            return 0.0
        return self.n_row_hits / self.n_accesses
