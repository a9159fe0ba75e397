"""The surrogate training sweep's design space.

A sweep point is a shared-mode simulation of a small group of
*synthetic* applications.  Synthetic apps (rather than the Table III
benchmarks) let the sweep cover the request space the service actually
sees -- arbitrary (API, APC_alone) operating points -- instead of the
sixteen calibrated benchmark points:

* ``api`` and ``demand_frac`` place the app's alone-mode operating
  point: the core's compute ceiling is solved from
  ``ipc_peak = demand_frac * peak_apc / api`` so the demanded APC is a
  chosen fraction of the bus peak.  The miss-level parallelism is
  *derived* from the demand through the same intensity classes as
  :func:`repro.workloads.spec.mlp_for_apkc`, so MLP is a function of
  the observable demand rather than a hidden axis the serving-time
  features could never see.
* ``row_locality`` and ``bank_frac`` shape the access stream
  (:class:`repro.sim.stream.StreamSpec`): locality drives the
  open-page row-hit rate, and ``bank_frac`` restricts the app to a
  leading slice of the per-channel banks (bank-partitioning style),
  which controls how much bank-level parallelism it can recruit.
* The bandwidth axis ``B`` is swept through DRAM bus-scale factors
  (:meth:`repro.sim.dram.config.DRAMConfig.with_bus_scale`); the fit
  itself is dimensionless (everything is normalized by ``peak_apc``),
  so the bus scales mostly probe that the normalization is right.

Groups are sampled (seeded, reproducible) from the per-cell archetype
grid *with replacement*, so homogeneous and heterogeneous mixes both
occur and total demanded load spans under- and over-subscription.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.sim.cpu import CoreSpec
from repro.sim.dram.config import DRAMConfig
from repro.sim.stream import StreamSpec
from repro.util.errors import ConfigurationError
from repro.workloads.spec import mlp_for_apkc

__all__ = [
    "SurrogateApp",
    "SweepCell",
    "SweepSettings",
    "smoke_settings",
    "full_settings",
    "sample_groups",
]

#: footprint used by every synthetic app (power of two keeps the
#: stream generator on its fast path; the value itself is immaterial
#: to the close-page baseline)
_FOOTPRINT_ROWS = 512


@dataclass(frozen=True)
class SurrogateApp:
    """One synthetic application archetype (a point in request space)."""

    #: off-chip accesses per instruction (Eq. 1 program property)
    api: float
    #: demanded alone-mode APC as a fraction of the DRAM peak APC
    demand_frac: float
    #: row-buffer locality of the access stream
    row_locality: float
    #: fraction of the per-channel banks the app's stream may touch
    bank_frac: float

    def __post_init__(self) -> None:
        if self.api <= 0:
            raise ConfigurationError(f"api must be > 0, got {self.api}")
        if self.demand_frac <= 0:
            raise ConfigurationError(
                f"demand_frac must be > 0, got {self.demand_frac}"
            )
        if not 0.0 <= self.row_locality <= 1.0:
            raise ConfigurationError(
                f"row_locality must be in [0, 1], got {self.row_locality}"
            )
        if not 0.0 < self.bank_frac <= 1.0:
            raise ConfigurationError(
                f"bank_frac must be in (0, 1], got {self.bank_frac}"
            )

    @property
    def name(self) -> str:
        return (
            f"surr-a{self.api:g}-d{self.demand_frac:g}"
            f"-rl{self.row_locality:g}-bf{self.bank_frac:g}"
        )

    def core_spec(self, dram: DRAMConfig) -> CoreSpec:
        """The simulator core realizing this archetype on ``dram``.

        MLP is derived from the demanded APKC through the same
        intensity classes as the benchmark surrogates, so it scales
        with the bus generation exactly as Sec. VI-C's
        bandwidth-bound apps do.
        """
        demand_apc = self.demand_frac * dram.peak_apc
        banks = dram.n_ranks * dram.n_banks
        k = max(1, round(self.bank_frac * banks))
        bank_set = None if k >= banks else tuple(range(k))
        return CoreSpec(
            name=self.name,
            api=self.api,
            ipc_peak=demand_apc / self.api,
            mlp=mlp_for_apkc(demand_apc * 1000.0),
            stream=StreamSpec(
                row_locality=self.row_locality,
                footprint_rows=_FOOTPRINT_ROWS,
                bank_set=bank_set,
            ),
        )


@dataclass(frozen=True)
class SweepCell:
    """One stream-shape / bandwidth cell of the sweep grid."""

    row_locality: float
    bank_frac: float
    bus_scale: float

    def dram(self, base: DRAMConfig) -> DRAMConfig:
        if self.bus_scale == 1.0:
            return base
        return base.with_bus_scale(
            self.bus_scale, name=f"{base.name}-x{self.bus_scale:g}"
        )


@dataclass(frozen=True)
class SweepSettings:
    """Axes and sampling parameters of one training sweep.

    The settings object is the artifact's identity: its digest (mixed
    with the simulation windows) keys the serialized model, so two
    sweeps that differ in any axis produce distinct artifacts.
    """

    schemes: tuple[str, ...]
    api_values: tuple[float, ...]
    demand_fracs: tuple[float, ...]
    row_localities: tuple[float, ...]
    bank_fracs: tuple[float, ...]
    bus_scales: tuple[float, ...]
    group_size: int = 4
    groups_per_cell: int = 8
    seed: int = 2013

    def __post_init__(self) -> None:
        for fname in (
            "schemes",
            "api_values",
            "demand_fracs",
            "row_localities",
            "bank_fracs",
            "bus_scales",
        ):
            if not getattr(self, fname):
                raise ConfigurationError(f"{fname} must not be empty")
        if self.group_size < 2:
            raise ConfigurationError("group_size must be >= 2 (shared-mode runs)")
        if self.groups_per_cell < 1:
            raise ConfigurationError("groups_per_cell must be >= 1")

    def cells(self) -> Iterator[SweepCell]:
        for rl in self.row_localities:
            for bf in self.bank_fracs:
                for scale in self.bus_scales:
                    yield SweepCell(rl, bf, scale)

    def archetypes(self, cell: SweepCell) -> tuple[SurrogateApp, ...]:
        """The (api x demand) grid of apps sharing ``cell``'s stream shape."""
        return tuple(
            SurrogateApp(
                api=api,
                demand_frac=d,
                row_locality=cell.row_locality,
                bank_frac=cell.bank_frac,
            )
            for api in self.api_values
            for d in self.demand_fracs
        )

    @property
    def n_groups(self) -> int:
        n_cells = (
            len(self.row_localities) * len(self.bank_fracs) * len(self.bus_scales)
        )
        return n_cells * self.groups_per_cell


def sample_groups(
    settings: SweepSettings,
) -> list[tuple[SweepCell, tuple[SurrogateApp, ...]]]:
    """The sweep's app groups, sampled reproducibly from the grid.

    Sampling is with replacement from each cell's archetype grid (so
    duplicate apps within a group are legal -- the runner suffixes
    names exactly like benchmark mixes with ``copies > 1``).  The
    first group of every cell is pinned to a deterministic
    round-robin slice so each archetype appears at least once per
    cell even at small ``groups_per_cell``.
    """
    rng = np.random.default_rng(settings.seed)
    groups: list[tuple[SweepCell, tuple[SurrogateApp, ...]]] = []
    for cell in settings.cells():
        arch = settings.archetypes(cell)
        for g in range(settings.groups_per_cell):
            if g == 0:
                picks = [arch[i % len(arch)] for i in range(settings.group_size)]
            else:
                idx = rng.integers(0, len(arch), size=settings.group_size)
                picks = [arch[int(i)] for i in idx]
            groups.append((cell, tuple(picks)))
    return groups


def smoke_settings() -> SweepSettings:
    """The small CI sweep: one stream-shape cell, dense demand axis.

    Sized so ``repro-surrogate fit --preset smoke`` finishes in CI
    minutes (144 shared runs, ~15 s of simulation) while leaving 24
    runs per scheme -- enough for the 5-fold cross-validated report
    card to be stable.
    """
    return SweepSettings(
        schemes=_managed_schemes(),
        api_values=(0.004, 0.04),
        demand_fracs=(0.2, 0.5, 0.9),
        row_localities=(0.45,),
        bank_fracs=(1.0,),
        bus_scales=(1.0,),
        group_size=4,
        groups_per_cell=24,
    )


def full_settings() -> SweepSettings:
    """The full training sweep behind the published artifact.

    Extends the smoke design along the axes a serving request actually
    varies -- operating point (api, demand), bus generation -- plus a
    *moderate* stream-shape neighborhood around the canonical mix.
    Requests do not carry locality hints (serving substitutes the
    training-mean ``rho``/``sigma``), so certifying the surface over a
    wide stream-shape range would average incompatible responses into
    one set of coefficients; the narrow band instead teaches the fit
    the local sensitivity that makes mean-substitution honest.
    """
    return SweepSettings(
        schemes=_managed_schemes(),
        api_values=(0.004, 0.02),
        demand_fracs=(0.2, 0.5, 0.9),
        row_localities=(0.35, 0.45, 0.55),
        bank_fracs=(1.0, 0.75),
        bus_scales=(1.0, 2.0),
        group_size=4,
        groups_per_cell=8,
    )


def _managed_schemes() -> tuple[str, ...]:
    from repro.core.partitioning import SCHEME_ORDER

    return tuple(SCHEME_ORDER)
