"""Bit-identity of the optimized engine against the pre-change golden.

``golden_simresults.json`` was generated from the engine *before* the
performance work (indexed scheduler queues, batched stream draws,
``__slots__`` records, inlined channel issue, the flat event loop);
every fast path must reproduce each ``SimResult`` float-for-float, and
handle the same number of events (``EVENTS``).
Each case's record was written by the engine as it stood before the
change that added the case.  The cases (``make_golden.golden_cases``)
span schedulers (FCFS, STF under both tag rules, priority with and
without the starvation cap, FR-FCFS, PAR-BS, TCM), page policies,
channel counts, both interference-counting modes, writes, phases,
epochs and bank partitioning, so any optimization that perturbs event
order or RNG consumption fails here.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from tests.sim.make_golden import GOLDEN_PATH, golden_cases, result_record

_GOLDEN = json.loads(GOLDEN_PATH.read_text())
_CASES = golden_cases()

#: events each case's run handles (the ``engine.events`` counter delta),
#: as the engine counted them when the speed work began: a change that
#: only makes events cheaper leaves every count equal, so host time per
#: simulated event compares across changes
EVENTS = {
    "fcfs_alone_profile": 3_106,
    "fcfs_bank_partitioned": 3_155,
    "fcfs_hetero5": 3_111,
    "fcfs_pending_two_channels": 5_687,
    "fcfs_saturated_writes": 3_236,
    "fcfs_two_channels": 5_596,
    "frfcfs_open_page": 3_280,
    "parbs_hetero5": 3_102,
    "priority_hetero5": 3_135,
    "priority_starvation_cap": 2_109,
    "priority_writes": 3_022,
    "stf_16core": 3_218,
    "stf_16core_ddr2_1600": 11_000,
    "stf_arrival_coupled": 3_108,
    "stf_open_page_two_channels": 6_098,
    "stf_pending_interference": 3_138,
    "stf_phased_epochs": 3_221,
    "stf_two_channels": 5_589,
    "tcm_hetero5": 3_105,
}


def test_fixture_covers_all_cases():
    assert sorted(_GOLDEN) == sorted(_CASES)
    assert sorted(EVENTS) == sorted(_CASES)


@pytest.mark.parametrize("name", sorted(_CASES))
def test_bit_identical_to_pre_optimization_engine(name):
    events = obs.registry().counter("engine.events")
    before = events.snapshot()
    record = result_record(_CASES[name]())
    assert events.snapshot() - before == EVENTS[name], f"{name}: event count"
    golden = _GOLDEN[name]
    # compare field-by-field first for a readable diff on failure
    assert record.keys() == golden.keys()
    for key in record:
        assert record[key] == golden[key], f"{name}: {key} diverged"
