"""Bit-identity of the optimized engine against the pre-change golden.

``golden_simresults.json`` was generated from the engine *before* the
performance work (indexed scheduler queues, batched stream draws,
``__slots__`` records, inlined channel issue, the flat event loop);
every fast path must reproduce each ``SimResult`` float-for-float.
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

from tests.sim.make_golden import GOLDEN_PATH, golden_cases, result_record

_GOLDEN = json.loads(GOLDEN_PATH.read_text())
_CASES = golden_cases()


def test_fixture_covers_all_cases():
    assert sorted(_GOLDEN) == sorted(_CASES)


@pytest.mark.parametrize("name", sorted(_CASES))
def test_bit_identical_to_pre_optimization_engine(name):
    record = result_record(_CASES[name]())
    golden = _GOLDEN[name]
    # compare field-by-field first for a readable diff on failure
    assert record.keys() == golden.keys()
    for key in record:
        assert record[key] == golden[key], f"{name}: {key} diverged"
