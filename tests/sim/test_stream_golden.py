"""Regression: block-drawn stream words reproduce pre-change sequences.

``golden_stream.json`` pins 300-element address sequences (and one
core's full arrival timeline) produced by the *scalar* pre-optimization
generators.  The power-of-two fast path of
:meth:`MissAddressStream.next_access` (row-locality uniforms and
location half-words read from blocks of raw PCG64 words) must emit the
exact same integers in the exact same order, and the core's
exponential-gap/write-coin interleaving must be untouched -- otherwise
every simulation timestamp downstream silently shifts.

The recipes below must stay byte-for-byte what generated the fixture.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from repro.sim.cpu import CorePhase, CoreSim, CoreSpec
from repro.sim.dram.address import DecodedAddress
from repro.sim.dram.config import DRAMConfig, ddr2_400
from repro.sim.stream import _AHEAD, _BLOCK, MissAddressStream, StreamSpec
from repro.util.rng import RngStream

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_stream.json"
_GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _stream_cases() -> dict[str, MissAddressStream]:
    cases = {
        "default": (ddr2_400(), StreamSpec()),
        "local": (ddr2_400(), StreamSpec(row_locality=0.9, footprint_rows=32)),
        "banked": (ddr2_400(), StreamSpec(bank_set=(0, 5, 9, 30))),
        "two_chan": (
            DRAMConfig(name="2ch", n_channels=2),
            StreamSpec(row_locality=0.3),
        ),
    }
    return {
        name: MissAddressStream(cfg, spec, 2, RngStream(42, f"stream.{name}"))
        for name, (cfg, spec) in cases.items()
    }


@pytest.mark.parametrize("name", sorted(_GOLDEN["addresses"]))
def test_address_sequences_bit_identical(name):
    stream = _stream_cases()[name]
    golden = _GOLDEN["addresses"][name]
    produced = [int(stream.next_address()) for _ in golden]
    assert produced == golden


def test_arrival_timeline_bit_identical():
    spec = CoreSpec(
        name="g",
        api=0.01,
        ipc_peak=2.0,
        mlp=10**9,
        write_fraction=0.2,
        write_queue_cap=10**9,
        phases=(CorePhase(start_cycle=30_000.0, api=0.05, ipc_peak=0.5),),
    )
    core = CoreSim(
        0,
        spec,
        MissAddressStream(ddr2_400(), StreamSpec(), 0, RngStream(42, "s")),
        RngStream(42, "core.g"),
    )
    golden = _GOLDEN["arrivals"]
    times, writes, line_addrs = [], [], []
    t = core.start(0.0)
    for _ in golden["times"]:
        times.append(repr(float(t)))
        req, nxt = core.generate_access(t)
        writes.append(req.is_write)
        line_addrs.append(req.line_addr)
        t = nxt
    assert times == golden["times"]
    assert writes == golden["writes"]
    assert line_addrs == golden["line_addrs"]


# ----------------------------------------------------------------------
# the raw-word recipe vs numpy's own Generator methods
# ----------------------------------------------------------------------
def _reference_accesses(stream: MissAddressStream, ref: np.random.Generator, n: int):
    """The accesses ``stream`` must produce, drawn the original way: one
    ``ref.random()`` per access after the first, one
    ``ref.integers(0, bounds)`` per non-local access, composed through
    the address mapper."""
    cfg, spec, mapper = stream.config, stream.spec, stream.mapper
    bounds = np.asarray(stream._bounds)
    cur: DecodedAddress | None = None
    out = []
    for _ in range(n):
        if (
            cur is not None
            and ref.random() < spec.row_locality
            and cur.col < cfg.lines_per_row - 1
        ):
            cur = replace(cur, col=cur.col + 1)
        else:
            vals = ref.integers(0, bounds).tolist()
            if spec.bank_set is None:
                rank, bank, channel, row_off, col = vals
            else:
                slot, channel, row_off, col = vals
                rank, bank = divmod(spec.bank_set[slot], cfg.n_banks)
            cur = DecodedAddress(channel, rank, bank, stream.row_base + row_off, col)
        out.append((mapper.encode(cur), cur.channel, mapper.bank_index(cur), cur.row))
    return out


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize(
    "spec",
    [
        StreamSpec(),  # pow2 everywhere, includes a bound of 1 (channels)
        StreamSpec(footprint_rows=32),
        StreamSpec(bank_set=(0, 5, 9, 30)),  # 3 half-words: odd, buffered
        StreamSpec(bank_set=(1, 2, 6)),  # non-pow2 bound -> fallback path
        StreamSpec(footprint_rows=300),  # non-pow2 row span -> fallback
    ],
    ids=["default", "small", "banked4", "banked3", "rows300"],
)
def test_draw_bounded_matches_generator_integers(seed, spec):
    """Property promised in the stream module docstring: both draws of
    ``next_access`` -- the locality uniform and the bounded location --
    are bit-identical to a fresh ``Generator``'s ``random`` and
    ``integers``, including the 32-bit half-word buffer surviving the
    interleaved whole-word uniforms."""
    stream = MissAddressStream(ddr2_400(), spec, 1, RngStream(seed, "a"))
    expected = _reference_accesses(stream, RngStream(seed, "a").generator, 200)
    assert [stream.next_access() for _ in expected] == expected
    # the path is chosen per stream: pow2 bounds read the word block
    assert (stream._words is None) == (spec.bank_set == (1, 2, 6)
                                       or spec.footprint_rows == 300)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_uniform_matches_generator_random(seed):
    """The block-drawn uniform is ``Generator.random()`` draw for draw,
    across many block refills and ending mid-block."""
    stream = MissAddressStream(ddr2_400(), StreamSpec(), 1, RngStream(seed, "a"))
    ref = RngStream(seed, "a").generator
    n = 40 * _BLOCK + 17
    assert n >= 10_000
    assert [stream._uniform() for _ in range(n)] == [ref.random() for _ in range(n)]


# ----------------------------------------------------------------------
# read-ahead: accesses are generated _AHEAD at a time, returned one by one
# ----------------------------------------------------------------------
_READ_AHEAD_SPECS = [
    StreamSpec(),  # power-of-two path
    StreamSpec(row_locality=0.9, footprint_rows=32),  # long same-row runs
    StreamSpec(bank_set=(0, 5, 9, 30)),  # bank-set stream, power of two
    StreamSpec(bank_set=(1, 2, 6)),  # bank-set stream, fallback path
    StreamSpec(footprint_rows=300),  # fallback path
]
_READ_AHEAD_IDS = ["default", "local", "banked4", "banked3", "rows300"]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("spec", _READ_AHEAD_SPECS, ids=_READ_AHEAD_IDS)
def test_interleaved_calls_give_the_unbuffered_sequence(seed, spec):
    """``next_access`` and ``next_address`` share one read-ahead block:
    any interleaving of the two, across several refills, returns the
    sequence the stream drew one access at a time."""
    stream = MissAddressStream(ddr2_400(), spec, 1, RngStream(seed, "a"))
    n = 3 * _AHEAD + 7
    expected = _reference_accesses(stream, RngStream(seed, "a").generator, n)
    pattern = np.random.default_rng(seed).integers(0, 2, n)
    for want, use_address in zip(expected, pattern):
        if use_address:
            assert stream.next_address() == want[0]
        else:
            assert stream.next_access() == want


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("spec", _READ_AHEAD_SPECS, ids=_READ_AHEAD_IDS)
def test_current_is_the_last_access_returned(seed, spec):
    """``current`` decodes the last access *returned*, not the last one
    generated: the generation frontier runs up to ``_AHEAD`` ahead."""
    stream = MissAddressStream(ddr2_400(), spec, 1, RngStream(seed, "a"))
    assert stream.current is None
    pattern = np.random.default_rng(seed).integers(0, 2, 3 * _AHEAD + 7)
    for use_address in pattern:
        if use_address:
            addr = stream.next_address()
        else:
            addr, channel, flat_bank, row = stream.next_access()
        cur = stream.current
        assert cur == stream.mapper.decode(addr)
        if not use_address:
            assert (cur.channel, stream.mapper.bank_index(cur), cur.row) == (
                channel, flat_bank, row
            )
