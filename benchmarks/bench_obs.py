#!/usr/bin/env python
"""Telemetry overhead gate: what tracing adds to an engine run.

The ``repro.obs`` contract is that tracing never taxes the hot path:
spans mark *phases* (a handful per run), counters are flushed once per
run from plain locals, and the disabled path is one attribute read.
The gate checks that contract by counting, so the host's load cannot
move it:

* tracing on: an engine run records ``3 + epochs`` spans (run, warmup,
  measure, one scheduler round per epoch) at every run length;
* tracing on: an engine run makes the same number of registry writes
  (``inc``/``set``/``add``/``observe``) at every run length, so no
  write is made per event;
* tracing off: a run records no span and ``repro.obs`` reads no clock.

Each count is taken at two run lengths (``--measure-cycles`` and a
quarter of it), so a cost per event shows up as a count that grows
with the run.  A cost the counts cannot see (a span that does slow
work) is left to one wall-clock check, with perfbench's rule:
``--repeats`` alternating on/off pairs (on first, then off first), and
a failure only when the traced run is the slower one in at least nine
of ten pairs, *and* the traced median exceeds the untraced median by
more than ``--threshold`` percent, *and* by more than the untraced
runs' interquartile spread.  The pair count keeps a shift in host
speed during the measurement (which moves both medians and widens the
spread) from failing the gate; a cost on every traced run is slower in
every pair.

Run (CI runs the last form):

    PYTHONPATH=src python benchmarks/bench_obs.py
    PYTHONPATH=src python benchmarks/bench_obs.py --repeats 25 --threshold 3.0
    PYTHONPATH=src python benchmarks/bench_obs.py --threshold 3.0 --trace out/sample.trace.json
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from contextlib import contextmanager

from repro import obs
from repro.obs.registry import Counter, Gauge, Histogram
from repro.sim.cpu import CoreSpec
from repro.sim.engine import SimConfig, simulate
from repro.sim.mc.fcfs import FCFSScheduler

#: the ``time`` functions that read a clock
_CLOCKS = ("perf_counter", "perf_counter_ns", "thread_time", "thread_time_ns",
           "process_time", "process_time_ns", "monotonic", "monotonic_ns",
           "time", "time_ns")
#: registry writes: (class, method)
_WRITES = ((Counter, "inc"), (Gauge, "set"), (Gauge, "add"),
           (Histogram, "observe"))


def workload():
    return [
        CoreSpec(name="h0", api=0.04, ipc_peak=0.4, mlp=12),
        CoreSpec(name="h1", api=0.03, ipc_peak=0.5, mlp=8),
        CoreSpec(name="l0", api=0.005, ipc_peak=0.6, mlp=2),
        CoreSpec(name="l1", api=0.004, ipc_peak=0.5, mlp=2),
    ]


def make_config(measure_cycles: float) -> SimConfig:
    return SimConfig(
        warmup_cycles=50_000.0,
        measure_cycles=measure_cycles,
        seed=11,
        # a scheduler_round span per 10k cycles (47 spans per timed run,
        # about 6 us each): a per-span cost the counts cannot see, such as
        # slow work inside a span, shows in wall time
        epoch_cycles=10_000.0,
    )


def one_run(config: SimConfig) -> float:
    t0 = time.perf_counter()
    simulate(workload(), lambda n: FCFSScheduler(n), config)
    return time.perf_counter() - t0


class _CountingTime:
    """Stands in for the ``time`` module inside ``repro.obs``: counts
    each clock read and passes every call through."""

    def __init__(self, real) -> None:
        self._real = real
        self.reads = 0

    def __getattr__(self, name: str):
        attr = getattr(self._real, name)
        if name not in _CLOCKS:
            return attr

        def read(*args, **kwargs):
            self.reads += 1
            return attr(*args, **kwargs)

        return read


@contextmanager
def counting():
    """Count clock reads in ``repro.obs`` and registry writes; yields a
    dict filled in on exit."""
    clock = _CountingTime(time)
    modules = [m for name, m in sys.modules.items()
               if name.startswith("repro.obs") and getattr(m, "time", None) is time]
    writes = [0]
    saved = []
    for cls, meth in _WRITES:
        real = getattr(cls, meth)

        def counted(self, *args, _real=real, **kwargs):
            writes[0] += 1
            return _real(self, *args, **kwargs)

        saved.append((cls, meth, real))
        setattr(cls, meth, counted)
    for m in modules:
        m.time = clock
    out: dict = {}
    try:
        yield out
    finally:
        for m in modules:
            m.time = time
        for cls, meth, real in saved:
            setattr(cls, meth, real)
        out["clock_reads"] = clock.reads
        out["registry_writes"] = writes[0]


def count_run(config: SimConfig, enabled: bool) -> dict:
    """One engine run's telemetry counts (tracing on at sample 1, or off)."""
    obs.configure(enabled=enabled, sample=1.0)
    obs.tracer().clear()
    reg = obs.registry()
    events0 = reg.counter("engine.events").snapshot()
    epochs0 = reg.counter("engine.epochs").snapshot()
    with counting() as got:
        simulate(workload(), lambda n: FCFSScheduler(n), config)
    got["spans"] = len(obs.tracer())
    got["events"] = int(reg.counter("engine.events").snapshot() - events0)
    got["epochs"] = int(reg.counter("engine.epochs").snapshot() - epochs0)
    obs.tracer().clear()
    return got


def check_counts(measure_cycles: float) -> list[str]:
    """The count gates at two run lengths; returns the failures."""
    lengths = (measure_cycles / 4.0, measure_cycles)
    on = [count_run(make_config(c), True) for c in lengths]
    off = [count_run(make_config(c), False) for c in lengths]
    print(f"{'measure cycles':>16} {'events':>8} {'epochs':>7} {'spans':>6} "
          f"{'writes':>7} {'clocks':>7}  tracing")
    for label, runs in (("on", on), ("off", off)):
        for c, got in zip(lengths, runs):
            print(f"{c:16,.0f} {got['events']:8d} {got['epochs']:7d} "
                  f"{got['spans']:6d} {got['registry_writes']:7d} "
                  f"{got['clock_reads']:7d}  {label}")
    failures = []
    for c, got in zip(lengths, on):
        if got["spans"] != 3 + got["epochs"]:
            failures.append(f"tracing on, {c:,.0f} cycles: {got['spans']} spans, "
                            f"want 3 + {got['epochs']} epochs")
    if on[0]["registry_writes"] != on[1]["registry_writes"]:
        failures.append("tracing on: registry writes grow with the run "
                        f"({on[0]['registry_writes']} -> {on[1]['registry_writes']})")
    if on[0]["events"] >= on[1]["events"]:
        failures.append("the longer run handled no more events: the lengths "
                        "cannot expose a cost per event")
    for c, got in zip(lengths, off):
        if got["spans"] or got["clock_reads"]:
            failures.append(f"tracing off, {c:,.0f} cycles: {got['spans']} spans, "
                            f"{got['clock_reads']} clock reads, want 0 and 0")
    return failures


def measure(repeats: int, config: SimConfig) -> tuple[list[float], list[float]]:
    """Alternating on/off timings (a warmup pair first, discarded)."""
    on: list[float] = []
    off: list[float] = []
    for i in range(repeats + 1):
        times = {}
        for enabled in ((True, False) if i % 2 else (False, True)):
            obs.configure(enabled=enabled, sample=1.0)
            times[enabled] = one_run(config)
        obs.tracer().clear()  # keep the ring from skewing later repeats
        if i == 0:
            continue  # warmup pair: imports, allocator, branch caches
        on.append(times[True])
        off.append(times[False])
    return on, off


def _iqr(xs: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=15,
                        help="timed alternating pairs (default 15, min 15, "
                             "plus 1 warmup)")
    parser.add_argument("--threshold", type=float, default=3.0,
                        help="wall-clock bound on the median overhead, percent "
                             "(default 3); a failure also needs the traced run "
                             "slower in 9 of 10 pairs and the gap above the "
                             "untraced interquartile spread")
    parser.add_argument("--measure-cycles", type=float, default=400_000.0,
                        help="simulated cycles per timed run; counts are also "
                             "taken at a quarter of it (default 400k)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="also write one instrumented run's Chrome trace")
    args = parser.parse_args(argv)
    if args.repeats < 15:
        parser.error("--repeats must be at least 15")

    obs.reset()
    failures = check_counts(args.measure_cycles)

    config = make_config(args.measure_cycles)
    on, off = measure(args.repeats, config)
    med_on = statistics.median(on)
    med_off = statistics.median(off)
    spread = _iqr(off)
    overhead = 100.0 * (med_on - med_off) / med_off
    slower = sum(t_on > t_off for t_on, t_off in zip(on, off))
    print(f"pairs              : {len(on)} (alternating); traced slower in "
          f"{slower}")
    print(f"tracing on   median: {med_on * 1000.0:8.2f} ms  "
          f"(IQR {_iqr(on) * 1000.0:.2f})")
    print(f"tracing off  median: {med_off * 1000.0:8.2f} ms  "
          f"(IQR {spread * 1000.0:.2f})")
    print(f"overhead           : {overhead:+8.2f} %  (fails in 9 of 10 "
          f"pairs, above {args.threshold:.1f} % and the untraced IQR)")
    if (10 * slower >= 9 * len(on) and overhead > args.threshold
            and med_on - med_off > spread):
        failures.append(f"traced slower in {slower} of {len(on)} pairs, median "
                        f"{overhead:+.2f} % over untraced, above "
                        f"{args.threshold:.1f} % and the untraced IQR "
                        f"({spread * 1000.0:.2f} ms)")

    if args.trace:
        obs.reset()
        obs.configure(enabled=True, sample=1.0)
        simulate(workload(), lambda n: FCFSScheduler(n), config)
        obs.write_chrome_trace(args.trace, obs.tracer().spans())
        print(f"sample trace       : {args.trace} "
              f"({len(obs.tracer())} spans)")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if failures:
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
