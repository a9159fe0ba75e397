"""Cost-aware DAG execution for compiled sweep plans.

Executes the task DAG :mod:`repro.experiments.plan` compiles:

* a **persistent worker pool** (forkserver start method by default --
  workers import :mod:`repro` once and are reused across every phase
  and exhibit of a sweep, instead of a fresh fork per ``pool.map``);
* **cost-aware work stealing**: ready tasks are enqueued
  longest-expected-first and idle workers pull from the shared queue,
  the classic LPT greedy schedule.  Expected costs come from a
  per-digest :class:`CostModel` learned from previous runs' worker span
  timings and persisted next to the :class:`~repro.util.cache.SimCache`
  (``cost_model.json``) -- so the second sweep schedules the long lbm
  simulations first and the stragglers disappear.  Tasks unblocked
  mid-flight (profile -> run edges) are injected into the live queue
  and picked up ("stolen") by whichever worker idles first, counted by
  the ``plan.steals`` counter;
* **shared-memory result transport**: a worker packs each simulation's
  numeric payload into one ``multiprocessing.shared_memory`` block and
  returns only the block name + shape metadata; the parent maps the
  block and scatters *views* of it (zero-copy) back into each
  experiment's grid.  ``REPRO_NO_SHM`` (or any failure to create a
  segment) falls back to plain pickling -- the transport is an
  accelerator, never a correctness dependency.

The worker entry points (``profile_task`` / ``run_task`` /
``heuristic_task``) rebuild each simulation from a small picklable
description, ``run_task`` through the serial ``Runner``'s
scheme-to-scheduler wiring, so planned results are bit-identical to the
serial ``Runner`` -- asserted by the test-suite.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing
import os
import pathlib
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.util.cache import SimCache, atomic_write_json, default_cache_dir
from repro.util.errors import ConfigurationError

__all__ = [
    "resolve_workers",
    "CostModel",
    "ShmKeeper",
    "Dispatcher",
    "DispatchStats",
    "PlanResults",
    "get_dispatcher",
    "shutdown_dispatchers",
    "execute_plan",
    "profile_task",
    "run_task",
    "task_worker",
]

#: worker-span names per task kind (perfbench's sweep layer table reads
#: these ``parallel.`` names)
_SPAN_NAME = {
    "profile": "parallel.profile_task",
    "run": "parallel.run_task",
    "heuristic": "parallel.heuristic_task",
    "sprofile": "parallel.sprofile_task",
    "srun": "parallel.srun_task",
}


def resolve_workers(cli_value: int | None) -> int | None:
    """Worker count from the CLI flag, else ``REPRO_WORKERS``, else None
    (meaning: let the pool pick, i.e. all CPU cores)."""
    if cli_value is not None:
        if cli_value < 1:
            raise ConfigurationError("--workers must be >= 1")
        return cli_value
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
        if value < 1:
            raise ConfigurationError("REPRO_WORKERS must be >= 1")
        return value
    return None


# ----------------------------------------------------------------------
# cost model: per-digest expected runtimes, persisted beside the SimCache
# ----------------------------------------------------------------------
COST_MODEL_FILENAME = "cost_model.json"

#: cold-start priors (seconds) when a kind has never been observed
_DEFAULT_KIND_COST = {
    "profile": 0.5,
    "run": 1.0,
    "heuristic": 1.0,
    "sprofile": 0.5,
    "srun": 1.0,
}
#: surrogate sweep kinds warm-start from the analogous benchmark kind's
#: learned mean: an sprofile is an alone-mode run, an srun a shared-mode
#: run, just over synthetic apps.  Without the alias the first sweep
#: wave would see one flat prior for every task and the LPT dispatch
#: would degenerate to FIFO.
_KIND_ALIAS = {"sprofile": "profile", "srun": "run"}
#: EMA smoothing for repeat observations of the same digest
_EMA_ALPHA = 0.5


class CostModel:
    """Expected runtime per task digest, learned from span timings.

    Estimates fall back from exact digest history, to the per-kind
    running mean (scaled by ``copies`` -- an 8/16-core run costs
    proportionally more events than a 4-core one), to a static prior.
    Persistence honours ``REPRO_NO_CACHE`` and is crash/concurrency
    safe: saves merge with whatever is on disk and write atomically, so
    two concurrent sweeps at worst lose each other's newest EMAs.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.enabled = not os.environ.get("REPRO_NO_CACHE")
        self.path = (
            pathlib.Path(path)
            if path is not None
            else default_cache_dir() / COST_MODEL_FILENAME
        )
        self._by_digest: dict[str, float] = {}
        self._by_kind: dict[str, float] = {}
        self._dirty = False
        self.load()

    def load(self) -> None:
        if not self.enabled:
            return
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
            self._by_digest = {
                str(k): float(v) for k, v in data.get("digests", {}).items()
            }
            self._by_kind = {
                str(k): float(v) for k, v in data.get("kinds", {}).items()
            }
        except (OSError, ValueError, AttributeError):
            pass

    def estimate(self, task) -> float:
        """Expected seconds for one :class:`~repro.experiments.plan.SimTask`."""
        known = self._by_digest.get(task.digest)
        if known is not None:
            return known
        base = self._by_kind.get(task.kind)
        if base is None:
            alias = _KIND_ALIAS.get(task.kind)
            if alias is not None:
                base = self._by_kind.get(alias)
        if base is None:
            base = _DEFAULT_KIND_COST.get(task.kind, 1.0)
        weight = getattr(task.point, "cost_weight", None)
        if weight is None:
            weight = getattr(task.point, "copies", 1)
        return base * weight

    def observe(self, digest: str, kind: str, seconds: float) -> None:
        prev = self._by_digest.get(digest)
        self._by_digest[digest] = (
            seconds
            if prev is None
            else (1.0 - _EMA_ALPHA) * prev + _EMA_ALPHA * seconds
        )
        kprev = self._by_kind.get(kind)
        self._by_kind[kind] = (
            seconds if kprev is None else 0.9 * kprev + 0.1 * seconds
        )
        self._dirty = True

    def save(self) -> bool:
        """Merge-and-persist; returns whether a write happened."""
        if not (self.enabled and self._dirty):
            return False
        merged_digests = dict(self._by_digest)
        merged_kinds = dict(self._by_kind)
        try:
            disk = json.loads(self.path.read_text(encoding="utf-8"))
            # our fresh observations win; foreign digests are kept
            merged_digests = {**disk.get("digests", {}), **merged_digests}
            merged_kinds = {**disk.get("kinds", {}), **merged_kinds}
        except (OSError, ValueError, AttributeError):
            pass
        ok = atomic_write_json(
            self.path, {"digests": merged_digests, "kinds": merged_kinds}
        )
        if ok:
            self._dirty = False
        return ok


# ----------------------------------------------------------------------
# shared-memory result transport
# ----------------------------------------------------------------------
#: per-app numeric fields, in block column order
_APP_FIELDS = (
    "instructions",
    "accesses",
    "reads",
    "writes",
    "window_cycles",
    "mean_latency",
    "interference_cycles",
    "apc_alone_est",
)
_APP_INT_FIELDS = frozenset({"accesses", "reads", "writes"})


def _shm_enabled() -> bool:
    if os.environ.get("REPRO_NO_SHM"):
        return False
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - all CPython >= 3.8 have it
        return False
    return True


def _shm_export(block: np.ndarray) -> str | None:
    """Worker side: copy ``block`` into a fresh segment, hand ownership
    to the parent (the worker unregisters it from its resource tracker
    so the parent controls the unlink)."""
    try:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=block.nbytes)
        np.ndarray(block.shape, dtype=np.float64, buffer=shm.buf)[:] = block
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except (ImportError, AttributeError, OSError):
            # best-effort interop with a private CPython API; the parent
            # unlinks on attach either way, so a failure here only means
            # the worker's tracker logs a spurious leak warning
            pass
        name = shm.name
        shm.close()
        return name
    except (OSError, ValueError):
        # /dev/shm full or segment creation refused: fall back to the
        # pickle transport by reporting "no segment"
        return None


#: mappings parked for the life of the process -- unmapping a segment
#: while a numpy view still points into it is a segfault, not an
#: exception (numpy's buffer hold does not stop ``mmap.close``), so
#: released keepers move their mappings here instead of closing them.
#: The names are already unlinked; the OS reclaims the pages at exit.
_GRAVEYARD: list = []


class ShmKeeper:
    """Parent-side owner of attached segments.

    Unpacked results hold zero-copy numpy *views* into these segments.
    The segment *name* is unlinked immediately on attach (the worker
    already dropped its mapping, so the parent's mapping is the only
    thing keeping the memory alive -- nothing can leak into
    ``/dev/shm`` even on a hard kill).  :meth:`close` therefore only
    transfers the mappings to a process-lifetime graveyard; actually
    unmapping under live views would be unsafe, and each block is a
    few hundred bytes per simulated app, so pinning them is cheap.
    """

    def __init__(self) -> None:
        self._segments: list = []

    def attach(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # track= is 3.13+; earlier attaches don't track
            shm = shared_memory.SharedMemory(name=name)
        try:
            shm.unlink()
        except OSError:
            pass  # racing unlink already removed the name; ownership is ours
        self._segments.append(shm)
        return np.ndarray(shape, dtype=np.float64, buffer=shm.buf)

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    def close(self) -> None:
        _GRAVEYARD.extend(self._segments)
        self._segments = []

    def __del__(self) -> None:  # pragma: no cover - GC order dependent
        try:
            self.close()
        except Exception:  # reprolint: disable=exc-broad
            pass  # __del__ must never raise, least of all at interpreter exit


def _sim_meta(sim) -> dict:
    return {
        "names": sim.names,
        "window_cycles": sim.window_cycles,
        "bus_utilization": sim.bus_utilization,
        "row_hit_rate": sim.row_hit_rate,
        "scheduler_name": sim.scheduler_name,
        "dram_name": sim.dram_name,
        "seed": sim.seed,
        "warmup_cycles": sim.warmup_cycles,
        "extra": sim.extra,
    }


def _sim_block(sim) -> np.ndarray:
    block = np.empty((sim.n, len(_APP_FIELDS)), dtype=np.float64)
    for i, app in enumerate(sim.apps):
        for j, f in enumerate(_APP_FIELDS):
            block[i, j] = getattr(app, f)
    return block


def _rebuild_sim(block: np.ndarray, meta: dict):
    from repro.sim.stats import AppWindowResult, SimResult

    apps = []
    for i, app_name in enumerate(meta["names"]):
        kwargs = {}
        for j, f in enumerate(_APP_FIELDS):
            v = block[i, j]
            kwargs[f] = int(v) if f in _APP_INT_FIELDS else float(v)
        apps.append(AppWindowResult(name=app_name, **kwargs))
    return SimResult(
        apps=tuple(apps),
        window_cycles=meta["window_cycles"],
        bus_utilization=meta["bus_utilization"],
        row_hit_rate=meta["row_hit_rate"],
        scheduler_name=meta["scheduler_name"],
        dram_name=meta["dram_name"],
        seed=meta["seed"],
        warmup_cycles=meta["warmup_cycles"],
        extra=dict(meta["extra"]),
    )


def pack_scheme_run(run) -> tuple:
    """Worker side: SchemeRun -> ("shm", ...) | ("pickle", run)."""
    if not _shm_enabled():
        return ("pickle", run)
    sim = run.sim
    block = np.concatenate(
        [
            _sim_block(sim),
            np.asarray(run.ipc_alone, dtype=np.float64).reshape(-1, 1),
            np.asarray(run.apc_alone, dtype=np.float64).reshape(-1, 1),
        ],
        axis=1,
    )
    name = _shm_export(block)
    if name is None:
        return ("pickle", run)
    meta = _sim_meta(sim)
    meta.update(mix=run.mix, scheme=run.scheme, shape=block.shape)
    return ("shm", (name, meta))


def unpack_scheme_run(payload: tuple, keeper: ShmKeeper):
    tag, data = payload
    if tag == "pickle":
        return data
    name, meta = data
    block = keeper.attach(name, tuple(meta["shape"]))
    sim = _rebuild_sim(block[:, : len(_APP_FIELDS)], meta)
    from repro.experiments.runner import SchemeRun

    # the alone vectors are zero-copy views into the shared block
    return SchemeRun(
        mix=meta["mix"],
        scheme=meta["scheme"],
        sim=sim,
        ipc_alone=block[:, -2],
        apc_alone=block[:, -1],
    )


def pack_sim_result(sim) -> tuple:
    """Worker side: bare SimResult (heuristic tasks) -> transport payload."""
    if not _shm_enabled():
        return ("pickle", sim)
    block = _sim_block(sim)
    name = _shm_export(block)
    if name is None:
        return ("pickle", sim)
    meta = _sim_meta(sim)
    meta["shape"] = block.shape
    return ("shm", (name, meta))


def unpack_sim_result(payload: tuple, keeper: ShmKeeper):
    tag, data = payload
    if tag == "pickle":
        return data
    name, meta = data
    block = keeper.attach(name, tuple(meta["shape"]))
    return _rebuild_sim(block, meta)


# ----------------------------------------------------------------------
# worker entry points (module-level so they pickle under forkserver)
# ----------------------------------------------------------------------
def _worker_init() -> None:
    """Drop any span state so the first task ships a clean trace."""
    obs.tracer().clear()


def profile_task(args):
    """Alone-run one benchmark: (name, config) -> (name, apc_alone,
    ipc_alone)."""
    bench_name, config = args
    from repro.sim.engine import simulate
    from repro.sim.mc.fcfs import FCFSScheduler
    from repro.workloads.spec import benchmark

    spec = benchmark(bench_name).core_spec()
    result = simulate([spec], lambda n: FCFSScheduler(n), config)
    app = result.apps[0]
    return bench_name, app.apc, app.ipc


def run_task(args):
    """Run one (mix, scheme, copies) simulation from its alone table:
    (mix, scheme, copies, config, {bench: (apc, ipc)}) ->
    ((mix, scheme, copies), SchemeRun)."""
    mix, scheme_name, copies, config, alone_table = args
    from repro.core.apps import AppProfile, Workload
    from repro.experiments.runner import Runner, SchemeRun
    from repro.sim.engine import simulate
    from repro.workloads.mixes import mix_core_specs

    specs = mix_core_specs(mix, copies)
    profiles = Workload.of(
        mix,
        [
            AppProfile(
                s.name,
                api=s.api,
                apc_alone=alone_table[s.name.split("#")[0]][0],
            )
            for s in specs
        ],
    )
    ipc_alone = np.array(
        [alone_table[s.name.split("#")[0]][1] for s in specs]
    )
    # reuse the serial runner's scheme->scheduler wiring
    shim = Runner(config)
    factory = shim.scheduler_factory(scheme_name, profiles)
    sim = simulate(specs, factory, config)
    run = SchemeRun(
        mix=mix,
        scheme=scheme_name,
        sim=sim,
        ipc_alone=ipc_alone,
        apc_alone=profiles.apc_alone,
    )
    return (mix, scheme_name, copies), run


def heuristic_task(args):
    """Run one heuristic-scheduler simulation (PAR-BS / TCM)."""
    mix, sched_name, copies, config = args
    from repro.experiments.extension import HEURISTIC_FACTORIES
    from repro.sim.engine import simulate
    from repro.workloads.mixes import mix_core_specs

    specs = mix_core_specs(mix, copies)
    return simulate(specs, HEURISTIC_FACTORIES[sched_name], config)


def _task_attrs(kind: str, payload) -> dict:
    if kind == "profile":
        return {"bench": payload[0]}
    if kind == "run":
        return {"mix": payload[0], "scheme": payload[1]}
    if kind == "sprofile":
        return {"bench": payload[0].name}
    if kind == "srun":
        return {"scheme": payload[1], "apps": len(payload[0])}
    return {"mix": payload[0], "scheduler": payload[1]}


def task_worker(args):
    """Generic DAG worker: (digest, kind, payload, parent_span_id) ->
    (digest, kind, packed_result, worker_spans, duration_s)."""
    digest, kind, payload, parent_id = args
    t0 = time.perf_counter()
    with obs.span(
        _SPAN_NAME[kind], attrs=_task_attrs(kind, payload), parent_id=parent_id
    ):
        if kind == "profile":
            result = ("raw", profile_task(payload))
        elif kind == "run":
            _key, run = run_task(payload)
            result = pack_scheme_run(run)
        elif kind == "heuristic":
            result = pack_sim_result(heuristic_task(payload))
        elif kind == "sprofile":
            from repro.surrogate.tasks import surrogate_profile_task

            result = ("raw", surrogate_profile_task(payload))
        elif kind == "srun":
            # srun results are small numeric dicts: the pickle transport
            # is already cheap, no shm packing needed
            from repro.surrogate.tasks import surrogate_run_task

            result = ("raw", surrogate_run_task(payload))
        else:  # pragma: no cover - defensive
            raise ConfigurationError(f"unknown task kind {kind!r}")
    return digest, kind, result, obs.tracer().drain(), time.perf_counter() - t0


# ----------------------------------------------------------------------
# the dispatcher
# ----------------------------------------------------------------------
@dataclass
class DispatchStats:
    """What one :meth:`Dispatcher.execute` call actually did."""

    workers: int = 0
    n_tasks: int = 0
    n_cache_hits: int = 0
    n_steals: int = 0
    busy_us: float = 0.0
    wall_s: float = 0.0
    n_shm_segments: int = 0

    @property
    def utilization(self) -> float:
        if self.wall_s <= 0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_us / 1e6 / (self.workers * self.wall_s))


class Dispatcher:
    """Persistent process pool executing sweep plans with LPT dispatch.

    The pool lives across :meth:`execute` calls (and, via
    :func:`get_dispatcher`, across all exhibits of one CLI invocation),
    so forkserver's per-worker import cost is paid once.  A broken pool
    (a worker killed mid-task) is rebuilt and the plan retried once.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        start_method: str | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._start_method = start_method
        self._pool: ProcessPoolExecutor | None = None
        #: digests in completion order of the last execute (test hook)
        self.last_execution_order: list[str] = []

    @property
    def workers(self) -> int:
        return self.max_workers or os.cpu_count() or 1

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            method = self._start_method or os.environ.get(
                "REPRO_MP_START", "forkserver"
            )
            try:
                ctx = multiprocessing.get_context(method)
            except ValueError:
                ctx = multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=ctx,
                initializer=_worker_init,
            )
        return self._pool

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    # ------------------------------------------------------------------
    def _payload(self, task, results: dict):
        p = task.point
        if task.kind == "profile":
            return (p.bench, p.config)
        if task.kind == "sprofile":
            return (p.app, p.config)
        if task.kind in ("run", "srun"):
            alone_table = {
                results[dep][0]: (results[dep][1], results[dep][2])
                for dep in task.deps
            }
            if task.kind == "srun":
                return (p.apps, p.scheme, p.config, alone_table)
            return (p.mix, p.scheme, p.copies, p.config, alone_table)
        return (p.mix, p.scheduler, p.copies, p.config)

    @staticmethod
    def _unpack(kind: str, payload, keeper: ShmKeeper):
        if kind in ("profile", "sprofile", "srun"):
            return payload[1]  # ("raw", ...) transport
        if kind == "run":
            return unpack_scheme_run(payload, keeper)
        return unpack_sim_result(payload, keeper)

    def execute(
        self,
        plan,
        *,
        parent_span_id: str | None = None,
        keeper: ShmKeeper | None = None,
    ) -> tuple[dict[str, object], DispatchStats]:
        """Run every task of ``plan``; returns ({digest: result}, stats).

        Results: profile -> ``(bench, apc_alone, ipc_alone)``, run ->
        :class:`~repro.experiments.runner.SchemeRun`, heuristic ->
        :class:`~repro.sim.stats.SimResult`.
        """
        try:
            return self._execute_once(plan, parent_span_id, keeper)
        except BrokenProcessPool:
            # a worker died (OOM-killed, signalled); rebuild and retry once
            self.shutdown()
            return self._execute_once(plan, parent_span_id, keeper)

    def _execute_once(self, plan, parent_span_id, keeper):
        reg = obs.registry()
        cache = SimCache()
        cost = CostModel()
        keeper = keeper if keeper is not None else ShmKeeper()
        stats = DispatchStats(workers=self.workers)
        results: dict[str, object] = {}
        self.last_execution_order = []
        t_start = time.perf_counter()

        # 1. persistent-cache pass: disk-cached profiles (and surrogate
        # sweep results, which are plain JSON dicts) skip the pool
        from repro.surrogate.tasks import SRUN_SCHEMA_VERSION

        remaining: dict[str, object] = {}
        for digest, task in plan.tasks.items():
            if task.kind in ("profile", "sprofile"):
                stored = cache.get(digest)
                if (
                    stored is not None
                    and "apc_alone" in stored
                    and "ipc_alone" in stored
                ):
                    name = (
                        task.point.bench
                        if task.kind == "profile"
                        else task.point.app.name
                    )
                    results[digest] = (
                        name,
                        float(stored["apc_alone"]),
                        float(stored["ipc_alone"]),
                    )
                    stats.n_cache_hits += 1
                    continue
            elif task.kind == "srun":
                stored = cache.get(digest)
                if (
                    stored is not None
                    and stored.get("schema_version") == SRUN_SCHEMA_VERSION
                    and isinstance(stored.get("samples"), list)
                ):
                    results[digest] = stored
                    stats.n_cache_hits += 1
                    continue
            remaining[digest] = task
        if stats.n_cache_hits:
            reg.counter("plan.cache_hits").inc(stats.n_cache_hits)

        # 2. dependency bookkeeping over the tasks that must execute
        n_deps: dict[str, int] = {}
        dependents: dict[str, list[str]] = {}
        for digest, task in remaining.items():
            open_deps = [d for d in task.deps if d not in results]
            n_deps[digest] = len(open_deps)
            for dep in open_deps:
                dependents.setdefault(dep, []).append(digest)

        pool = self._ensure_pool()
        futures: dict = {}

        def submit(digests, *, initial: bool) -> None:
            # longest-expected-first: the shared queue is ordered so an
            # idle worker always steals the costliest ready task
            with obs.span(
                "plan.wave",
                attrs={"submitted": len(digests), "initial": initial},
                parent_id=parent_span_id,
            ):
                ordered = sorted(
                    digests, key=lambda d: -cost.estimate(remaining[d])
                )
                for digest in ordered:
                    args = (
                        digest,
                        remaining[digest].kind,
                        self._payload(remaining[digest], results),
                        parent_span_id,
                    )
                    futures[pool.submit(task_worker, args)] = digest
                    if not initial:
                        stats.n_steals += 1
            if not initial and digests:
                reg.counter("plan.steals").inc(len(digests))

        submit(
            [d for d, n in n_deps.items() if n == 0], initial=True
        )

        # 3. drain completions, releasing dependents as they unblock
        while futures:
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            newly_ready: list[str] = []
            for fut in done:
                digest = futures.pop(fut)
                r_digest, kind, packed, spans, dur = fut.result()
                obs.tracer().ingest(spans)
                stats.busy_us += sum(
                    s.dur_us for s in spans if s.name == _SPAN_NAME[kind]
                )
                cost.observe(r_digest, kind, dur)
                result = self._unpack(kind, packed, keeper)
                if kind == "run" and packed[0] == "shm":
                    stats.n_shm_segments += 1
                elif kind == "heuristic" and packed[0] == "shm":
                    stats.n_shm_segments += 1
                results[r_digest] = result
                self.last_execution_order.append(r_digest)
                stats.n_tasks += 1
                if kind in ("profile", "sprofile"):
                    _name, apc, ipc = result
                    cache.put(
                        r_digest, {"apc_alone": apc, "ipc_alone": ipc}
                    )
                elif kind == "srun":
                    cache.put(r_digest, result)
                for dep_digest in dependents.get(r_digest, ()):
                    n_deps[dep_digest] -= 1
                    if n_deps[dep_digest] == 0:
                        newly_ready.append(dep_digest)
            if newly_ready:
                submit(newly_ready, initial=False)

        stats.wall_s = time.perf_counter() - t_start
        cost.save()
        reg.counter("parallel.tasks").inc(stats.n_tasks)
        reg.gauge("parallel.workers").set(stats.workers)
        reg.gauge("parallel.dedup_ratio").set(plan.dedup_ratio)
        if stats.utilization > 0:
            reg.gauge("parallel.worker_utilization").set(stats.utilization)
        return results, stats


# ----------------------------------------------------------------------
# shared dispatcher registry (one persistent pool per worker count)
# ----------------------------------------------------------------------
_DISPATCHERS: dict[tuple, Dispatcher] = {}


def get_dispatcher(max_workers: int | None = None) -> Dispatcher:
    """The process-wide shared dispatcher for this worker count."""
    key = (max_workers,)
    disp = _DISPATCHERS.get(key)
    if disp is None:
        disp = Dispatcher(max_workers)
        _DISPATCHERS[key] = disp
    return disp


def shutdown_dispatchers() -> None:
    for disp in _DISPATCHERS.values():
        disp.shutdown()
    _DISPATCHERS.clear()


atexit.register(shutdown_dispatchers)


# ----------------------------------------------------------------------
# plan execution front door
# ----------------------------------------------------------------------
@dataclass
class PlanResults:
    """Executed plan: results by digest + scatter helpers.

    Hold on to this object while using the scattered results -- run
    results may be zero-copy views into shared-memory segments owned by
    ``keeper``; :meth:`close` unlinks them when done.
    """

    plan: object
    results: dict[str, object]
    keeper: ShmKeeper
    stats: DispatchStats = field(default_factory=DispatchStats)

    def runner(self, config, **runner_kwargs):
        """A :class:`~repro.experiments.runner.Runner` pre-warmed with
        every planned result at ``config`` -- exhibits assembled from it
        perform only their residual (dependent) simulations."""
        from repro.experiments.runner import Runner

        runner = Runner(config, **runner_kwargs)
        for digest, task in self.plan.tasks.items():
            if task.point.config != config or digest not in self.results:
                continue
            if task.kind == "profile":
                _bench, apc, ipc = self.results[digest]
                runner._alone_cache[digest] = (apc, ipc)
            elif task.kind == "run":
                p = task.point
                runner._run_cache[(p.mix, p.scheme, p.copies)] = self.results[
                    digest
                ]
        return runner

    def heuristic_sims(self, config) -> dict:
        """{(mix, scheduler, copies): SimResult} at ``config``."""
        out = {}
        for digest, task in self.plan.tasks.items():
            if (
                task.kind == "heuristic"
                and task.point.config == config
                and digest in self.results
            ):
                p = task.point
                out[(p.mix, p.scheduler, p.copies)] = self.results[digest]
        return out

    def close(self) -> None:
        self.keeper.close()


def execute_plan(plan, max_workers: int | None = None) -> PlanResults:
    """Execute a compiled sweep plan on the shared dispatcher."""
    dispatcher = get_dispatcher(max_workers)
    keeper = ShmKeeper()
    with obs.span(
        "plan.dispatch",
        attrs={"tasks": plan.n_unique, "demanded": plan.n_demanded},
    ) as phase:
        results, stats = dispatcher.execute(
            plan, parent_span_id=phase.span_id, keeper=keeper
        )
    stats.n_shm_segments = keeper.n_segments
    return PlanResults(plan=plan, results=results, keeper=keeper, stats=stats)
