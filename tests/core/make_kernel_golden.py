"""Regenerate the allocation-kernel bit-identity fixture (``golden_kernels.json``).

The fixture pins the exact float output of the allocation kernels, the
four paper metrics and the service's response bodies, as ``float.hex``
strings so that ``-0.0`` and ``0.0`` count as different:

* ``scheme_by_name(s).allocate`` for the seven service schemes, with
  and without work conservation, at n = 1..16, 33 and 130 apps;
* :func:`~repro.core.batch.batch_allocate` and
  :func:`~repro.core.batch.batch_solve_fractional_knapsack` on stacks
  of 1 to 9 rows;
* :func:`~repro.core.knapsack.solve_fractional_knapsack`;
* Hsp, Wsp, IPCsum and MinF through the ``Metric`` call protocol;
* whole ``partition_response`` bodies for groups of 1 to 9 analytic
  requests, on both sides of the service's 32-number row-kernel cut,
  and ``qos_response`` bodies.

Inputs come from stdlib ``random.Random`` streams, which are stable
across Python and numpy versions.  Two results also depend on the host's
numpy build: the power weights of ``twothirds`` and ``nopart`` (numpy's
SIMD ``pow`` is not libm's) and the scalar knapsack objective (a BLAS
``np.dot``).  :func:`host_fingerprint` digests both, and the test
compares those cases only on a host that reproduces the digests.

The fixture was generated from the numpy kernels the float row kernels
replaced.  Run from the repo root to regenerate, only after an
intentional behaviour change::

    PYTHONPATH=src python tests/core/make_kernel_golden.py
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import random
from typing import Callable

import numpy as np

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_kernels.json"

SCHEMES = ("equal", "prop", "sqrt", "twothirds", "prio_apc", "prio_api", "nopart")
#: schemes whose shares use numpy's inexact ``pow`` (alpha not 0, 1/2 or 1)
POW_SCHEMES = ("twothirds", "nopart")
SIZES = (*range(1, 17), 33, 130)
#: (rows, apps): 1 and 2 rows, and stacks of up to 9 rows
STACKS = ((1, 4), (1, 8), (2, 4), (2, 16), (2, 17), (4, 8), (5, 8), (8, 4),
          (9, 4), (3, 11), (1, 33))
#: (apps, requests) per analytic partition group: 8 x 4 apps sits at
#: the cut, 9 x 4 and 5 x 8 above it
PARTITION_GROUPS = ((1, 1), (1, 2), (2, 1), (2, 2), (4, 1), (4, 2), (4, 8),
                    (4, 9), (8, 1), (8, 2), (8, 5), (16, 1), (16, 2), (33, 1))


def _hex(obj):
    """``obj`` with every float replaced by its ``float.hex``."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, np.ndarray):
        return _hex(obj.tolist())
    if isinstance(obj, np.generic):
        return _hex(obj.item())
    if isinstance(obj, dict):
        return {str(k): _hex(v) for k, v in obj.items()}
    return [_hex(v) for v in obj]


def _workload_draw(rng: random.Random, n: int, draw: int):
    """``(apc_alone, api, bandwidth)``: draw 1 ties every APC_alone."""
    apc = [rng.uniform(1e-4, 0.02) for _ in range(n)]
    if draw == 1:
        apc = [apc[0]] * n
    api = [rng.uniform(1e-3, 0.08) for _ in range(n)]
    # from heavily oversubscribed to every demand met
    total = math.fsum(apc)
    return apc, api, total * rng.uniform(0.1, 1.5)


def _workload(apc, api):
    from repro.core import AppProfile, Workload

    return Workload.of(
        "golden",
        [AppProfile(f"a{j}", api=api[j], apc_alone=apc[j]) for j in range(len(apc))],
    )


def _allocate_cases(cases: dict) -> None:
    from repro.core import scheme_by_name

    for scheme in SCHEMES:
        for wc in (True, False):
            for n in SIZES:
                for draw in (0, 1) if n <= 16 else (0,):
                    rng = random.Random(f"allocate/{scheme}/{wc}/{n}/{draw}")
                    apc, api, b = _workload_draw(rng, n, draw)

                    def run(apc=apc, api=api, b=b, scheme=scheme, wc=wc):
                        solver = scheme_by_name(scheme)
                        return solver.allocate(_workload(apc, api), b, work_conserving=wc)

                    cases[f"allocate/{scheme}/wc={wc}/n={n}/d={draw}"] = run


def _batch_cases(cases: dict) -> None:
    from repro.core.batch import batch_allocate, batch_solve_fractional_knapsack

    for k, n in STACKS:
        rows = [
            _workload_draw(random.Random(f"batch/{k}/{n}/{i}"), n, 0) for i in range(k)
        ]
        apc = np.array([r[0] for r in rows])
        api = np.array([r[1] for r in rows])
        b = np.array([r[2] for r in rows])
        for scheme in SCHEMES:
            for wc in (True, False):
                cases[f"batch/{scheme}/wc={wc}/k={k}/n={n}"] = (
                    lambda scheme=scheme, wc=wc, apc=apc, api=api, b=b: batch_allocate(
                        scheme, apc, b, api=api, work_conserving=wc
                    )
                )

        def knapsack(apc=apc, api=api, b=b):
            sol = batch_solve_fractional_knapsack(1.0 / api, apc, b)
            return [sol.quantities, sol.objective, sol.fill_order, sol.split_item]

        cases[f"batch/knapsack/k={k}/n={n}"] = knapsack


def _knapsack_draw(rng: random.Random, n: int, draw: int):
    values = [rng.uniform(0.1, 5.0) for _ in range(n)]
    if draw == 2:
        values = [values[0]] * n  # ties fill in index order
    caps = [rng.uniform(0.0, 2.0) for _ in range(n)]
    if n > 1 and draw == 3:
        caps[rng.randrange(n)] = 0.0  # an item that holds nothing
    budget = (0.0, math.fsum(caps) * 0.6, math.fsum(caps) * 1.3, 1.0)[draw]
    return values, caps, budget


def _knapsack_cases(cases: dict) -> None:
    from repro.core import solve_fractional_knapsack

    for n in SIZES:
        for draw in range(4):
            v, cap, budget = _knapsack_draw(random.Random(f"knapsack/{n}/{draw}"), n, draw)

            def run(v=v, cap=cap, budget=budget):
                sol = solve_fractional_knapsack(np.array(v), np.array(cap), budget)
                return [sol.quantities, sol.fill_order, sol.split_item]

            def objective(v=v, cap=cap, budget=budget):
                return solve_fractional_knapsack(np.array(v), np.array(cap), budget).objective

            cases[f"knapsack/n={n}/d={draw}"] = run
            cases[f"knapsack-objective/n={n}/d={draw}"] = objective


def _metric_cases(cases: dict) -> None:
    from repro.core.metrics import metric_by_name

    for n in SIZES:
        for draw in range(6):
            rng = random.Random(f"metrics/{n}/{draw}")
            alone = [rng.uniform(0.05, 3.0) for _ in range(n)]
            shared = [a * rng.uniform(0.01, 1.0) for a in alone]
            if draw == 1:
                shared[rng.randrange(n)] = 0.0  # a starved app
            if draw == 2:
                shared = list(alone)  # everyone at standalone speed
            if draw == 3:
                shared = [s * 1e-300 for s in shared]  # subnormal speedups
            if draw >= 4:
                # a standalone IPC that underflowed to zero: x / 0 is inf,
                # and 0 / 0 (the app starved too, draw 5) is NaN
                i = rng.randrange(n)
                alone[i] = 0.0
                if draw == 5:
                    shared[i] = 0.0

            def run(shared=shared, alone=alone):
                with np.errstate(divide="ignore", invalid="ignore"):
                    return [
                        metric_by_name(m)(np.array(shared), np.array(alone))
                        for m in ("hsp", "minf", "wsp", "ipcsum")
                    ]

            cases[f"metrics/n={n}/d={draw}"] = run


def _partition_payload(rng: random.Random, scheme: str, wc: bool, n: int) -> dict:
    apc, api, b = _workload_draw(rng, n, 0)
    return {
        "scheme": scheme,
        "apc_alone": apc,
        "api": api,
        "bandwidth": b,
        "work_conserving": wc,
    }


def _partition_cases(cases: dict) -> None:
    from repro.service.batching import solve_partition_rows
    from repro.service.protocol import parse_partition_request, partition_response

    for scheme in SCHEMES:
        for wc in (True, False):
            for n, group in PARTITION_GROUPS:
                rng = random.Random(f"partition/{scheme}/{wc}/{n}/{group}")
                payloads = [
                    _partition_payload(rng, scheme, wc, n) for _ in range(group)
                ]

                def run(payloads=payloads):
                    reqs = [parse_partition_request(p) for p in payloads]
                    rows = solve_partition_rows(reqs)
                    return [
                        partition_response(r, row, batch_size=len(reqs))
                        for r, row in zip(reqs, rows)
                    ]

                cases[f"partition/{scheme}/wc={wc}/n={n}/g={group}"] = run


def _qos_cases(cases: dict) -> None:
    from repro.service.batching import solve_qos_rows
    from repro.service.protocol import parse_qos_request, qos_response
    from repro.util.errors import InfeasibleError

    for objective in ("hsp", "minf", "wsp", "ipcsum"):
        for n in (2, 4, 8, 16):
            for draw in range(3):
                rng = random.Random(f"qos/{objective}/{n}/{draw}")
                apc, api, b = _workload_draw(rng, n, 0)
                guarded = [i for i in range(n) if rng.random() < 0.3] or [0]
                # draw 2 asks for more than every app's standalone IPC
                scale = 1.5 if draw == 2 else 0.3
                payload = {
                    "apc_alone": apc,
                    "api": api,
                    "bandwidth": b,
                    "objective": objective,
                    "targets": [
                        {"app": i, "ipc_target": apc[i] / api[i] * scale} for i in guarded
                    ],
                }

                def run(payload=payload):
                    req = parse_qos_request(payload)
                    try:
                        return qos_response(req, solve_qos_rows([req])[0])
                    except InfeasibleError:
                        return "infeasible"

                cases[f"qos/{objective}/n={n}/d={draw}"] = run


def golden_cases() -> dict[str, Callable[[], object]]:
    """Case name -> zero-argument callable returning the case's outputs."""
    cases: dict[str, Callable[[], object]] = {}
    _allocate_cases(cases)
    _batch_cases(cases)
    _knapsack_cases(cases)
    _metric_cases(cases)
    _partition_cases(cases)
    _qos_cases(cases)
    return cases


def host_dependence(name: str) -> str | None:
    """``"pow"`` or ``"dot"`` when a case's output depends on the numpy build."""
    if name.startswith("knapsack-objective/"):
        return "dot"
    if any(part in POW_SCHEMES for part in name.split("/")):
        return "pow"
    return None


def host_fingerprint() -> dict[str, str]:
    """Digests of this host's numpy ``pow`` (alpha 2/3, 1.3) and ``np.dot``."""
    rng = random.Random("host")
    probe = np.array([rng.uniform(1e-5, 0.05) for _ in range(4096)])
    pow_digest = hashlib.sha256(
        b"".join((probe ** alpha).tobytes() for alpha in (2.0 / 3.0, 1.3))
    ).hexdigest()
    dots = [float(np.dot(probe[:n], probe[n : 2 * n])).hex() for n in range(1, 200)]
    dot_digest = hashlib.sha256(" ".join(dots).encode()).hexdigest()
    return {"pow": pow_digest, "dot": dot_digest}


def record(fn: Callable[[], object]) -> object:
    return _hex(fn())


def main() -> None:
    cases = {name: record(fn) for name, fn in golden_cases().items()}
    # one case per line, so a regenerated fixture diffs by case
    lines = [
        f"{json.dumps(name)}:{json.dumps(value, separators=(',', ':'))}"
        for name, value in sorted(cases.items())
    ]
    host = json.dumps(host_fingerprint(), sort_keys=True)
    GOLDEN_PATH.write_text(
        f'{{"host":{host},\n"cases":{{\n' + ",\n".join(lines) + "}}\n"
    )
    print(f"wrote {GOLDEN_PATH} ({len(cases)} cases)")


if __name__ == "__main__":
    main()
