# Convenience targets for the repro project.

PYTHON ?= python
BENCH_JSON ?= benchmarks/out/bench_current.json

.PHONY: install test properties benchmarks bench bench-compare bench-baseline \
	experiments scorecard examples serve bench-service \
	bench-service-saturation bench-obs bench-sweep bench-surrogate \
	bench-control bench-watch lint typecheck clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ -q

properties:
	$(PYTHON) -m pytest tests/properties/ -q

# domain-aware static analysis (stdlib-only; see docs/ANALYSIS.md) plus
# ruff when it is installed
lint:
	$(PYTHON) -m repro.analysis src
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src; \
	else \
		echo "lint: ruff not installed here; skipping (CI enforces it)"; \
	fi

# mypy behind the monotonic error-count ratchet (analysis/mypy_ratchet.json);
# skips with a notice when mypy is unavailable
typecheck:
	$(PYTHON) -m repro.analysis.ratchet check src/repro

benchmarks:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# engine micro-benchmarks only (fast); writes machine-readable stats
bench:
	@mkdir -p benchmarks/out
	$(PYTHON) -m pytest benchmarks/test_bench_micro.py --benchmark-only \
		--benchmark-json=$(BENCH_JSON)

# gate: fail when any micro-benchmark mean regresses >25% vs the baseline
bench-compare: bench
	$(PYTHON) benchmarks/compare_bench.py benchmarks/bench_baseline.json \
		$(BENCH_JSON)

# refresh the committed runtime baseline (run on a quiet machine)
bench-baseline:
	$(PYTHON) -m pytest benchmarks/test_bench_micro.py --benchmark-only \
		--benchmark-json=benchmarks/bench_baseline.json

# partitioning-advisor HTTP service (see docs/SERVICE.md)
serve:
	$(PYTHON) -m repro.service

# load generator: batched vs unbatched RPS + latency percentiles
bench-service:
	$(PYTHON) benchmarks/bench_service.py

# scale-out gates: open-loop ramps to the knee for 1 process vs a
# pre-fork fleet, cross-worker shared-cache hits, 429 + Retry-After
# overload sheds, and fleet-vs-single bit identity; writes top-level
# BENCH_service.json (see docs/SERVICE.md "Scaling out")
bench-service-saturation:
	$(PYTHON) benchmarks/bench_service.py --saturation --workers 4

# surrogate gates: smoke-sweep fit quality (held-out R^2 >= 0.98,
# MAPE <= 5% per scheme) and >= 50x serve-path speedup over the sim
# fallback; writes BENCH_surrogate.json (see docs/SURROGATE.md)
bench-surrogate:
	$(PYTHON) benchmarks/bench_surrogate.py

# controller gates: epoch re-solve latency <= 5 ms, phase-swap
# re-convergence <= 3 epochs (and no slower than the fixed-epoch
# baseline), oracle regret <= 5% on hsp/wsp/minf; writes
# BENCH_control.json (see docs/CONTROL.md)
bench-control:
	$(PYTHON) benchmarks/bench_control.py

# telemetry overhead gate: spans, registry writes and clock reads per
# engine run (counts), plus a median wall-clock check over alternating
# traced/untraced pairs (3% and the untraced spread, 9 of 10 pairs)
bench-obs:
	$(PYTHON) benchmarks/bench_obs.py

# watch gates: shadow-sampling at the default 5% rate keeps its counts
# (due = solves / stride = sampled + shed, at most 2 sims at once, none
# on the event loop) and is not slower by > 3% in 9 of 10 timed pairs;
# drift detector flags a perturbed surrogate artifact within 50
# requests (with auto-fallback to the sim); repro-top --once smoke;
# writes BENCH_watch.json (see docs/WATCH.md)
bench-watch:
	$(PYTHON) benchmarks/bench_watch.py

# sweep-planner gates: >=30% dedup on the full exhibit registry, and
# 2-worker DAG dispatch of a cold-cache grid within 1.5x the lower bound
# its own per-task times allow; writes benchmarks/out/BENCH_sweep.json +
# sweep_plan.json
bench-sweep:
	@mkdir -p benchmarks/out
	BENCH_OUT_DIR=benchmarks/out $(PYTHON) benchmarks/bench_sweep.py

experiments:
	$(PYTHON) -m repro.experiments all --plan

scorecard:
	$(PYTHON) -m repro.experiments scorecard

examples:
	@for f in examples/*.py; do \
		echo "=== $$f ==="; \
		$(PYTHON) $$f || exit 1; \
	done

clean:
	rm -rf benchmarks/out .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
