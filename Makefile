PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test loc api-surface ledger bench-smoke bench-oracle bench-exact bench campaign-smoke fabric-smoke crash-smoke churn-smoke integrity-smoke help

help:
	@echo "test           - tier-1 test suite (pytest -x -q)"
	@echo "loc            - src/ Python line count, gated: fails above LOC_CEILING (raise it on purpose, in the PR that needs more)"
	@echo "api-surface    - public-API snapshot check (tests/test_api_surface.py)"
	@echo "ledger         - one timed perf-ledger pass: make ledger WORKLOAD=serve_large (names in BENCHMARK.json)"
	@echo "bench-smoke    - ~5s perf subset; writes benchmarks/results/BENCH_oracle.json + BENCH_exact.json"
	@echo "bench-oracle   - full oracle perf run (greedy-SLF ladder to n=2000, live-oracle sweep)"
	@echo "bench-exact    - full exact-search perf run (past-the-cap rows, iddfs vs bnb mode, n=24 instances)"
	@echo "bench          - full pytest-benchmark experiment suite (E1-E10 tables)"
	@echo "campaign-smoke - ~1s tiny campaign (260 cells, 7 family entries, 5 schedulers)"
	@echo "fabric-smoke   - ~3s faulty 3-worker fleet (one SIGKILLed, one frozen) vs 1-worker baseline"
	@echo "crash-smoke    - ~5s coordinator SIGKILLed twice mid-campaign, the second time losing the unsynced results/timings tail; journal recovery vs 1-worker baseline"
	@echo "churn-smoke    - ~5s online-churn grid: quiescence, zero violations, same-seed determinism, planner applies per arrival"
	@echo "integrity-smoke - ~3s hostile fleet (liar + corruptor + OOM cell + poison cell) vs 1-worker baseline"

test:
	$(PYTHON) -m pytest -x -q

# The src/ line count of the last PR that moved it on purpose.
LOC_CEILING := 21944

loc:
	@lines=$$(find src -name '*.py' | xargs cat | wc -l); \
	echo "src/ python lines: $$lines"; \
	cat src/repro/campaign/fabric/*.py | wc -l | xargs echo "  of which campaign/fabric/:"; \
	test $$lines -le $(LOC_CEILING) \
		|| { echo "src/ is over LOC_CEILING = $(LOC_CEILING) (Makefile)"; exit 1; }

api-surface:
	$(PYTHON) -m pytest tests/test_api_surface.py -q

WORKLOAD ?= serve_large

ledger:
	$(PYTHON) benchmarks/ledger/run.py --workload $(WORKLOAD) --seed 1 --seconds 10 --trace 0

bench-smoke:
	$(PYTHON) benchmarks/run_smoke.py

bench-oracle:
	$(PYTHON) benchmarks/bench_perf_oracle.py

bench-exact:
	$(PYTHON) benchmarks/bench_perf_exact.py

bench:
	$(PYTHON) -m pytest benchmarks -q -o python_files="bench_*.py" -o python_functions="test_*"

campaign-smoke:
	$(PYTHON) -m repro campaign run examples/specs/smoke.json -j 4

fabric-smoke:
	$(PYTHON) benchmarks/run_fabric_smoke.py

crash-smoke:
	$(PYTHON) benchmarks/run_crash_smoke.py

churn-smoke:
	$(PYTHON) benchmarks/run_churn_smoke.py

integrity-smoke:
	$(PYTHON) benchmarks/run_integrity_smoke.py
