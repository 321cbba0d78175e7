# Developer entry points. `make verify` is the pre-merge gate: it runs
# the same lint / type-check / test steps as .github/workflows/ci.yml,
# but skips lint or type-check gracefully when the tool is not
# installed (offline environments carry only the runtime deps).

PYTHON ?= python
PYTEST_ARGS ?= -x -q -m "not slow"
COV_FLOOR ?= 75

.PHONY: verify lint typecheck test coverage analyze bench bench-fast \
        check-regression bench-baselines profile-eval service-smoke

verify: lint typecheck test

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks tools; \
	else \
		echo "ruff not installed - skipping lint"; \
	fi

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed - skipping type-check"; \
	fi

test:
	$(PYTHON) -m pytest tests $(PYTEST_ARGS)

# Static-analysis gates CI runs as blocking steps: the RACE5xx
# concurrency self-check over src/repro and the deep MEM4xx/MODEL4xx
# dataflow sweep over the full suite.
analyze:
	$(PYTHON) -m repro.analysis --concurrency
	$(PYTHON) -m repro.analysis --all --deep --samples 8

# Coverage with a *soft* floor: below COV_FLOOR warns but does not
# fail (tools/coverage_summary.py --hard makes it a gate). Skips
# gracefully when pytest-cov is not installed.
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHON) -m pytest tests $(PYTEST_ARGS) \
			--cov=repro --cov-report=xml --cov-report=term && \
		$(PYTHON) tools/coverage_summary.py --floor $(COV_FLOOR); \
	else \
		echo "pytest-cov not installed - skipping coverage"; \
	fi

bench:
	$(PYTHON) benchmarks/bench_throughput.py
	$(PYTHON) benchmarks/bench_record_path.py
	$(PYTHON) benchmarks/bench_strict_overhead.py
	$(PYTHON) benchmarks/bench_obs_overhead.py
	$(PYTHON) benchmarks/bench_runner_parallel.py
	$(PYTHON) benchmarks/bench_runner_scaling.py
	$(PYTHON) benchmarks/bench_search_path.py
	$(PYTHON) benchmarks/bench_static_prune.py
	$(PYTHON) benchmarks/bench_warmstart.py

# Seconds-long smoke variants: reduced budget/reps but the same
# identity and overhead gates as the full benchmarks. Every benchmark
# runs even when an earlier one fails its gate, so each root
# BENCH_*.json is fresh for check-regression; the target then exits
# non-zero naming every benchmark that failed.
bench-fast:
	@failed=""; \
	REPRO_BENCH_THROUGHPUT_FAST=1 $(PYTHON) benchmarks/bench_throughput.py || failed="$$failed bench_throughput"; \
	REPRO_BENCH_RECORD_PATH_FAST=1 $(PYTHON) benchmarks/bench_record_path.py || failed="$$failed bench_record_path"; \
	$(PYTHON) benchmarks/bench_strict_overhead.py || failed="$$failed bench_strict_overhead"; \
	REPRO_BENCH_SEARCH_FAST=1 $(PYTHON) benchmarks/bench_search_path.py || failed="$$failed bench_search_path"; \
	REPRO_BENCH_OBS_FAST=1 $(PYTHON) benchmarks/bench_obs_overhead.py || failed="$$failed bench_obs_overhead"; \
	REPRO_BENCH_SCALING_FAST=1 $(PYTHON) benchmarks/bench_runner_scaling.py || failed="$$failed bench_runner_scaling"; \
	REPRO_BENCH_PRUNE_FAST=1 $(PYTHON) benchmarks/bench_static_prune.py || failed="$$failed bench_static_prune"; \
	REPRO_BENCH_WARMSTART_FAST=1 $(PYTHON) benchmarks/bench_warmstart.py || failed="$$failed bench_warmstart"; \
	if [ -n "$$failed" ]; then echo "bench-fast: failed:$$failed" >&2; exit 1; fi

# Compare fresh bench-fast results against the committed baselines
# (benchmarks/baselines/); >20% slowdown fails. CI runs this right
# after bench-fast.
check-regression:
	$(PYTHON) benchmarks/check_regression.py

# Refresh the committed fast-mode baselines after an intentional
# performance change. Commit the result.
bench-baselines: bench-fast
	mkdir -p benchmarks/baselines
	cp BENCH_search_path.json \
	   BENCH_obs_overhead.json \
	   BENCH_runner_scaling.json \
	   BENCH_warmstart.json \
	   BENCH_eval_throughput.json \
	   BENCH_record_path.json \
	   BENCH_static_prune.json \
	   benchmarks/baselines/

# py-spy flamegraph of the evaluation hot path (run_batch + the GA
# tell path). Skips gracefully when py-spy is not installed; nightly
# CI uploads the SVG as an artifact.
profile-eval:
	$(PYTHON) tools/profile_eval.py

# End-to-end smoke of the tuning service against a real `repro serve`
# subprocess: golden fast path, worker SIGKILL + retry, cancel, and
# daemon-restart queue replay. Same script CI's service-smoke job runs.
service-smoke:
	$(PYTHON) tools/service_smoke.py
