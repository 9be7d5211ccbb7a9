# Development entry points for the repro library.

PYTHON ?= python

.PHONY: install test test-slow lint check coverage loc bench bench-all bench-pair bench-scaling \
  bench-service bench-pricing bench-tune bench-check profile profile-service report \
  artifacts examples faults-smoke service-smoke pricing-smoke tune-smoke clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The slow tier: large-workflow scale tests (marked ``slow``) that the
# default run and `make check` deselect.
test-slow:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m slow

# Lint with ruff when it is installed (config in pyproject.toml); in
# environments without it, fall back to a byte-compile pass so `make
# check` still catches syntax errors instead of failing on the tool.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
	  $(PYTHON) -m ruff check src tests benchmarks examples; \
	elif command -v ruff >/dev/null 2>&1; then \
	  ruff check src tests benchmarks examples; \
	else \
	  echo "ruff not installed; falling back to compileall"; \
	  $(PYTHON) -m compileall -q src tests benchmarks examples; \
	fi

# The full gate: lint + the tier-1 suite + the benchmark self-test
# (benchmarks/e2e, ~10 s) + the perf-regression check.
check: lint
	PYTHONPATH=src $(PYTHON) -m pytest tests/
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e -q
	$(MAKE) bench-check

# Line coverage when pytest-cov is installed; this container image
# does not bake it in, so fall back to running the suite plus a
# byte-compile pass over src so the target still proves every module
# at least parses.
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
	  PYTHONPATH=src $(PYTHON) -m pytest tests/ \
	    --cov=repro --cov-report=term-missing; \
	else \
	  echo "pytest-cov not installed; running suite + compileall instead"; \
	  PYTHONPATH=src $(PYTHON) -m pytest tests/ -q && \
	  $(PYTHON) -m compileall -q src; \
	fi

# Python line totals of src/ and tests/ (plain find + wc); a PR reports
# its net src/ delta as the difference of this figure before and after.
loc:
	@for d in src tests; do \
	  printf '%s\t' $$d; \
	  find $$d -name '*.py' -print0 | xargs -0 cat | wc -l; \
	done

# Refreshes BENCH_sweep.json (serial vs parallel sweep baseline) so
# future PRs have a perf trajectory to compare against.
bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_scheduler_performance.py --benchmark-only
	PYTHONPATH=src $(PYTHON) benchmarks/bench_sweep.py

bench-all:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# N alternating fresh-process pairs of one end-to-end workload: REF
# (default HEAD, checked out with git worktree in a temporary directory,
# removed afterwards) against this working tree; prints each side's
# wall_s, median and spread.
WORKLOAD ?= paper-sweep
REF ?= HEAD
N ?= 10
bench-pair:
	$(PYTHON) benchmarks/bench_pair.py --workload $(WORKLOAD) --ref $(REF) --pairs $(N)

# Refreshes BENCH_scaling.json: full pipeline at 1k/10k/50k tasks per
# provisioning family, with measured speedups vs the *Reference kernels.
bench-scaling:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_scaling.py

# Refreshes BENCH_service.json: the WaaS service stress run at
# 1k/5k/10k workflows (best-of-3 at 1k) plus the scan-based reference
# fleet at 1k, appended to BENCH_history.jsonl.
bench-service:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service.py

# Refreshes BENCH_pricing.json: the 120-cell market-aware pricing
# sweep (best-of-3), appended to BENCH_history.jsonl.
bench-pricing:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pricing.py

# Refreshes BENCH_tune.json: the constraint-aware autotune search
# (best-of-3), appended to BENCH_history.jsonl.
bench-tune:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_tune.py

# Perf-regression gate: re-runs the small scaling sizes and fails when
# any cell is >25% slower than the committed BENCH_scaling.json, then
# gates the parallel sweep (serial/parallel identity always; process
# speedup only on multi-core hosts, where losing to serial means the
# shard-aware dispatch regressed).
bench-check:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_scaling.py --check
	PYTHONPATH=src $(PYTHON) benchmarks/bench_sweep.py --check
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pricing.py --check
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service.py --check
	PYTHONPATH=src $(PYTHON) benchmarks/bench_tune.py --check

# cProfile one representative sweep cell plus the 50k columnar fused
# pipeline; top-25 cumulative entries go to artifacts/profile*.txt for
# before/after comparisons.
profile:
	mkdir -p artifacts
	PYTHONPATH=src $(PYTHON) benchmarks/profile_cell.py --out artifacts/profile.txt
	PYTHONPATH=src $(PYTHON) benchmarks/profile_cell.py --columnar \
	  --out artifacts/profile_columnar.txt

# cProfile one seeded multi-tenant run_service cell (the WaaS hot path
# served by the indexed fleet kernels).
profile-service:
	mkdir -p artifacts
	PYTHONPATH=src $(PYTHON) benchmarks/profile_cell.py --service \
	  --out artifacts/profile_service.txt

report:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli all

artifacts:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli export --out-dir artifacts

examples:
	@for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src $(PYTHON) $$f || exit 1; done

# Fast end-to-end check of the fault-injection pipeline: the five
# provisioning policies under a reduced fault grid, through the CLI.
faults-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli faults --quick \
	  --workflow montage --recovery retry

# Fast end-to-end check of the multi-tenant service mode: a quick
# seeded WaaS run (100 workflows, 10 tenants) through the CLI.
service-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli service --quick

# Fast end-to-end check of the spot-market pipeline: the five
# provisioning policies under a reduced price/boot grid, through the CLI.
pricing-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli pricing --quick \
	  --workflow montage

# Fast end-to-end check of the constraint-aware autotuner: a reduced
# search on montage under a deadline+budget bound, through the CLI.
tune-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli tune --quick \
	  --workflow montage --deadline 9000 --budget 15

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis \
	  benchmarks/artifacts artifacts
	find . -name __pycache__ -type d -exec rm -rf {} +
