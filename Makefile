PYTHON ?= python

.PHONY: check test bench-perf bench-perf-smoke

# The gate: tier-1 tests, the bench-side smokes, the crash checker.
check:
	sh scripts/check.sh

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Full macro perf run; appends an entry to BENCH_perf.json.
bench-perf:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_trajectory.py

bench-perf-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_trajectory.py --smoke --no-append
