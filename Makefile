# Convenience targets for the Digest reproduction.

PYTHON ?= python

.PHONY: install test bench results examples full-scale clean lint typecheck check \
	kernel-fallback perfbench-selftest bench-smoke gates

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# digest-analyzer (stdlib-only, always available) + ruff when installed.
# See docs/DEVELOPMENT.md for the DGL rule catalog (per-file DGL001/003/004/005/007/008,
# cross-module DGL009-015) and the baseline/pragma policy.
lint:
	$(PYTHON) -m tools.digest_analyzer
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests tools benchmarks examples; \
	else \
		echo "ruff not installed -- skipping (pip install ruff)"; \
	fi

typecheck:
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed -- skipping (pip install mypy)"; \
	fi

# everything CI runs, in CI's order, except the fault- and obs-overhead
# benches: they rewrite the committed BENCH_faults.json / BENCH_obs.json
check: lint typecheck test kernel-fallback perfbench-selftest bench-smoke examples gates

# the walk kernel's Python fallback: the kernel tests and the compat pins
# with no C compiler on PATH (the interpreter called by its absolute path)
kernel-fallback:
	python=$$($(PYTHON) -c 'import sys; print(sys.executable)') && \
	PYTHONPATH=src PATH=/nonexistent "$$python" -m pytest -q \
		tests/sampling/test_walker.py tests/core/test_engine_compat.py

# the benchmark harness's self-tests: a tiny run of every perfbench workload
perfbench-selftest:
	PYTHONPATH=src $(PYTHON) -m pytest perfbench/tests -q

# each micro-benchmark once, untimed, so they stay runnable
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_micro.py --benchmark-disable -q

# CI's gate steps: the traced fault, partition and SLO-audit smoke runs,
# each replaying its trace against the live counters, the multi-query
# coverage smoke (traces and JSON go to a temp dir, not the repo; each
# run exits 1 when its gate fails), and the protocol golden-trace
# equivalence
gates:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for experiment in fault_tolerance partition_tolerance slo_audit; do \
		echo "=== $$experiment --smoke"; \
		PYTHONPATH=src $(PYTHON) -m repro.experiments.$$experiment --smoke \
			--trace-out "$$tmp/$$experiment.jsonl" || exit 1; \
	done && \
	echo "=== multi_query --scale 0.05 --steps 15" && \
	PYTHONPATH=src $(PYTHON) -m repro.experiments.multi_query --scale 0.05 \
		--steps 15 --json-out "$$tmp/BENCH_multi_query.json" || exit 1
	PYTHONPATH=src $(PYTHON) -m pytest tests/protocol/test_runtime_equivalence.py -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

results: bench
	$(PYTHON) benchmarks/collect_results.py

# every example script runs to completion
examples:
	@for example in examples/*.py; do \
		echo "=== $$example"; \
		PYTHONPATH=src $(PYTHON) $$example || exit 1; \
	done

# the paper's published sizes; takes tens of minutes
full-scale: export REPRO_BENCH_SCALE=1
full-scale:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only
	$(PYTHON) benchmarks/collect_results.py

clean:
	rm -rf benchmarks/results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
