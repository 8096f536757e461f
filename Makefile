# Convenience targets for the Thetacrypt reproduction.

PYTHON ?= python3

.PHONY: install test test-fast bench bench-fast check recovery-smoke thetabench-smoke examples fixtures clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) tools/install_editable.py

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow and not integration"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-fast:
	REPRO_FAST=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Tier-1 gate: full test suite plus a smoke run of the microbenchmarks and
# the design ablations.  Sets PYTHONPATH so it works without `make install`.
check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/
	PYTHONPATH=src REPRO_FAST=1 $(PYTHON) -m pytest \
		benchmarks/bench_micro_primitives.py benchmarks/bench_ablations.py \
		--benchmark-disable -q

# Durability gate: a 4-node daemon cluster with per-node data_dir; node 4
# is SIGKILLed mid-protocol and restarted from disk, which must recover
# its keys, serve cached results, and abort the in-flight instance with
# the structured crash_recovery reason (docs/robustness.md); every
# daemon must then exit on SIGTERM by itself.
recovery-smoke:
	PYTHONPATH=src $(PYTHON) tools/recovery_smoke.py

# Benchmark-harness gate: thetabench's own test at --scale 0.05 (daemons,
# oracles, trace pass).  The per-layer metrics wrap library functions by
# name from outside (benchmarks/thetabench/tracing.py), so a renamed wrap
# target or a failing oracle breaks here instead of silently zeroing a
# metric (benchmarks/thetabench/README.md).
thetabench-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/thetabench/test_thetabench.py -q

examples:
	for script in examples/*.py; do echo "== $$script =="; PYTHONPATH=src $(PYTHON) $$script || exit 1; done

fixtures:
	$(PYTHON) tools/gen_rsa_fixtures.py 512 1024 2048 4096

clean:
	find . -type d -name __pycache__ -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis
