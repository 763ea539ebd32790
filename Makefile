# Plug Your Volt reproduction — common tasks.

.PHONY: install test bench vector-bench campaign explore chaos fuzz examples artifacts trace-demo profile-demo clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/ -q

bench:
	pytest benchmarks/ --benchmark-only -q

# Scalar-oracle vs vectorized sweep: byte-identity plus the recorded
# speedup (gated against benchmarks/trajectories/BENCH_characterization_vector.json
# in CI via `repro trajectory check`).
vector-bench:
	pytest benchmarks/test_bench_characterization_vector.py -q

# The Sec. 4.3 prevention matrix through the campaign engine, sharded
# across a process pool (EXECUTOR/WORKERS overridable).
campaign:
	python -m repro campaign --executor $${EXECUTOR:-process} --workers $${WORKERS:-4}

# Exhaustive fault-space exploration of the RSA-CRT signer: undefended
# map, protected map, and the coverage diff.  Exits nonzero unless the
# countermeasure drives the exploitable set to exactly zero.
explore:
	python -m repro explore run --cpu "$${CPU:-Sky Lake}" --json explore-open.json
	python -m repro explore run --cpu "$${CPU:-Sky Lake}" --protect --json explore-protected.json
	python -m repro explore report explore-open.json explore-protected.json

# Campaign under seeded chaos (worker kills, injected errors, stalls,
# torn cache writes) followed by a byte-identity convergence check
# (SEED/BUDGET overridable).  Exits nonzero if chaos changed a result.
chaos:
	python -m repro chaos --seed $${SEED:-0} --budget $${BUDGET:-50}

# Adversarial-schedule fuzzing under the runtime invariant checker
# (SEED/BUDGET overridable).  Exits nonzero and writes the shrunk case
# as a replayable flight dump, fuzz-repro.flight.jsonl, when an invariant
# is violated.
fuzz:
	python -m repro fuzz --seed $${SEED:-0} --budget $${BUDGET:-200}

examples:
	for script in examples/*.py; do echo "== $$script"; python $$script || exit 1; done

artifacts: bench
	@echo "reproduced tables/figures in benchmarks/results/:"
	@ls benchmarks/results/

# Run the full reproduction with telemetry on and export a Chrome
# trace_event file (open it in https://ui.perfetto.dev).
trace-demo:
	mkdir -p benchmarks/results
	REPRO_TRACE=benchmarks/results/full_reproduction.trace.json \
		python examples/full_reproduction.py
	@echo "trace written to benchmarks/results/full_reproduction.trace.json"

# Profile an imul campaign's dispatch loop and export a speedscope
# document (open it at https://speedscope.app) plus collapsed stacks.
profile-demo:
	mkdir -p benchmarks/results
	python -m repro profile --cpu "Comet Lake" \
		--out benchmarks/results/imul_campaign.speedscope.json \
		--collapsed benchmarks/results/imul_campaign.collapsed.txt
	@echo "profile written to benchmarks/results/imul_campaign.speedscope.json"

clean:
	rm -rf .pytest_cache benchmarks/results build *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
