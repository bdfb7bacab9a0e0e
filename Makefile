# Convenience targets for the MIC reproduction.

PYTHON ?= python
# Same invocation the CI tier-1 gate uses (src/ layout, no install needed).
PYPATH = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-order test-verbose lint verify obs-demo journey-demo chaos-demo shard-demo prof-demo tournament bench bench-quick bench-scale perf perf-smoke perf-pairs figures quick-figures examples clean

install:
	pip install -e . --no-build-isolation || pip install -e .

test:
	$(PYPATH) $(PYTHON) -m pytest -x -q

# The id-sensitive directories in both argument orders: a test that leans
# on ids (or any other state) left behind by an earlier test fails here
# instead of in someone's `-k` selection.
test-order:
	$(PYPATH) $(PYTHON) -m pytest -q tests/obs tests/faults tests/anonymity tests/analysis tests/net
	$(PYPATH) $(PYTHON) -m pytest -q tests/net tests/analysis tests/anonymity tests/faults tests/obs

test-verbose:
	$(PYPATH) $(PYTHON) -m pytest -v

# Full lint registry (determinism + encapsulation + taint; only pragmas
# exempt a finding) + ruff, when available in the environment.
lint:
	$(PYPATH) $(PYTHON) -m repro.analysis lint src
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; \
	then ruff check src tests; else echo "ruff not installed; skipped"; fi

# Static data-plane verification: 32 concurrent m-flows on a 4-ary fat-tree.
verify:
	$(PYPATH) $(PYTHON) -m repro.analysis verify-network --flows 32

# Observability demo: the traced example, exported and re-summarized
# through the repro.obs pipeline.
obs-demo:
	@mkdir -p benchmarks/results
	$(PYPATH) $(PYTHON) examples/trace_capture.py \
		--metrics-json benchmarks/results/trace_capture_metrics.json
	$(PYPATH) $(PYTHON) -m repro.obs summarize \
		benchmarks/results/trace_capture_metrics.json

# Journey demo: per-packet tracing with decoys + flight recorder, exported
# as a Perfetto trace and a journey dump, then re-summarized.
journey-demo:
	@mkdir -p benchmarks/results
	$(PYPATH) $(PYTHON) -m repro.obs journey \
		--perfetto benchmarks/results/journey_trace.json \
		--dump benchmarks/results/journey_dump.json
	$(PYPATH) $(PYTHON) -m repro.obs summarize \
		benchmarks/results/journey_dump.json

# Chaos demo: seeded fault injection on a fat-tree (link flaps, a switch
# crash, control partition, lossy flow-mods) with the resilience scorecard
# printed and archived.  Exits non-zero if any flow is still parked.
# Then the benchmark's shape (8 decoy channels, 50 ms probes) under the
# sanitizer on the seeds where a rule used to land before its group.
chaos-demo:
	@mkdir -p benchmarks/results
	$(PYPATH) $(PYTHON) -m repro.faults run --seed 0 --timeline
	$(PYPATH) $(PYTHON) -m repro.faults scorecard --seed 0 \
		-o benchmarks/results/chaos_scorecard.json
	@for s in 11 14 16 19 22 23; do \
		$(PYPATH) $(PYTHON) -m repro.faults run --seed $$s \
			--channels 8 --probe-period 0.05 --sanitize || exit 1; \
	done

# Sharded control plane demo: the seed-0 chaos scenario on a 4-shard
# Mimic Controller — the plan adds a controller-shard crash, the survivors
# adopt its channels from stored intents, and the scorecard grows a
# `controlplane` section.  Exits non-zero if any flow stays parked.
shard-demo:
	@mkdir -p benchmarks/results
	$(PYPATH) $(PYTHON) -m repro.faults run --seed 0 --shards 4 --timeline
	$(PYPATH) $(PYTHON) -m repro.faults scorecard --seed 0 --shards 4 \
		-o benchmarks/results/chaos_scorecard_sharded.json

# Strategy-vs-attack tournament, quick slice (same as the CI job).
tournament:
	@mkdir -p benchmarks/results
	$(PYPATH) $(PYTHON) -m repro.attacks tournament --quick --seed 0 \
		-o benchmarks/results/tournament_frontier.json

bench:
	$(PYPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only

# CI-sized benchmark slice: the classifier microbenchmark (vs the linear
# reference), the plausibility-index, segment-draw and view-build
# microbenchmarks (vs the all-pairs scan, the list-building draw and one BFS
# per node),
# the event-kernel microbenchmark (vs a closure per event), the fluid-solver
# microbenchmark (vs the full-scan loop), the static-verifier benchmark (vs
# the linear / all-pairs scans) plus trimmed scalability sweeps, JSON
# results under benchmarks/results/.
bench-quick:
	@mkdir -p benchmarks/results
	BENCH_QUICK=1 $(PYPATH) $(PYTHON) -m pytest \
		benchmarks/bench_lookup.py benchmarks/bench_restrictions.py \
		benchmarks/bench_event_kernel.py benchmarks/bench_fluid_solver.py \
		benchmarks/bench_verifier.py benchmarks/bench_scalability.py -q \
		--benchmark-json=benchmarks/results/bench_quick.json

# Hybrid-mode scale run: 10k concurrent channels on fat_tree(16) with the
# self-profiler hooked, writing its document, an Observer snapshot and the
# profile's top table under benchmarks/results/.
bench-scale:
	@mkdir -p benchmarks/results
	$(PYPATH) $(PYTHON) -m pytest benchmarks/bench_hybrid_scale.py -q \
		--benchmark-only
	$(PYPATH) $(PYTHON) -m repro.obs summarize \
		benchmarks/results/hybrid_scale_snapshot.json

# The repo's benchmark (BENCHMARK.json): four workloads, end-to-end metrics,
# then the per-layer traced pass.  The harness finds src/ itself.
perf:
	$(PYTHON) benchmarks/perf/run.py

# The same command at a tenth of the size (numbers not comparable) plus the
# harness self-check: proves every workload still runs and scores clean.
perf-smoke:
	$(PYTHON) benchmarks/perf/run.py --smoke
	$(PYTHON) -m pytest benchmarks/perf/test_selfcheck.py -q

# Alternating parent / change pairs of one workload — what a speed claim is
# made with: make perf-pairs BASE=../parent W=packet_bulk SEED=11 N=10
N ?= 10
perf-pairs:
	$(PYTHON) benchmarks/pairs.py --base $(BASE) --workload $(W) --seed $(SEED) --pairs $(N)

# Self-profiling demo: a profiled chaos run, its prof-top table, and the
# profiled snapshot re-summarized through the normal pipeline.
prof-demo:
	@mkdir -p benchmarks/results
	$(PYPATH) $(PYTHON) -c "\
	from repro.faults import run_chaos; \
	from repro.obs import Profiler, format_prof_top; \
	prof = Profiler(sample_every=200); \
	card, dep = run_chaos(seed=0, profiler=prof); \
	print(format_prof_top(prof.report()))"

figures:
	$(PYPATH) $(PYTHON) -m repro.bench --save benchmarks/results

quick-figures:
	$(PYPATH) $(PYTHON) -m repro.bench --quick

examples:
	$(PYPATH) $(PYTHON) examples/quickstart.py
	$(PYPATH) $(PYTHON) examples/hidden_service.py
	$(PYPATH) $(PYTHON) examples/traffic_analysis_defense.py
	$(PYPATH) $(PYTHON) examples/datacenter_mix.py
	$(PYPATH) $(PYTHON) examples/failure_recovery.py
	$(PYPATH) $(PYTHON) examples/trace_capture.py
	$(PYPATH) $(PYTHON) examples/udp_telemetry.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .hypothesis
