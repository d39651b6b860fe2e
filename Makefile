# Standard local CI for the repository. `make` runs the full gate.

GO ?= go

.PHONY: all build vet test race bench bench-smoke loadgen-smoke doccheck loc serve serve-recover clean

all: build vet test race doccheck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrency-sensitive layers under the race detector: the serving
# engine (core.Server, epochs, recovery), the region manager, the fault
# injector/stores, the telemetry registry, and the readers of the topology's
# lazily published lookup table (placement, HEFT).
race:
	$(GO) test -race ./internal/core/... ./internal/region/... ./internal/fault/... ./internal/telemetry/... ./internal/cluster/... ./internal/shard/... \
		./internal/topology/... ./internal/placement/... ./internal/sched/...

bench:
	$(GO) test -bench=. -benchmem ./...

# Short-mode smoke of the wavefront-executor benchmarks (wide-DAG speedup
# curve + serving path), with machine-readable results for CI artifacts.
# Each sub-benchmark also asserts the virtual makespan is identical across
# pool sizes, so this doubles as a determinism gate. The committed
# bench/BENCH_*_baseline.json captures are the before; the fresh run is the
# after (previous local runs are kept as BENCH_*_before.json), and benchgate
# fails the target when serve throughput regressed >10% vs the baseline
# (override with BENCHGATE_TOLERANCE).
bench-smoke: loadgen-smoke
	@for f in BENCH_parallel.json BENCH_serve.json BENCH_recover.json BENCH_shard.json BENCH_stream.json BENCH_migrate.json; do \
		if [ -f $$f ]; then cp $$f $${f%.json}_before.json; fi; done
	$(GO) test -run XXX -bench 'BenchmarkWideDAGParallel|BenchmarkServeParallel' \
		-benchtime 2x -benchmem -json ./internal/core/ > BENCH_parallel.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_parallel.json | head -20 || true
	$(GO) test -run XXX -bench BenchmarkServeOverlap \
		-benchtime 2x -benchmem -json ./internal/core/ > BENCH_serve.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_serve.json | head -20 || true
	$(GO) test -run XXX -bench BenchmarkRecoverPartial \
		-benchtime 2x -benchmem -json ./internal/core/ > BENCH_recover.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_recover.json | head -20 || true
	$(GO) test -run XXX -bench BenchmarkServeSharded \
		-benchtime 2x -benchmem -json ./internal/shard/ > BENCH_shard.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_shard.json | head -20 || true
	$(GO) test -run XXX -bench BenchmarkStreamServe \
		-benchtime 2x -benchmem -json ./internal/core/ > BENCH_stream.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_stream.json | head -20 || true
	$(GO) test -run XXX -bench BenchmarkClusterRebalance \
		-benchtime 2x -benchmem -json ./internal/shard/ > BENCH_migrate.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_migrate.json | head -20 || true
	$(GO) run ./cmd/benchgate -baseline bench/BENCH_serve_baseline.json -current BENCH_serve.json
	$(GO) run ./cmd/benchgate -baseline bench/BENCH_shard_baseline.json -current BENCH_shard.json \
		-metrics jobs/s,speedup
	$(GO) run ./cmd/benchgate -baseline bench/BENCH_stream_baseline.json -current BENCH_stream.json \
		-metrics windows/s
	$(GO) run ./cmd/benchgate -baseline bench/BENCH_migrate_baseline.json -current BENCH_migrate.json \
		-metrics exported/op,recalled/op -tolerance 0

# Seconds-scale fixed-seed open-loop serving smoke: 4k submissions against
# the SLO admission gate, replayed twice — the run itself fails if the two
# replays' admission decisions diverge. The gated metrics (admitted,
# slo-met) are deterministic counts for the fixed seed, so benchgate runs
# at zero tolerance and the gate is immune to machine speed.
loadgen-smoke:
	$(GO) run ./cmd/loadgen -n 4000 -seed 42 -rho 1.5 -deadline 40us -repeat 2 \
		-bench-out BENCH_loadgen.json
	$(GO) run ./cmd/benchgate -baseline bench/BENCH_loadgen_baseline.json \
		-current BENCH_loadgen.json -metrics admitted,slo-met -tolerance 0
	$(GO) run ./cmd/loadgen -n 4000 -seed 42 -rho 1.5 -deadline 40us -real -1 \
		-repeat 2 -shards 2 -bench-out BENCH_loadgen_shard.json
	$(GO) run ./cmd/benchgate -baseline bench/BENCH_loadgen_shard_baseline.json \
		-current BENCH_loadgen_shard.json -metrics admitted,slo-met -tolerance 0

# Fail if any exported identifier in the facade package lacks a doc comment.
doccheck:
	$(GO) run ./cmd/doccheck .

# Non-test Go line count, the ROADMAP's code-size metric. The benchmark
# module (perfbench/) and its build output (.bench_build/) are excluded.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# Smoke-run the admission-controlled serving mode.
serve:
	$(GO) run ./cmd/disaggsim -serve -jobs 16 -workers 4

# Smoke-run fault-tolerant serving: injected faults, checkpointed recovery.
serve-recover:
	$(GO) run ./cmd/disaggsim -serve -jobs 16 -workers 4 -recover -faultrate 0.4 -maxattempts 8

clean:
	$(GO) clean ./...
