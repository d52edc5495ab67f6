GO ?= go

.PHONY: build test short race vet fmt-check loc flake-guard bench-smoke bench-gate bench-baseline profile resize-demo trace-demo trace-smoke drain-churn autoscale-churn overload-demo ann-demo topo-demo scenario-demo ci

# Gate benchmarks: TailFanout (hedging), LeafBatching (cross-request
# coalescing; a leaf runs a carrier's members one by one through its one
# handler), HotPathAllocs (per-call allocation budget), the leaf
# compute kernels — LeafScan (SoA norm-trick scan), TopK (streaming
# selection), IntersectBitset (dense-range posting-list intersection),
# IVFScan/PQScan (sub-linear ANN leaf path; setup asserts recall@10 and
# the PQ compression ratio before timing), HNSWScan (graph ANN leaf path;
# setup asserts recall@10 ≥ 0.95, a ≥25x speedup over the brute-force
# scan, and beating the IVF gate point) — and OverloadGoodput (completed
# QPS and shed fraction at 2x the measured knee with admission control
# armed; goodput-qps gates higher-is-better).
# -count=5 gives `musuite gate` a mean per metric; -benchmem adds B/op and
# allocs/op so memory regressions gate alongside latency.
BENCH_GATE_PATTERN = TailFanout|LeafBatching|HotPathAllocs|LeafScan|TopK|IntersectBitset|IVFScan|PQScan|HNSWScan|OverloadGoodput
BENCH_GATE_CMD = $(GO) test -run=NONE -bench='$(BENCH_GATE_PATTERN)' -benchtime=2s -count=5 -benchmem .

build:
	$(GO) build ./...

test:
	$(GO) test -count=1 ./...

short:
	$(GO) test -short -count=1 ./...

race:
	$(GO) test -race -count=1 ./...

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

# Non-test, non-generated Go lines per package (benchmarks/ excluded) — the
# LOC trajectory CHANGES.md reports each PR.
loc:
	@./scripts/loc.sh

# The stats-contract flake guard (the nightly flake-guard CI job): twenty
# passes over the packages whose tests read counters right after a reply,
# plus the LSH index, the HDSearch service built on it, the ANN indexes its
# leaves build (whose quality may not depend on a store's row order), and
# internal/rpc (syscall proxies against the kernel's count, teardown against a
# peer's reset).
flake-guard:
	$(GO) test -short -count=20 ./internal/core ./internal/topo ./internal/cluster ./internal/autoscale ./internal/lsh ./internal/services/hdsearch ./internal/ann ./internal/rpc

bench-smoke: build
	$(GO) run ./cmd/musuite bench -experiment tableII
	$(GO) run ./cmd/musuite bench -experiment fig9 -services Router
	$(GO) test -run xxx -bench 'BenchmarkTailFanout' -benchtime 200x .

# Run the gate benchmarks and fail on >15% mean regression against the
# committed baseline.  The raw output goes to a file first so a non-zero
# test exit is not hidden behind a pipe.
bench-gate: build
	$(BENCH_GATE_CMD) > BENCH_ci.txt
	cat BENCH_ci.txt
	$(GO) run ./cmd/musuite gate -summary BENCH_ci.json -baseline BENCH_baseline.json BENCH_ci.txt

# Refresh the committed baseline (run on a quiet machine, then commit).
bench-baseline: build
	$(BENCH_GATE_CMD) > BENCH_baseline.txt
	cat BENCH_baseline.txt
	$(GO) run ./cmd/musuite gate -summary BENCH_baseline.json BENCH_baseline.txt

# Collect cpu/heap/mutex profiles from the gate benchmarks for hot-path
# work.  Inspect with e.g.:  go tool pprof musuite.test profile/cpu.out
profile: build
	mkdir -p profile
	$(GO) test -run=NONE -bench='$(BENCH_GATE_PATTERN)' -benchtime=2s -benchmem \
		-cpuprofile profile/cpu.out -memprofile profile/mem.out -mutexprofile profile/mutex.out .

# Watch a live resize: Router serves a steady load while a leaf group is
# added and then gracefully drained mid-window.  Jump routing keeps key
# placements stable through both transitions; the output's acceptance line
# confirms zero failed requests.
resize-demo: build
	$(GO) run ./cmd/musuite bench -experiment resize -routing jump -window 2s -load 500

# Watch distributed tracing end to end: record every HDSearch request with
# replicated leaves and forced hedging (so abandoned-loser spans appear),
# then print the critical-path summary and the first two span trees.
trace-demo: build
	$(GO) run ./cmd/musuite bench -services HDSearch -trace-sample 1 \
		-replicas 2 -hedge-delay 100us -trace-out trace-demo.jsonl
	$(GO) run ./cmd/musuite trace -dump 2 trace-demo.jsonl

# The full-stack multi-process tracing smoke (the e2e-trace-smoke CI job).
trace-smoke:
	./scripts/trace_smoke.sh

# Long-soak topology churn under the race detector (the nightly CI job).
# Override the cycle count: make drain-churn CYCLES=500
CYCLES ?= 100
drain-churn:
	MUSUITE_DRAIN_CHURN_CYCLES=$(CYCLES) $(GO) test -race -count=1 -timeout 20m \
		-run TestDrainChurnStress ./internal/core

# Autoscaler scale-up/drain churn plus the AIMD limiter property tests
# under the race detector (the nightly autoscale-churn CI job).
# Override the cycle count: make autoscale-churn CYCLES=500
autoscale-churn:
	MUSUITE_AUTOSCALE_CYCLES=$(CYCLES) $(GO) test -race -count=1 -timeout 20m \
		-run 'TestAutoscaleChurnStress|TestAIMD' ./internal/autoscale ./internal/core

# The overload saturation ramp (the overload-goodput CI job): admission
# control + autoscaler armed, driven open-loop to 3x the measured knee.
overload-demo: build
	$(GO) run ./cmd/musuite bench -experiment overload -window 1s

# Sweep every HDSearch candidate index — LSH / kd-tree / k-means, the
# IVF family over its nprobe (probe width) and rerank (exact re-scoring
# depth) knobs, and hnsw over its efSearch beam ladder {16, 64, 128} —
# and print recall@1/@10 vs p50/p99 per configuration, gated at a 0.90
# recall@10 floor across all registered kinds (the nightly ann-recall CI
# job).
ann-demo: build
	$(GO) run ./cmd/musuite bench -experiment indexcmp -window 1s -recall-floor 0.90

# Deploy both exemplar topology specs — nested fan-out DAGs composed
# entirely from YAML over the mid-tier framework — and drive each through
# its load shape with the timed degradation scenario armed (the topo-smoke
# CI job).  Non-zero exit on any untyped error.
topo-demo: build
	$(GO) run ./cmd/musuite topo -topo examples/social-network.yaml
	$(GO) run ./cmd/musuite topo -topo examples/hotel-reservation.yaml

# The cascading-failure scenario gate (the scenario CI job): a store
# slowdown mid-flash-crowd must surface only as typed admission sheds, and
# goodput must recover to ≥85% of the pre-fault baseline after the fault
# clears.
scenario-demo: build
	$(GO) run ./cmd/musuite bench -experiment scenario -topo examples/cascade.yaml

ci: fmt-check vet build race
