GO ?= go

.PHONY: build test short race vet fmt-check loc flake-guard bench-smoke profile resize-demo trace-demo trace-smoke drain-churn autoscale-churn overload-demo ann-demo topo-demo scenario-demo ci

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

# The benchmark's four workloads as an end-to-end smoke (the bench-smoke CI
# job): a 2 s run of each, untraced and traced, must exit 0 and end in a
# result line with "correct":true and "failed":0.  The eight result lines are
# collected in bench-smoke.jsonl.
bench-smoke: build
	$(GO) run ./cmd/musuite bench -experiment tableII
	@: > bench-smoke.jsonl
	@for w in router_get router_set setalgebra_fanout hdsearch_lsh; do for tr in 0 1; do \
		out=$$(bash benchmarks/run.sh --workload $$w --seconds 2 --trace $$tr) || exit 1; \
		line=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "$$line" | tee -a bench-smoke.jsonl; \
		case "$$line" in *'"correct":true,'*'"failed":0,'*) ;; \
		*) echo "bench-smoke: $$w --trace $$tr did not end correct with 0 failed" >&2; exit 1;; esac; \
	done; done

# Collect cpu/heap/mutex profiles from the fan-out microbenchmarks (hedging,
# leaf batching) for hot-path work.  Inspect with e.g.:
#   go tool pprof profile/core.test profile/cpu.out
profile: build
	mkdir -p profile
	$(GO) test -run=NONE -bench='TailFanout|LeafBatching' -benchtime=2s -benchmem -o profile/core.test \
		-cpuprofile profile/cpu.out -memprofile profile/mem.out -mutexprofile profile/mutex.out ./internal/core

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
