#!/usr/bin/env bash
# trace_smoke.sh — full-stack distributed-tracing smoke.
#
# For each of the four μSuite services this script boots a real multi-process
# deployment (`musuite serve` leaf processes + mid-tier, each exporting its own
# spans), has `musuite load -mode verify` check the tiers' first replies byte
# for byte against the in-process deployment of the same seed and sizes (the
# multi-process half of the tier-per-process ≡ in-process anchor), drives it
# with `musuite load` at 1-in-1 sampling, shuts the tiers down to flush their
# span files, and then asserts — via `musuite trace -check` — that every exported
# trace reassembles into ONE connected span tree whose critical-path segments
# sum to the recorded end-to-end latency.  HDSearch additionally runs with
# replicated leaves and an aggressive hedge delay so abandoned hedge losers
# must appear as annotated spans, and its recorded trace file is replayed back
# through the load generator (zero failed requests required).
#
# Environment knobs (all optional):
#   TRACE_SMOKE_DIR       output directory      (default: a fresh temp dir;
#                         CI pins it to trace-smoke/ for artifact upload)
#   TRACE_SMOKE_DURATION  load window per service    (default: 3s)
#   TRACE_SMOKE_QPS       offered load per service   (default: 150)
#   TRACE_SMOKE_MIN       minimum connected traces   (default: 100)
set -euo pipefail

cd "$(dirname "$0")/.."

# Default into a temp dir so ad-hoc runs never strand span files and build
# output in the repo root.
OUT=${TRACE_SMOKE_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/trace-smoke.XXXXXX")}
echo "trace_smoke: writing to $OUT"
DURATION=${TRACE_SMOKE_DURATION:-3s}
QPS=${TRACE_SMOKE_QPS:-150}
MIN_TRACES=${TRACE_SMOKE_MIN:-100}
BIN=$OUT/bin

rm -rf "$OUT"
mkdir -p "$BIN"

echo "== building =="
go build -o "$BIN" ./cmd/musuite

PIDS=()
cleanup() {
	for pid in "${PIDS[@]:-}"; do
		kill "$pid" 2>/dev/null || true
	done
	wait 2>/dev/null || true
}
trap cleanup EXIT

# wait_port host:port — poll until something accepts connections.
wait_port() {
	local hostport=$1 host=${1%:*} port=${1##*:}
	for _ in $(seq 1 100); do
		if (exec 3<>"/dev/tcp/$host/$port") 2>/dev/null; then
			exec 3>&- 3<&-
			return 0
		fi
		sleep 0.1
	done
	echo "trace_smoke: $hostport never came up" >&2
	return 1
}

# stop_stack — SIGTERM every booted tier and wait for the span files to flush.
stop_stack() {
	for pid in "${PIDS[@]:-}"; do
		kill -TERM "$pid" 2>/dev/null || true
	done
	for pid in "${PIDS[@]:-}"; do
		wait "$pid" 2>/dev/null || true
	done
	PIDS=()
}

# check_traces service [extra `musuite trace` flags...] — merge the per-process
# span files and enforce the smoke invariants.
check_traces() {
	local svc=$1
	shift
	echo "-- $svc: validating merged span files --"
	"$BIN/musuite" trace -check -tolerance 10us -min-traces "$MIN_TRACES" "$@" \
		"$OUT/$svc"-*.jsonl
}

# run_load service target shards — verify the tiers against the in-process
# deployment with as many shards (a mismatch exits non-zero, and pipefail
# stops the script), then offer the traced open-loop load.
run_load() {
	local svc=$1 target=$2 shards=$3
	"$BIN/musuite" load "$svc" -target "$target" -mode verify -shards "$shards" \
		| tee "$OUT/$svc-verify.log"
	"$BIN/musuite" load "$svc" -target "$target" -mode open \
		-qps "$QPS" -duration "$DURATION" \
		-trace-sample 1 -trace-out "$OUT/$svc-loadgen.jsonl" \
		| tee "$OUT/$svc-loadgen.log"
}

# ---- HDSearch: 1 shard × 2 replicas, forced hedging → abandoned losers ----
echo "== hdsearch (replicated leaves, forced hedging) =="
"$BIN/musuite" serve hdsearch -role leaf -addr 127.0.0.1:7101 -shard 0 -shards 1 \
	-trace-out "$OUT/hdsearch-leaf0.jsonl" &
PIDS+=($!)
"$BIN/musuite" serve hdsearch -role leaf -addr 127.0.0.1:7102 -shard 0 -shards 1 \
	-trace-out "$OUT/hdsearch-leaf1.jsonl" &
PIDS+=($!)
wait_port 127.0.0.1:7101
wait_port 127.0.0.1:7102
"$BIN/musuite" serve hdsearch -role midtier -addr 127.0.0.1:7100 \
	-leaves 127.0.0.1:7101,127.0.0.1:7102 -shards 1 -replicas 2 \
	-hedge-delay 100us -retry-budget 2 \
	-trace-out "$OUT/hdsearch-mid.jsonl" &
PIDS+=($!)
wait_port 127.0.0.1:7100

run_load hdsearch 127.0.0.1:7100 1

echo "-- hdsearch: replaying the recorded arrival process at 2x --"
"$BIN/musuite" load hdsearch -target 127.0.0.1:7100 -mode open \
	-trace-replay "$OUT/hdsearch-loadgen.jsonl" -replay-speed 2 \
	| tee "$OUT/hdsearch-replay.log"
grep -q ' errors=0 ' "$OUT/hdsearch-replay.log" || {
	echo "trace_smoke: replay had failed requests" >&2
	exit 1
}

stop_stack
check_traces hdsearch -require-note hedge,abandoned

# ---- Router: 2-replica store ----
echo "== router =="
"$BIN/musuite" serve router -role leaf -addr 127.0.0.1:7201 \
	-trace-out "$OUT/router-leaf0.jsonl" &
PIDS+=($!)
"$BIN/musuite" serve router -role leaf -addr 127.0.0.1:7202 \
	-trace-out "$OUT/router-leaf1.jsonl" &
PIDS+=($!)
wait_port 127.0.0.1:7201
wait_port 127.0.0.1:7202
"$BIN/musuite" serve router -role midtier -addr 127.0.0.1:7200 \
	-leaves 127.0.0.1:7201,127.0.0.1:7202 -replicas 2 \
	-trace-out "$OUT/router-mid.jsonl" &
PIDS+=($!)
wait_port 127.0.0.1:7200

run_load router 127.0.0.1:7200 2
stop_stack
check_traces router

# ---- Set Algebra: 2 shards ----
echo "== setalgebra =="
"$BIN/musuite" serve setalgebra -role leaf -addr 127.0.0.1:7301 -shard 0 -shards 2 \
	-trace-out "$OUT/setalgebra-leaf0.jsonl" &
PIDS+=($!)
"$BIN/musuite" serve setalgebra -role leaf -addr 127.0.0.1:7302 -shard 1 -shards 2 \
	-trace-out "$OUT/setalgebra-leaf1.jsonl" &
PIDS+=($!)
wait_port 127.0.0.1:7301
wait_port 127.0.0.1:7302
"$BIN/musuite" serve setalgebra -role midtier -addr 127.0.0.1:7300 \
	-leaves 127.0.0.1:7301,127.0.0.1:7302 -shards 2 \
	-trace-out "$OUT/setalgebra-mid.jsonl" &
PIDS+=($!)
wait_port 127.0.0.1:7300

run_load setalgebra 127.0.0.1:7300 2
stop_stack
check_traces setalgebra

# ---- Recommend: 2 shards ----
echo "== recommend =="
"$BIN/musuite" serve recommend -role leaf -addr 127.0.0.1:7401 -shard 0 -shards 2 \
	-trace-out "$OUT/recommend-leaf0.jsonl" &
PIDS+=($!)
"$BIN/musuite" serve recommend -role leaf -addr 127.0.0.1:7402 -shard 1 -shards 2 \
	-trace-out "$OUT/recommend-leaf1.jsonl" &
PIDS+=($!)
wait_port 127.0.0.1:7401
wait_port 127.0.0.1:7402
"$BIN/musuite" serve recommend -role midtier -addr 127.0.0.1:7400 \
	-leaves 127.0.0.1:7401,127.0.0.1:7402 -shards 2 \
	-trace-out "$OUT/recommend-mid.jsonl" &
PIDS+=($!)
wait_port 127.0.0.1:7400

run_load recommend 127.0.0.1:7400 2
stop_stack
check_traces recommend

# ---- Spec-driven topology: span parenting across a 4-deep DAG ----
# The social-network exemplar nests mid-tiers four services deep
# (frontend → compose-post → social-graph → graph-store); every sampled
# request must still reassemble into ONE connected tree whose critical
# path sums to the end-to-end latency, exactly like the two-level
# handwritten services above.
echo "== topo (4-deep spec-driven DAG) =="
"$BIN/musuite" topo -topo examples/social-network.yaml -scenario=false \
	-topo-duration "$DURATION" -topo-qps "$QPS" \
	-trace-sample 1 -trace-out "$OUT/topo-social-all.jsonl" \
	| tee "$OUT/topo-social.log"
check_traces topo-social

echo "== trace smoke ok =="
