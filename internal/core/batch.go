package core

import (
	"time"

	"musuite/internal/rpc"
)

// Adaptive cross-request batching.  Every front-end request fans out to all
// leaves, so at high QPS the mid-tier issues a stream of small leaf RPCs
// whose per-call framing, syscall, and scheduling costs dominate (the
// overheads the paper's §VI–§VII characterization measures one at a time).
// A per-leaf-replica batcher coalesces outstanding calls bound for the same
// replica into one carrier RPC, flushing on whichever comes first of
// MaxBatch members or an adaptive delay — an eighth of the tracked median
// leaf latency, floored at 20µs, so waiting for batch-mates never costs a
// meaningful share of the latency it amortizes.

// BatchPolicy configures cross-request batching of leaf RPCs.
type BatchPolicy struct {
	// MaxBatch caps the members coalesced into one carrier RPC; reaching
	// it flushes immediately.  Values ≤ 1 disable batching.
	MaxBatch int
	// Delay, when positive, fixes the flush delay instead of tracking the
	// leaf-latency digest.
	Delay time.Duration
}

// enabled reports whether the policy turns batching on.
func (b BatchPolicy) enabled() bool { return b.MaxBatch > 1 }

const (
	// batchMinDelay floors the digest-tracked flush delay so noisy early
	// samples cannot collapse it to zero and defeat coalescing.
	batchMinDelay = 20 * time.Microsecond
	// batchPercentile is the leaf-latency quantile the adaptive delay
	// follows (the median).
	batchPercentile = 0.5
	// batchFraction scales the quantile into the flush delay: a batch waits
	// at most a small slice of a typical leaf call.
	batchFraction = 0.125
	// batchBootstrapDelay is used until the latency digest has samples.
	batchBootstrapDelay = 50 * time.Microsecond
)

// newBatcher wraps one replica's connection pool with a batcher driven by
// this edge's adaptive delay, counting flushes into the tier's table.
func (e *edge) newBatcher(pool *rpc.Pool) *rpc.Batcher {
	return rpc.NewBatcher(pool, rpc.BatcherOptions{
		MaxBatch: e.policy.Batch.MaxBatch,
		Delay:    e.batchDelay,
		Counters: e.mt.counters,
	})
}

// batchDelay is the flush delay armed when a batcher's queue goes from
// empty to non-empty: the fixed Delay if configured, else the cached
// digest-tracked value, else a bootstrap constant.
func (e *edge) batchDelay() time.Duration {
	if d := e.policy.Batch.Delay; d > 0 {
		return d
	}
	if d := e.batchDelayNs.Load(); d > 0 {
		return time.Duration(d)
	}
	return batchBootstrapDelay
}

// refreshBatchDelay recomputes the cached adaptive flush delay from the
// edge's latency digest.  Called from the same amortized refresh point as
// the hedge delay (every hedgeRefreshEvery observations), since a quantile
// scan is too costly per call.
func (e *edge) refreshBatchDelay() {
	p := e.policy.Batch
	if !p.enabled() || p.Delay > 0 {
		return
	}
	d := time.Duration(float64(e.leafLat.Quantile(batchPercentile)) * batchFraction)
	if d < batchMinDelay {
		d = batchMinDelay
	}
	e.batchDelayNs.Store(int64(d))
}
