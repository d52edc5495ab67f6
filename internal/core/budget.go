package core

import (
	"sync"

	"musuite/internal/telemetry"
)

// Retry-budget defaults: tail-recovery traffic (hedges plus retries) is
// bounded to DefaultRetryBudgetRatio of primary leaf traffic, with a
// DefaultRetryBudgetBurst-token allowance so an isolated slow burst can
// still be hedged from a cold bucket.
const (
	DefaultRetryBudgetRatio = 0.1
	DefaultRetryBudgetBurst = 10
)

// retryBudget is a token bucket bounding hedges and retries to a fraction
// of primary traffic: every primary leaf call earns ratio tokens, every
// hedge or retry spends one whole token, and the bucket caps at burst so
// idle periods cannot bank unbounded credit.  When the cluster degrades
// broadly — every call slow, every call eligible to hedge — the bucket
// drains and stays near empty, so recovery traffic is capped at ~ratio of
// offered load instead of doubling it into a retry storm.
type retryBudget struct {
	mu     sync.Mutex
	ratio  float64
	burst  float64
	tokens float64
	// counters is the owning tier's table; every spend books its outcome.
	counters *telemetry.Table
}

// newRetryBudget builds a bucket, substituting defaults for zero values.
func newRetryBudget(ratio float64, burst int, counters *telemetry.Table) *retryBudget {
	if ratio <= 0 {
		ratio = DefaultRetryBudgetRatio
	}
	if burst <= 0 {
		burst = DefaultRetryBudgetBurst
	}
	return &retryBudget{ratio: ratio, burst: float64(burst), tokens: float64(burst), counters: counters}
}

// earn credits the budget for one primary call.
func (b *retryBudget) earn() {
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// spend consumes one token if available, reporting whether the hedge or
// retry may proceed, and counts the outcome: what (tail.hedge or tail.retry)
// when it may, tail.budget-denied when the bucket is dry.
func (b *retryBudget) spend(what telemetry.Counter) bool {
	b.mu.Lock()
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	} else {
		what = telemetry.TailBudgetDenied
	}
	b.mu.Unlock()
	b.counters.Add(what, 1)
	return ok
}
