// Package trace provides per-request latency attribution through the
// mid-tier pipeline: arrival → dispatch hand-off → worker start → fan-out
// issued → last leaf response → reply sent.  Sampled traces decompose a
// request's residence time into the stage costs the paper's aggregate
// characterization (Figs. 15–18) observes only in distribution form —
// the per-request view a Treadmill-style attribution methodology needs.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"musuite/internal/stats"
)

// Stage names one pipeline boundary a request crosses.
type Stage int

// The pipeline boundaries, in order of traversal.
const (
	// StageArrival — request frame fully decoded by the network poller.
	StageArrival Stage = iota
	// StageEnqueued — poller handed the request to the worker queue.
	StageEnqueued
	// StageWorkerStart — a worker began executing the handler.
	StageWorkerStart
	// StageFanoutIssued — all leaf sub-requests were sent.
	StageFanoutIssued
	// StageLastLeafResponse — the final leaf response was delivered.
	StageLastLeafResponse
	// StageReplySent — the response write to the front-end completed.
	StageReplySent
	numStages
)

// String names the stage.
func (s Stage) String() string {
	names := [...]string{
		"arrival", "enqueued", "worker-start", "fanout-issued",
		"last-leaf-response", "reply-sent",
	}
	if s < 0 || int(s) >= len(names) {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return names[s]
}

// Trace records one sampled request's stage timestamps.  Stamp may be
// called from any goroutine; each stage keeps its first stamp.
type Trace struct {
	mu sync.Mutex
	at [numStages]time.Time
}

// Stamp records the current time for stage s (first stamp wins).
func (t *Trace) Stamp(s Stage) {
	if t == nil {
		return // unsampled: no clock read
	}
	t.StampAt(s, time.Now())
}

// StampAt records an explicit instant for stage s (first stamp wins).
func (t *Trace) StampAt(s Stage, at time.Time) {
	if t == nil || s < 0 || s >= numStages {
		return
	}
	t.mu.Lock()
	if t.at[s].IsZero() {
		t.at[s] = at
	}
	t.mu.Unlock()
}

// Reset clears every stamp so a pooled Trace can carry a new request
// without inheriting its previous occupant's timestamps.  First-stamp-wins
// semantics make a stale stamp silently corrupting, so every reuse path
// must Reset before the first new Stamp.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.at = [numStages]time.Time{}
	t.mu.Unlock()
}

// clone snapshots the trace into an independent struct.
func (t *Trace) clone() *Trace {
	c := &Trace{}
	t.mu.Lock()
	c.at = t.at
	t.mu.Unlock()
	return c
}

// tracePool recycles Trace structs across sampled requests.
var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// NewTrace returns a pooled, reset Trace.  Return it with PutTrace once no
// goroutine can stamp it anymore.
func NewTrace() *Trace {
	t := tracePool.Get().(*Trace)
	// Reset on get, not put: a stamp racing the put lands on a trace that
	// is wiped again before its next occupant's first stamp.
	t.Reset()
	return t
}

// PutTrace recycles t.  The caller must guarantee no further Stamp/At calls
// reach this pointer.
func PutTrace(t *Trace) {
	if t == nil {
		return
	}
	tracePool.Put(t)
}

// At returns the recorded instant of stage s (zero if never stamped).
func (t *Trace) At(s Stage) time.Time {
	if t == nil {
		return time.Time{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.at[s]
}

// Breakdown is the stage-to-stage decomposition of one request.
type Breakdown struct {
	// Handoff is poller→queue (the Block-class cost).
	Handoff time.Duration
	// Queue is time waiting for a worker (the Active-Exe-class cost).
	Queue time.Duration
	// Compute is the handler's own work before the fan-out.
	Compute time.Duration
	// LeafWait is fan-out issue → last leaf response.
	LeafWait time.Duration
	// Merge is last response → reply written.
	Merge time.Duration
	// Total is arrival → reply written.
	Total time.Duration
	// Complete reports whether every stage was stamped (an in-line or
	// non-fanout request leaves gaps).
	Complete bool
}

// Breakdown computes the decomposition.  Missing stages yield zero segments
// and Complete=false.
func (t *Trace) Breakdown() Breakdown {
	if t == nil {
		return Breakdown{}
	}
	t.mu.Lock()
	at := t.at
	t.mu.Unlock()

	var b Breakdown
	seg := func(from, to Stage) time.Duration {
		if at[from].IsZero() || at[to].IsZero() {
			return 0
		}
		d := at[to].Sub(at[from])
		if d < 0 {
			return 0
		}
		return d
	}
	b.Handoff = seg(StageArrival, StageEnqueued)
	b.Queue = seg(StageEnqueued, StageWorkerStart)
	b.Compute = seg(StageWorkerStart, StageFanoutIssued)
	b.LeafWait = seg(StageFanoutIssued, StageLastLeafResponse)
	b.Merge = seg(StageLastLeafResponse, StageReplySent)
	b.Total = seg(StageArrival, StageReplySent)
	b.Complete = true
	for s := Stage(0); s < numStages; s++ {
		if at[s].IsZero() {
			b.Complete = false
			break
		}
	}
	return b
}

// String renders the breakdown on one line.
func (b Breakdown) String() string {
	return fmt.Sprintf("handoff=%v queue=%v compute=%v leaf=%v merge=%v total=%v",
		b.Handoff, b.Queue, b.Compute, b.LeafWait, b.Merge, b.Total)
}

// Tracer samples 1-in-N requests and aggregates their stage breakdowns.
// A nil *Tracer disables tracing at zero cost.
type Tracer struct {
	every   uint64
	counter atomic.Uint64

	mu     sync.Mutex
	recent []*Trace // ring of the most recent completed traces
	next   int

	handoff, queue, compute, leaf, merge, total *stats.Histogram
	completed                                   atomic.Uint64
}

// NewTracer samples one of every `every` requests (every ≤ 1 samples all)
// and retains up to keep recent traces for inspection.
func NewTracer(every int, keep int) *Tracer {
	if every < 1 {
		every = 1
	}
	if keep < 1 {
		keep = 64
	}
	return &Tracer{
		every:   uint64(every),
		recent:  make([]*Trace, 0, keep),
		handoff: stats.NewHistogram(),
		queue:   stats.NewHistogram(),
		compute: stats.NewHistogram(),
		leaf:    stats.NewHistogram(),
		merge:   stats.NewHistogram(),
		total:   stats.NewHistogram(),
	}
}

// Sample returns a new Trace for this request, or nil if it falls outside
// the sampling rate (or the tracer itself is nil).
func (tr *Tracer) Sample() *Trace {
	if tr == nil {
		return nil
	}
	if tr.counter.Add(1)%tr.every != 0 {
		return nil
	}
	return NewTrace()
}

// Finish aggregates a completed trace.
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	b := t.Breakdown()
	tr.handoff.Record(b.Handoff)
	tr.queue.Record(b.Queue)
	tr.compute.Record(b.Compute)
	tr.leaf.Record(b.LeafWait)
	tr.merge.Record(b.Merge)
	tr.total.Record(b.Total)

	tr.mu.Lock()
	var evicted *Trace
	if len(tr.recent) < cap(tr.recent) {
		tr.recent = append(tr.recent, t)
	} else {
		evicted = tr.recent[tr.next]
		tr.recent[tr.next] = t
		tr.next = (tr.next + 1) % cap(tr.recent)
	}
	// Counted once the trace is in the ring, so a reader that waits on
	// Completed finds it in Recent.
	tr.completed.Add(1)
	tr.mu.Unlock()
	// Recent hands out clones, never ring pointers, so the evicted trace
	// can be recycled immediately.
	PutTrace(evicted)
}

// Completed reports how many traces have finished.
func (tr *Tracer) Completed() uint64 {
	if tr == nil {
		return 0
	}
	return tr.completed.Load()
}

// Recent returns up to n of the most recently completed traces.  The
// returned traces are independent snapshots: the ring recycles its evicted
// entries, so handing out ring pointers would let a recycled trace mutate
// under the caller.
func (tr *Tracer) Recent(n int) []*Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if n > len(tr.recent) {
		n = len(tr.recent)
	}
	out := make([]*Trace, n)
	for i, t := range tr.recent[len(tr.recent)-n:] {
		out[i] = t.clone()
	}
	return out
}

// Report renders the aggregate stage decomposition at the median and p99.
func (tr *Tracer) Report() string {
	if tr == nil {
		return "tracing disabled\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "request latency attribution (%d sampled requests)\n", tr.Completed())
	fmt.Fprintf(&b, "  %-10s %-12s %-12s\n", "stage", "p50", "p99")
	for _, row := range []struct {
		name string
		h    *stats.Histogram
	}{
		{"handoff", tr.handoff},
		{"queue", tr.queue},
		{"compute", tr.compute},
		{"leaf-wait", tr.leaf},
		{"merge", tr.merge},
		{"total", tr.total},
	} {
		fmt.Fprintf(&b, "  %-10s %-12v %-12v\n", row.name, row.h.Quantile(0.5), row.h.Quantile(0.99))
	}
	return b.String()
}

// StageQuantile exposes one aggregate segment's quantile for programmatic
// assertions (segment names as in Report).
func (tr *Tracer) StageQuantile(segment string, q float64) time.Duration {
	if tr == nil {
		return 0
	}
	switch segment {
	case "handoff":
		return tr.handoff.Quantile(q)
	case "queue":
		return tr.queue.Quantile(q)
	case "compute":
		return tr.compute.Quantile(q)
	case "leaf-wait":
		return tr.leaf.Quantile(q)
	case "merge":
		return tr.merge.Quantile(q)
	case "total":
		return tr.total.Quantile(q)
	}
	return 0
}
