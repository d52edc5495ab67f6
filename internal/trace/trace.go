// Package trace is the one per-request record of where time went.  A
// sampled request carries a span context across every tier (span.go); each
// tier records spans, and a mid-tier's server span carries the request's
// stage record — the decomposition of its residence time through the
// pipeline arrival → dispatch hand-off → worker start → fan-out issued →
// last leaf response → reply sent.  That is the per-request view the paper's
// aggregate characterization (Figs. 15–18) observes only in distribution
// form, and the one a Treadmill-style attribution methodology needs.
package trace

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"musuite/internal/stats"
)

// Stage names one pipeline boundary a request crosses.
type Stage int

// The pipeline boundaries, in order of traversal.  A request's arrival is
// the instant its stamps are measured from, not a stamp of its own.
const (
	// StageEnqueued — poller handed the request to the worker queue.
	StageEnqueued Stage = iota
	// StageWorkerStart — a worker (or, in-line, the poller) began executing
	// the handler.
	StageWorkerStart
	// StageFanoutIssued — the first fan-out's sub-requests are about to be
	// sent.
	StageFanoutIssued
	// StageLastLeafResponse — a fan-out's final leaf response was delivered.
	StageLastLeafResponse
	// StageReplySent — the response write to the front-end completed.
	StageReplySent
	numStages
)

// Stamps records when one sampled request crossed each stage, as offsets
// from its arrival on the monotonic clock.  It exists only for a request
// that arrived with a sampled span context: a nil *Stamps reads no clock.
// Stamp may be called from any goroutine — two edges' fan-outs of one
// request finish on different response threads — and each stage keeps its
// first stamp.
type Stamps struct {
	arrival time.Time
	// at holds nanoseconds since arrival; zero means not stamped.
	at [numStages]atomic.Int64
}

// NewStamps starts the record of a request that arrived at arrival.
func NewStamps(arrival time.Time) *Stamps { return &Stamps{arrival: arrival} }

// Stamp records the current time for stage s (first stamp wins).
func (t *Stamps) Stamp(s Stage) {
	if t == nil {
		return // unsampled: no clock read
	}
	d := int64(time.Since(t.arrival))
	if d < 1 {
		d = 1 // zero is "not stamped"
	}
	t.at[s].CompareAndSwap(0, d)
}

// At returns how long after arrival stage s was stamped (zero if never).
func (t *Stamps) At(s Stage) time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.at[s].Load())
}

// Stages is the stage record a mid-tier's server span carries: the request's
// residence time cut at its stamps.  A segment whose bounding stamps are
// missing (an in-line request is never enqueued, a handler may reply without
// fanning out) or out of order is zero; the span's duration is the total.
type Stages struct {
	// Handoff is poller→queue (the Block-class cost).
	Handoff time.Duration `json:"handoff,omitempty"`
	// Queue is time waiting for a worker (the Active-Exe-class cost).
	Queue time.Duration `json:"queue,omitempty"`
	// Compute is the handler's own work before the fan-out.
	Compute time.Duration `json:"compute,omitempty"`
	// LeafWait is fan-out issue → last leaf response.
	LeafWait time.Duration `json:"leaf_wait,omitempty"`
	// Merge is last response → reply written.
	Merge time.Duration `json:"merge,omitempty"`
}

// Stages cuts the record into its segments.
func (t *Stamps) Stages() *Stages {
	seg := func(from, to Stage) time.Duration {
		a, b := t.At(from), t.At(to)
		if a == 0 || b < a {
			return 0
		}
		return b - a
	}
	return &Stages{
		// Arrival is offset zero, so the hand-off segment is its end stamp.
		Handoff:  t.At(StageEnqueued),
		Queue:    seg(StageEnqueued, StageWorkerStart),
		Compute:  seg(StageWorkerStart, StageFanoutIssued),
		LeafWait: seg(StageFanoutIssued, StageLastLeafResponse),
		Merge:    seg(StageLastLeafResponse, StageReplySent),
	}
}

// Segment is one named share of a request's residence time.
type Segment struct {
	Name string
	D    time.Duration
}

// Segments lists the record's segments in pipeline order — the one reading
// of a stage record every consumer (the -experiment trace table, `musuite trace`)
// goes through.
func (st *Stages) Segments() [5]Segment {
	return [5]Segment{
		{"handoff", st.Handoff},
		{"queue", st.Queue},
		{"compute", st.Compute},
		{"leaf-wait", st.LeafWait},
		{"merge", st.Merge},
	}
}

// Sum is the time the segments account for; at most the span's duration.
func (st *Stages) Sum() time.Duration {
	var sum time.Duration
	for _, seg := range st.Segments() {
		sum += seg.D
	}
	return sum
}

// String renders the non-zero segments on one line.
func (st *Stages) String() string {
	var parts []string
	for _, seg := range st.Segments() {
		if seg.D > 0 {
			parts = append(parts, seg.Name+"="+seg.D.String())
		}
	}
	return strings.Join(parts, " ")
}

// StageReport renders the aggregate stage decomposition — each segment and
// the total, at the median and p99 — over every span in spans that carries a
// stage record.
func StageReport(spans []Span) string {
	// One row per segment and a sixth for the span's own duration.
	row := func(st *Stages, total int64) []Segment {
		segs := st.Segments()
		return append(segs[:], Segment{"total", time.Duration(total)})
	}
	samples := make([][]time.Duration, 6)
	for i := range spans {
		if st := spans[i].Stages; st != nil {
			for j, seg := range row(st, spans[i].Duration) {
				samples[j] = append(samples[j], seg.D)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "request latency attribution (%d sampled requests)\n", len(samples[0]))
	fmt.Fprintf(&b, "  %-10s %-12s %-12s\n", "stage", "p50", "p99")
	for j, seg := range row(&Stages{}, 0) {
		fmt.Fprintf(&b, "  %-10s %-12v %-12v\n", seg.Name,
			stats.ExactQuantile(samples[j], 0.5), stats.ExactQuantile(samples[j], 0.99))
	}
	return b.String()
}
