package trace

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Distributed span propagation.  The stage record in trace.go attributes
// latency inside ONE tier and rides that tier's server span; spans tie the
// tiers together.  A sampled request carries a compact SpanContext on every RPC frame (trace ID, span ID,
// parent span ID, flags), so the front-end's client span, the mid-tier's
// server span, every fan-out attempt — primary, hedge, retry, batched
// member — and each leaf's server span assemble into one tree per request.
// The tree is what makes cross-tier tail amplification explainable
// per-request instead of only in aggregate distribution form.

// Span context flag bits.
const (
	// FlagSampled marks a request selected for span recording; unsampled
	// requests travel with a zero SpanContext and the untraced frame layout,
	// keeping the hot path byte-identical and allocation-free.
	FlagSampled uint8 = 1 << 0
)

// SpanContext is the per-RPC propagation state: 25 bytes on the wire
// (3×u64 + flags).  The zero value means "not traced".
type SpanContext struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
	Flags    uint8
}

// Sampled reports whether the request this context rides is being recorded.
func (sc SpanContext) Sampled() bool { return sc.Flags&FlagSampled != 0 }

// Child derives the context for a sub-operation: a fresh span ID parented
// to this context's span, same trace and flags.
func (sc SpanContext) Child() SpanContext {
	return SpanContext{
		TraceID:  sc.TraceID,
		SpanID:   NewID(),
		ParentID: sc.SpanID,
		Flags:    sc.Flags,
	}
}

// idState seeds span/trace ID generation; splitmix64 over an atomic counter
// gives collision-resistant 64-bit IDs without locks.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32)
}

// NewID returns a process-unique non-zero 64-bit identifier.
func NewID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// NewRootContext mints the context of a new sampled trace: the root span has
// no parent.
func NewRootContext() SpanContext {
	return SpanContext{TraceID: NewID(), SpanID: NewID(), Flags: FlagSampled}
}

// Sampler decides 1-in-N which requests become traces.  A nil Sampler (or
// every ≤ 0) samples nothing: Context() returns the zero SpanContext, the
// request travels untraced, and no allocation happens anywhere downstream.
type Sampler struct {
	every uint64
	n     atomic.Uint64
}

// NewSampler samples one of every `every` requests; every ≤ 0 disables
// sampling entirely (returns nil).
func NewSampler(every int) *Sampler {
	if every <= 0 {
		return nil
	}
	return &Sampler{every: uint64(every)}
}

// Context returns a fresh sampled root context for 1-in-N calls and the
// zero context otherwise.
func (s *Sampler) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	if s.n.Add(1)%s.every != 0 {
		return SpanContext{}
	}
	return NewRootContext()
}

// ID is a 64-bit span/trace identifier rendered as 16 hex digits in JSON —
// stable across tools that would lose precision parsing a u64 as a float.
type ID uint64

// MarshalJSON renders the ID as a quoted 16-digit hex string.
func (id ID) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 18)
	b = append(b, '"')
	b = appendHex16(b, uint64(id))
	b = append(b, '"')
	return b, nil
}

func appendHex16(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[(v>>uint(shift))&0xF])
	}
	return b
}

// UnmarshalJSON accepts either a hex string (the canonical form) or a bare
// decimal number (forward tolerance for exporters that emit numbers).
func (id *ID) UnmarshalJSON(b []byte) error {
	if len(b) >= 2 && b[0] == '"' && b[len(b)-1] == '"' {
		v, err := strconv.ParseUint(string(b[1:len(b)-1]), 16, 64)
		if err != nil {
			return fmt.Errorf("trace: bad hex id %q: %v", b, err)
		}
		*id = ID(v)
		return nil
	}
	v, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("trace: bad id %q: %v", b, err)
	}
	*id = ID(v)
	return nil
}

// Span kinds.
const (
	KindClient = "client" // an outgoing RPC as timed by its issuer
	KindServer = "server" // a request's residency inside one tier
)

// Span is one recorded operation.  Start/Duration are integer nanoseconds
// (Unix epoch) so the export format needs no time-zone or layout parsing.
type Span struct {
	TraceID  ID     `json:"trace"`
	SpanID   ID     `json:"span"`
	ParentID ID     `json:"parent,omitempty"`
	Name     string `json:"name"`
	Kind     string `json:"kind,omitempty"`
	// Service labels the recording process/tier (e.g. "hdsearch-mid").
	Service  string `json:"service,omitempty"`
	Start    int64  `json:"start"`
	Duration int64  `json:"dur"`
	Err      string `json:"err,omitempty"`
	// Notes carries flat annotations: "hedge", "retry", "abandoned",
	// "batched", "shard=3", …  (Files written before the typed stage record
	// existed carry its segments here, as "queue=12µs".)
	Notes []string `json:"notes,omitempty"`
	// Stages is the stage record of a mid-tier's server span: where the
	// request's residence time went inside the tier.  Nil on every other span.
	Stages *Stages `json:"stages,omitempty"`
}

// End is the span's finish instant in Unix nanoseconds.
func (s *Span) End() int64 { return s.Start + s.Duration }

// HasNote reports whether one of the span's notes equals note exactly.
func (s *Span) HasNote(note string) bool {
	for _, n := range s.Notes {
		if n == note {
			return true
		}
	}
	return false
}

// Recorder collects finished spans, bounded so a runaway sampler cannot
// exhaust memory; overflow increments a drop counter instead of blocking.
// All methods are safe for concurrent use; a nil *Recorder discards.
type Recorder struct {
	service string
	max     int

	mu      sync.Mutex
	spans   []Span
	dropped atomic.Uint64
}

// DefaultRecorderCap bounds a Recorder that was given no explicit capacity.
const DefaultRecorderCap = 1 << 16

// NewRecorder returns a recorder labelling spans with service; max ≤ 0
// selects DefaultRecorderCap.
func NewRecorder(service string, max int) *Recorder {
	if max <= 0 {
		max = DefaultRecorderCap
	}
	return &Recorder{service: service, max: max}
}

// Record stores one finished span, stamping the recorder's service label
// unless the span carries its own.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	if s.Service == "" {
		s.Service = r.service
	}
	r.mu.Lock()
	if len(r.spans) >= r.max {
		r.mu.Unlock()
		r.dropped.Add(1)
		return
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Dropped reports how many spans overflowed the capacity bound.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Snapshot copies out every recorded span.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}
