package rpc

import (
	"fmt"
	"sync"
	"time"

	"musuite/internal/telemetry"
	"musuite/internal/trace"
	"musuite/internal/wire"
)

// Cross-request batching.  At high load the mid-tier's fan-out issues many
// small leaf RPCs whose per-call framing, syscall, and scheduling costs
// dominate; a Batcher coalesces outstanding calls bound for the same leaf
// replica into one carrier RPC.  The carrier payload is a length-prefixed
// sequence of (method, payload) sub-messages and its reply carries a status
// byte per item, so one poisoned item fails alone without condemning its
// batch-mates or being mistaken for a transport failure.

// BatchMethod is the reserved method name of a batched carrier RPC.
const BatchMethod = "rpc.batch"

// Carrier flag bits (one flags byte follows the member count).
const (
	// batchMemberTraced — every member is prefixed with a span-context
	// header (trace ID, span ID, parent ID, flags).
	batchMemberTraced uint8 = 1 << 0
)

func encodeMemberContext(enc *wire.Encoder, sc trace.SpanContext) {
	enc.Uint64(sc.TraceID)
	enc.Uint64(sc.SpanID)
	enc.Uint64(sc.ParentID)
	enc.Uint8(sc.Flags)
}

func decodeMemberContext(dec *wire.Decoder) trace.SpanContext {
	var sc trace.SpanContext
	sc.TraceID = dec.Uint64()
	sc.SpanID = dec.Uint64()
	sc.ParentID = dec.Uint64()
	sc.Flags = dec.Uint8()
	return sc
}

// Per-item status bytes in a carrier reply.
const (
	batchOK  = 0 // reply payload follows
	batchErr = 1 // error text follows
)

// BatchItemError is an application-level failure of one member of a batch:
// the leaf received the carrier, executed this item, and rejected it, while
// the carrier RPC itself (and possibly every other item) succeeded.
// Classify maps it to ClassApplication so a per-item rejection is never
// retried as if the whole batch had hit a connection failure.
type BatchItemError struct {
	// Msg is the error text produced by the remote handler for this item.
	Msg string
}

func (e *BatchItemError) Error() string { return "rpc: batch item error: " + e.Msg }

// appendBatch encodes members into a carrier payload.  Layout: uvarint
// count | u8 flags | members, each (method, payload) prefixed with a
// span-context header when any member is sampled (batchMemberTraced), so
// each member keeps its own identity across the batch.
func appendBatch(enc *wire.Encoder, members []*Call) {
	var flags uint8
	for _, m := range members {
		if m.Trace.Sampled() {
			flags |= batchMemberTraced
			break
		}
	}
	enc.Uvarint(uint64(len(members)))
	enc.Uint8(flags)
	for _, m := range members {
		if flags&batchMemberTraced != 0 {
			encodeMemberContext(enc, m.Trace)
		}
		enc.String(m.Method)
		enc.BytesField(m.Payload)
	}
}

// DecodeBatchInto decodes a carrier payload into parallel
// method/payload/span-context slices, reusing the capacity of the scratch
// the caller passes (pass methods[:0]/payloads[:0]/spans[:0] of recycled
// slices).  spans always comes back with one entry per member — the zero
// SpanContext for untraced carriers.  Payloads are views into b, valid
// only while b is.  Method names are interned against the previous
// item — a fan-out's carrier typically repeats one method, so in steady
// state decoding a whole batch allocates nothing.  A payload that claims
// more members than it has bytes is rejected before anything is sized from it.
func DecodeBatchInto(b []byte, methods []string, payloads [][]byte, spans []trace.SpanContext) ([]string, [][]byte, []trace.SpanContext, error) {
	dec := wire.NewDecoder(b)
	n := int(dec.Uvarint())
	flags := dec.Uint8()
	if err := dec.Err(); err != nil {
		return methods, payloads, spans, err
	}
	if n < 0 || n > dec.Remaining() {
		return methods, payloads, spans, wire.ErrTooLarge
	}
	for i := 0; i < n && dec.Err() == nil; i++ {
		if flags&batchMemberTraced != 0 {
			spans = append(spans, decodeMemberContext(dec))
		} else {
			spans = append(spans, trace.SpanContext{})
		}
		mview := dec.BytesView()
		if last := len(methods) - 1; last >= 0 && string(mview) == methods[last] {
			methods = append(methods, methods[last])
		} else {
			methods = append(methods, string(mview))
		}
		payloads = append(payloads, dec.BytesView())
	}
	if err := dec.Err(); err != nil {
		return methods, payloads, spans, err
	}
	return methods, payloads, spans, nil
}

// AppendBatchReplyHeader begins a streamed carrier reply of n items in enc;
// follow with exactly n AppendBatchReplyItem calls.
func AppendBatchReplyHeader(enc *wire.Encoder, n int) {
	enc.Uvarint(uint64(n))
}

// AppendBatchReplyItem encodes one item's result: reply on a nil err, the
// error text otherwise.  The leaf's streamed batch path encodes each member
// straight into the carrier encoder this way, with no per-member reply
// slice surviving the loop.
func AppendBatchReplyItem(enc *wire.Encoder, reply []byte, err error) {
	if err != nil {
		enc.Uint8(batchErr)
		enc.String(err.Error())
	} else {
		enc.Uint8(batchOK)
		enc.BytesField(reply)
	}
}

// beginBatchReply positions d at the first item of a carrier reply that must
// carry exactly want items; anything else is a malformed reply (a
// transport-class failure for the whole batch).
func beginBatchReply(d *wire.Decoder, b []byte, want int) error {
	d.Reset(b)
	n := int(d.Uvarint())
	if err := d.Err(); err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("rpc: batch reply carries %d items, want %d", n, want)
	}
	return nil
}

// nextBatchReplyItem decodes item i: its reply, a view into the carrier
// reply, or its error — a *BatchItemError for an item the leaf rejected.
func nextBatchReplyItem(d *wire.Decoder, i int) (view []byte, err error) {
	switch d.Uint8() {
	case batchOK:
		view = d.BytesView()
	case batchErr:
		err = &BatchItemError{Msg: d.String()}
	default:
		err = fmt.Errorf("rpc: batch reply item %d: unknown status", i)
	}
	if derr := d.Err(); derr != nil {
		return nil, derr
	}
	return view, err
}

// BatcherOptions configures a Batcher.
type BatcherOptions struct {
	// MaxBatch caps members per carrier RPC; reaching it flushes
	// immediately.  Values below 2 degrade to per-call sends.
	MaxBatch int
	// Delay returns the flush delay armed when the queue goes from empty
	// to non-empty.  It is consulted per arm, so an adaptive policy (a
	// fraction of the tracked leaf-latency digest) takes effect without
	// reconfiguring the batcher.  nil means a fixed 50µs.
	Delay func() time.Duration
	// Counters receives the occupancy/flush-cause batch.* counters — the
	// owning tier's table; nil disables counting.
	Counters *telemetry.Table
}

// memberSlices recycles the member slices a flush hands to its demux.
var memberSlices = sync.Pool{New: func() any { return make([]*Call, 0, 32) }}

func putMemberSlice(s []*Call) {
	for i := range s {
		s[i] = nil
	}
	memberSlices.Put(s[:0]) //nolint:staticcheck // slice header indirection is fine here
}

// Batcher coalesces calls bound for one destination pool into carrier RPCs.
// A batch is flushed by whichever comes first of MaxBatch members or the
// flush delay; member calls complete individually, exactly as if they had
// been sent alone (same OnResponse hook, same Done delivery), so fan-out
// bookkeeping, hedging, and retries upstream never see the carrier.
type Batcher struct {
	pool       *Pool
	maxBatch   int
	delay      func() time.Duration
	counters   *telemetry.Table
	onResponse func(*Call) bool
	spans      *trace.Recorder

	mu     sync.Mutex
	queue  []*Call
	timer  *time.Timer
	gen    uint64 // flush generation; disarms stale deadline timers
	closed bool
}

// NewBatcher wraps pool with a batcher.  Member completions run the pool's
// OnResponse hook, preserving the response-thread hand-off of unbatched
// calls.
func NewBatcher(pool *Pool, opts BatcherOptions) *Batcher {
	b := &Batcher{
		pool:     pool,
		maxBatch: opts.MaxBatch,
		delay:    opts.Delay,
		counters: opts.Counters,
	}
	if b.maxBatch < 1 {
		b.maxBatch = 1
	}
	if b.delay == nil {
		b.delay = func() time.Duration { return 50 * time.Microsecond }
	}
	if pool.opts != nil {
		b.onResponse = pool.opts.OnResponse
		b.spans = pool.opts.Spans
	}
	return b
}

// Go enqueues an asynchronous call for the batcher's destination.  The
// returned Call completes like a Client.Go call; Sent is the enqueue
// instant, so observed latency includes time spent waiting for batch-mates.
// A non-nil done must be buffered, as for Client.Go.
func (b *Batcher) Go(method string, payload []byte, data any, done chan *Call) *Call {
	call := newCall(method, payload, trace.SpanContext{}, data, done)
	b.enqueue(call)
	return call
}

// GoRefSpan is Client.GoRefSpan for a member: sc rides the carrier as a
// per-member span-context header (or the plain frame header if the member
// ends up flushed alone), so batching never loses a request's identity.
func (b *Batcher) GoRefSpan(method string, payload []byte, sc trace.SpanContext, data any, done chan *Call) CallRef {
	call := newCall(method, payload, sc, data, done)
	ref := call.Ref()
	b.enqueue(call)
	return ref
}

func (b *Batcher) enqueue(call *Call) {
	call.Sent = time.Now()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		call.Err = ErrClientClosed
		b.complete(call)
		return
	}
	if b.queue == nil {
		b.queue = memberSlices.Get().([]*Call)
	}
	b.queue = append(b.queue, call)
	if len(b.queue) >= b.maxBatch {
		members := b.takeLocked()
		b.mu.Unlock()
		b.send(members, telemetry.BatchFlushSize)
		return
	}
	if len(b.queue) == 1 {
		gen := b.gen
		b.timer = time.AfterFunc(b.delay(), func() { b.deadlineFlush(gen) })
	}
	b.mu.Unlock()
}

// takeLocked claims the queued members and disarms the deadline timer.
func (b *Batcher) takeLocked() []*Call {
	members := b.queue
	b.queue = nil
	b.gen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return members
}

func (b *Batcher) deadlineFlush(gen uint64) {
	b.mu.Lock()
	if b.closed || gen != b.gen || len(b.queue) == 0 {
		b.mu.Unlock()
		return
	}
	members := b.takeLocked()
	b.mu.Unlock()
	b.send(members, telemetry.BatchFlushDeadline)
}

// AbandonRef cancels the referenced member if its generation is still
// current.  A still-queued member is removed (and recycled) before it is
// ever sent; a member already in flight is marked cancelled so the
// demultiplexer discards its slot of the carrier reply.  Mirrors
// Client.AbandonRef for the losing side of a hedged pair.
//
// It reports whether the member was removed from the queue here — a true
// return guarantees the call will never be delivered; false means the
// member was already claimed for a carrier (its delivery or discard is the
// send/demux path's business).
func (b *Batcher) AbandonRef(r CallRef) bool {
	if r.call == nil {
		return false
	}
	r.call.cancelAt(r.gen)
	b.mu.Lock()
	for i, m := range b.queue {
		// Pointer + generation must both match: the struct may have been
		// recycled and re-enqueued here as an unrelated member.
		if m == r.call && m.gen.Load() == r.gen {
			b.queue = append(b.queue[:i], b.queue[i+1:]...)
			b.mu.Unlock()
			// Never sent, removed under the lock: this goroutine is the
			// sole owner now, so the struct can go straight back.
			m.Release()
			return true
		}
	}
	b.mu.Unlock()
	return false
}

// Close flushes any queued members as a final carrier and rejects further
// enqueues.  It does not close the underlying pool.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	members := b.takeLocked()
	b.mu.Unlock()
	if len(members) > 0 {
		b.send(members, telemetry.BatchFlushShutdown)
	}
}

// send ships claimed members as one carrier RPC (or, for a lone survivor,
// as a plain call — no carrier overhead when nothing coalesced).
func (b *Batcher) send(members []*Call, cause telemetry.Counter) {
	live := members[:0]
	for _, m := range members {
		if m.isCancelled() {
			// Cancelled after being claimed from the queue: the abandon
			// path could no longer remove it, so ownership is ours.
			m.Release()
			continue
		}
		live = append(live, m)
	}
	if len(live) == 0 {
		putMemberSlice(members)
		return
	}
	b.counters.Add(telemetry.BatchCarriers, 1)
	b.counters.Add(telemetry.BatchMembers, uint64(len(live)))
	b.counters.Add(cause, 1)
	if len(live) == 1 {
		call := live[0]
		putMemberSlice(members)
		b.pool.Pick().start(call)
		return
	}
	enc := wire.GetEncoder()
	appendBatch(enc, live)
	carrier := getCall()
	carrier.Method = BatchMethod
	carrier.Payload = enc.Bytes()
	carrier.onDone = func(c *Call) { b.demux(live, c) }
	b.pool.Pick().start(carrier)
	// start copies the payload into the connection's write buffer before
	// returning, so the carrier encoder can recycle immediately.
	wire.PutEncoder(enc)
}

// demux distributes a carrier completion to its member calls on the reader
// goroutine — the same goroutine unbatched completions arrive on.  Member
// replies are views into the carrier's pooled reply buffer, shared by
// reference count instead of copied per member.
func (b *Batcher) demux(members []*Call, carrier *Call) {
	received := carrier.Received
	if received.IsZero() {
		received = time.Now()
	}
	// A whole-carrier failure — a transport- or server-level error, or a
	// malformed reply — leaves every member's fate unknown: each fails with
	// that error so per-item retry policy sees its true class.
	var d wire.Decoder
	err := carrier.Err
	if err == nil {
		err = beginBatchReply(&d, carrier.Reply, len(members))
	}
	if err != nil {
		for _, m := range members {
			if m.isCancelled() {
				m.Release()
				continue
			}
			m.Err = err
			m.Received = received
			b.complete(m)
		}
		carrier.Release()
		putMemberSlice(members)
		return
	}
	cbuf := carrier.TakeReplyBuf()
	for i, m := range members {
		view, merr := nextBatchReplyItem(&d, i)
		if m.isCancelled() {
			m.Release()
			continue
		}
		if view != nil && cbuf != nil {
			// The member's reply aliases the carrier buffer; share it by
			// reference so the buffer survives until every member's
			// consumer has released its view.
			cbuf.Retain()
			m.replyBuf = cbuf
		}
		m.Reply = view
		m.Err = merr
		m.Received = received
		b.complete(m)
	}
	cbuf.Release()
	carrier.Release()
	putMemberSlice(members)
}

// complete mirrors Client.complete for members that never traversed a
// client of their own (carrier demux, closed-batcher rejection).
func (b *Batcher) complete(call *Call) {
	if b.spans != nil && call.Trace.Sampled() {
		recordCallSpan(b.spans, call)
	}
	if b.onResponse != nil && b.onResponse(call) {
		return
	}
	call.finish()
}
