package rpc

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"musuite/internal/telemetry"
	"musuite/internal/trace"
)

// Call is the explicit state of one in-flight RPC.  μSuite's asynchronous
// design keeps no thread bound to a call: the client writes the request,
// continues with other work, and a shared reader goroutine later matches the
// response to this struct through the pending table.
//
// Calls are pooled.  A call obtained from Go/GoSpan may be returned to the
// pool with Release once its consumer is done with it; callers that never
// Release simply fall back to garbage collection.  After Release the Call —
// including Reply, unless its buffer was taken first — must not be touched:
// the struct may immediately carry an unrelated RPC.
type Call struct {
	// Method and Payload describe the request.
	Method  string
	Payload []byte
	// Reply holds the response payload after completion.  It may alias a
	// pooled buffer owned by the Call: copy out what must outlive Release
	// (the synchronous Call does), or hold the buffer with TakeReplyBuf.
	Reply []byte
	// Err holds the failure, if any.
	Err error
	// Done receives the call exactly once upon completion.
	Done chan *Call
	// Sent is when the request hit the socket; Received when the response
	// frame was fully decoded on the reader goroutine.
	Sent     time.Time
	Received time.Time
	// Data is opaque caller state carried with the call; the mid-tier
	// framework uses it to associate a leaf response with its fan-out.
	Data any
	// Trace is the span context of this RPC's client span, propagated on
	// the wire when sampled.  Zero for untraced calls — the frame layout
	// and allocation profile are then identical to a build without tracing.
	Trace trace.SpanContext

	id uint64
	// gen counts the struct's reuses.  Every cancellation and reference is
	// stamped with the generation it was issued against, so a late Abandon
	// from a hedge loser's previous life can never touch the call's next
	// occupant.
	gen atomic.Uint32
	// cancelled holds a cancellation marker — zero for never cancelled,
	// cancelMarker(g) for a cancel issued against generation g.  Markers
	// only ever increase, so a stale cancel cannot clobber a newer one.
	cancelled atomic.Uint64

	// onDone, when set, replaces the normal completion path (OnResponse
	// hook + Done delivery).  The batcher sets it on the carrier call of a
	// batched RPC so the response is demultiplexed to the member calls
	// instead of being delivered as a call of its own.
	onDone func(*Call)

	// replyBuf is the pooled buffer backing Reply, recycled on Release.
	replyBuf *Buf
	// ownDone is the call's resident completion channel, allocated once
	// per struct lifetime and reused across recycles when the caller
	// passes done == nil.
	ownDone chan *Call
	pooled  bool
}

// callPool recycles Call structs across RPCs.
var callPool = sync.Pool{New: func() any { return &Call{pooled: true} }}

// getCall returns a zeroed pooled call.
func getCall() *Call {
	return callPool.Get().(*Call)
}

func cancelMarker(gen uint32) uint64 { return uint64(gen)<<1 | 1 }

// cancelAt records a cancellation against generation gen.  Markers are
// raised monotonically: a cancel from a stale generation is a no-op once a
// newer one (or the same) has been recorded.
func (c *Call) cancelAt(gen uint32) {
	m := cancelMarker(gen)
	for {
		cur := c.cancelled.Load()
		if cur >= m || c.cancelled.CompareAndSwap(cur, m) {
			return
		}
	}
}

// isCancelled reports whether this generation of the call was abandoned.
func (c *Call) isCancelled() bool {
	return c.cancelled.Load() == cancelMarker(c.gen.Load())
}

// Ref returns a generation-stamped reference to the call, valid for
// AbandonRef and identity comparison even after the call is released — a
// stale ref simply stops matching.  Capture it while the call is still
// owned (before Release or Done delivery).
func (c *Call) Ref() CallRef {
	return CallRef{call: c, id: c.id, gen: c.gen.Load()}
}

// CallRef is a weak, generation-stamped handle on a Call.  The zero value
// references nothing.  Refs are comparable: two refs are equal exactly when
// they name the same call in the same lifetime.
type CallRef struct {
	call *Call
	id   uint64
	gen  uint32
}

// TakeReplyBuf detaches and returns the pooled buffer backing Reply (nil
// when the reply is unpooled or empty).  The caller assumes the buffer's
// reference and must Release it once Reply's bytes are dead — the mid-tier
// holds these across a fan-out and releases them after the merge callback
// returns.
func (c *Call) TakeReplyBuf() *Buf {
	b := c.replyBuf
	c.replyBuf = nil
	return b
}

// Release returns the call to the pool.  Only the call's consumer — whoever
// received it on Done or observed it via a consuming OnResponse hook — may
// call it, exactly once; the struct, and Reply unless its buffer was taken, must not be
// touched afterwards.  Safe no-op for calls not drawn from the pool.
func (c *Call) Release() {
	if c == nil || !c.pooled {
		return
	}
	if c.replyBuf != nil {
		c.replyBuf.Release()
		c.replyBuf = nil
	}
	if c.ownDone != nil {
		// Drain a delivery nobody consumed so the next occupant starts
		// with an empty channel.
		select {
		case <-c.ownDone:
		default:
		}
	}
	c.Method = ""
	c.Payload = nil
	c.Reply = nil
	c.Err = nil
	c.Done = nil
	c.Sent = time.Time{}
	c.Received = time.Time{}
	c.Data = nil
	c.Trace = trace.SpanContext{}
	c.id = 0
	c.onDone = nil
	c.gen.Add(1)
	callPool.Put(c)
}

// ownedDone returns the call's resident buffered completion channel.
func (c *Call) ownedDone() chan *Call {
	if c.ownDone == nil {
		c.ownDone = make(chan *Call, 1)
	}
	return c.ownDone
}

func (c *Call) finish() {
	if c.isCancelled() {
		// An abandoned call (a hedge's loser, a superseded retry): nobody
		// is waiting on Done, so delivering would only confuse.
		return
	}
	select {
	case c.Done <- c:
	default:
		// Done is full: the caller shares one channel among more in-flight
		// calls than its capacity.  Go rejects unbuffered channels, so
		// this blocks the reader only against a consumer that is actively
		// draining — backpressure, not a leaked goroutine per delivery.
		c.Done <- c
	}
}

// ClientOptions configures a client connection.
type ClientOptions struct {
	// Probe receives telemetry; nil disables instrumentation.
	Probe *telemetry.Probe
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// OnResponse, when set, is invoked on the reader goroutine right after
	// a call completes.  Returning true means the hook consumed the call —
	// ownership transferred, no Done delivery — which is how the mid-tier
	// hands fan-out responses to its response-thread pool.  Returning
	// false falls through to normal Done delivery.
	OnResponse func(*Call) bool
	// Spans, when set, records a client span for every sampled call this
	// connection completes.  Leave nil on tiers that record their own
	// attempt spans (the mid-tier fan-out) to avoid double counting.
	Spans *trace.Recorder
}

// pendingShards is the pending-table stripe count, a power of two.  It
// balances lock spread against footprint: at 8, two response threads plus a
// burst of senders rarely collide on one shard.
const pendingShards = 8

// pendingShard is one stripe of the pending table.  Padded so neighbouring
// shards' locks do not share a cache line (the HITM source striping exists
// to eliminate).
type pendingShard struct {
	mu    *telemetry.Mutex
	calls map[uint64]*Call
	_     [48]byte
}

// Client is one TCP connection multiplexing many concurrent calls.
type Client struct {
	conn  *net.TCPConn
	probe *telemetry.Probe
	// wq coalesces concurrently submitted frames into batched writes.
	wq *writeQueue

	// The pending table, sharded by call ID so concurrent senders and the
	// reader contend per-stripe, with an atomic in-flight count so load
	// probes (JSQ replica selection) never touch a lock.  inflight counts
	// the requests whose response the peer still owes — abandoned of them
	// have left the table and wait only to be discarded.
	shards    []pendingShard
	shardMask uint64
	nextID    atomic.Uint64
	inflight  atomic.Int64
	abandoned atomic.Int64

	closed     atomic.Bool
	connClosed atomic.Bool

	onResponse func(*Call) bool
	readerDone chan struct{}
	spans      *trace.Recorder
}

// Dial connects to a μSuite RPC server at addr.
func Dial(addr string, opts *ClientOptions) (*Client, error) {
	var (
		probe      *telemetry.Probe
		timeout    = 5 * time.Second
		onResponse func(*Call) bool
		spans      *trace.Recorder
	)
	if opts != nil {
		probe = opts.Probe
		if opts.DialTimeout > 0 {
			timeout = opts.DialTimeout
		}
		onResponse = opts.OnResponse
		spans = opts.Spans
	}
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	conn := nc.(*net.TCPConn)
	// Microservice RPCs are latency-critical: never nagle.
	conn.SetNoDelay(true)
	c := &Client{
		conn:       conn,
		probe:      probe,
		shards:     make([]pendingShard, pendingShards),
		shardMask:  pendingShards - 1,
		onResponse: onResponse,
		readerDone: make(chan struct{}),
		spans:      spans,
	}
	for i := range c.shards {
		c.shards[i].mu = telemetry.NewMutex(probe)
		c.shards[i].calls = make(map[uint64]*Call)
	}
	// A failed write hangs the connection up and leaves closing it to the
	// reader: the send that failed may be a hedge or retry issued from an
	// OnResponse hook, on the reader itself.
	c.wq = newWriteQueue(conn, probe, func(error) { hangUp(conn) })
	probe.Add(telemetry.SysClone, 1)
	go c.readLoop()
	return c, nil
}

// newCall takes a call from the pool and fills in what every issue entry
// point — the client's and the batcher's — sets before the call is sent.
func newCall(method string, payload []byte, sc trace.SpanContext, data any, done chan *Call) *Call {
	call := getCall()
	call.Method, call.Payload, call.Data, call.Trace = method, payload, data, sc
	if done == nil {
		done = call.ownedDone()
	} else if cap(done) == 0 {
		panic("rpc: done channel must be buffered")
	}
	call.Done = done
	return call
}

// Go issues an asynchronous call carrying opaque data.  done may be nil, in
// which case the call's own buffered channel is used.  A non-nil done must
// be buffered — with enough slack for every call that shares it — or Go
// panics; completion delivery must never require a goroutine per call.  The
// returned Call is delivered on done when the response (or failure)
// arrives; the OnResponse hook, if configured, fires exactly once per call
// on every completion path.
func (c *Client) Go(method string, payload []byte, data any, done chan *Call) *Call {
	return c.GoSpan(method, payload, trace.SpanContext{}, data, done)
}

// GoSpan is Go for a traced call: sc (the context of this RPC's client
// span) travels in the frame header so the server can parent its own span
// under it.  Pass a zero sc for an unsampled request — the call then
// behaves exactly like Go.
func (c *Client) GoSpan(method string, payload []byte, sc trace.SpanContext, data any, done chan *Call) *Call {
	call := newCall(method, payload, sc, data, done)
	c.start(call)
	return call
}

// GoRefSpan is GoSpan returning a generation-stamped reference instead of the
// call: the ref is captured before the request can complete, so it is safe
// to use for Abandon even if the response races the send and the consumer
// has already recycled the call.
func (c *Client) GoRefSpan(method string, payload []byte, sc trace.SpanContext, data any, done chan *Call) CallRef {
	return c.start(newCall(method, payload, sc, data, done))
}

// start registers a caller-constructed call and writes its request frame,
// returning a ref captured before the frame hits the wire.  Shared by Go
// and the batcher (which sends prebuilt carrier calls and, for
// single-member flushes, the member call itself).
func (c *Client) start(call *Call) CallRef {
	id := c.nextID.Add(1)
	call.id = id
	ref := CallRef{call: call, id: id, gen: call.gen.Load()}
	sh := &c.shards[id&c.shardMask]
	sh.mu.Lock()
	if c.closed.Load() {
		sh.mu.Unlock()
		call.Err = ErrClientClosed
		c.complete(call)
		return ref
	}
	sh.calls[id] = call
	sh.mu.Unlock()
	c.inflight.Add(1)

	call.Sent = time.Now()
	if err := c.wq.enqueue(kindRequest, id, call.Trace, call.Method, call.Payload); err != nil {
		c.failCall(id, err)
	}
	return ref
}

// complete runs the OnResponse hook (if any) and delivers the call.
func (c *Client) complete(call *Call) {
	if call.onDone != nil {
		call.onDone(call)
		return
	}
	if c.spans != nil && call.Trace.Sampled() {
		recordCallSpan(c.spans, call)
	}
	if c.onResponse != nil && c.onResponse(call) {
		return // consumed: ownership passed to the hook
	}
	call.finish()
}

// recordCallSpan emits the client span of a completed sampled call.
func recordCallSpan(rec *trace.Recorder, call *Call) {
	start := call.Sent
	if start.IsZero() {
		start = time.Now()
	}
	end := call.Received
	if end.IsZero() {
		end = time.Now()
	}
	s := trace.Span{
		TraceID:  trace.ID(call.Trace.TraceID),
		SpanID:   trace.ID(call.Trace.SpanID),
		ParentID: trace.ID(call.Trace.ParentID),
		Name:     call.Method,
		Kind:     trace.KindClient,
		Start:    start.UnixNano(),
		Duration: end.Sub(start).Nanoseconds(),
	}
	if s.Duration < 0 {
		s.Duration = 0
	}
	if call.Err != nil {
		s.Err = call.Err.Error()
	}
	rec.Record(s)
}

// Call issues a synchronous RPC and waits for the response.  The reply is the
// caller's own exact-size copy (nil when the response carried no bytes): the
// buffer the frame was read into goes back to its pool with the call.
func (c *Client) Call(method string, payload []byte) ([]byte, error) {
	call := c.Go(method, payload, nil, nil)
	<-call.Done
	return call.consume()
}

// CallTimeout is Call with a deadline.  On expiry the call is abandoned
// (its late response, if any, is discarded) and ErrTimeout returned.
func (c *Client) CallTimeout(method string, payload []byte, d time.Duration) ([]byte, error) {
	call := c.Go(method, payload, nil, nil)
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-call.Done:
	case <-timer.C:
		c.failCall(call.id, ErrTimeout)
		<-call.Done
		if call.Err != nil {
			call.Release()
			return nil, ErrTimeout
		}
		// The response raced the timeout and won; accept it.
	}
	return call.consume()
}

// consume ends a completed synchronous call: it copies the reply out of the
// pooled frame buffer and releases the call, buffer included.
func (c *Call) consume() ([]byte, error) {
	var reply []byte
	if len(c.Reply) > 0 {
		reply = make([]byte, len(c.Reply))
		copy(reply, c.Reply)
	}
	err := c.Err
	c.Release()
	return reply, err
}

// Abandon cancels an outstanding call: its pending-table entry is removed,
// so a late response is silently discarded at the reader, and the call is
// never delivered on Done.  Valid only while the caller still owns the call
// (before Release); prefer AbandonRef where the call's consumer may recycle
// it concurrently.  The server may still execute the request —
// cancellation stops waiting, not remote work.
func (c *Client) Abandon(call *Call) {
	c.AbandonRef(call.Ref())
}

// AbandonRef cancels the referenced call if its generation is still
// current.  Used to cancel the losing side of a hedged request pair: the
// loser's consumer may complete and recycle it at any moment, which a stale
// ref tolerates by doing nothing.
//
// It reports whether the pending-table entry was removed here — a true
// return guarantees the call will never be delivered (no Done send, no
// OnResponse); false means delivery already happened or is in flight.
func (c *Client) AbandonRef(r CallRef) bool {
	if r.call == nil {
		return false
	}
	r.call.cancelAt(r.gen)
	if r.id == 0 {
		return false
	}
	sh := &c.shards[r.id&c.shardMask]
	sh.mu.Lock()
	_, ok := sh.calls[r.id]
	if ok {
		// The abandoned call is never completed or released here — the
		// abandoner does not own it; the struct falls to the collector.  It
		// stays in the in-flight count until the reader discards its
		// response, so it is booked under the lock the reader's lookup takes:
		// a reader that finds the entry gone also finds it counted.
		delete(sh.calls, r.id)
		c.abandoned.Add(1)
	}
	sh.mu.Unlock()
	return ok
}

// Pending reports the number of requests the peer has not answered yet.  An
// abandoned call counts until its discarded response arrives: the server is
// still working on it — and if that work runs on the connection's poller,
// nothing sent behind it is read before it ends — so replica selection must
// keep seeing it.  A closed connection is owed nothing.  Reads two atomics:
// the JSQ load probe costs no lock.
func (c *Client) Pending() int {
	if c.closed.Load() {
		return 0
	}
	return int(c.inflight.Load())
}

// claim removes and returns the pending call for id.
func (c *Client) claim(id uint64) (*Call, bool) {
	sh := &c.shards[id&c.shardMask]
	sh.mu.Lock()
	call, ok := sh.calls[id]
	if ok {
		delete(sh.calls, id)
	}
	sh.mu.Unlock()
	if ok {
		c.inflight.Add(-1)
	}
	return call, ok
}

// failCall completes a pending call with err, if it is still pending.
func (c *Client) failCall(id uint64, err error) {
	if call, ok := c.claim(id); ok {
		call.Err = err
		c.complete(call)
	}
}

// readLoop is the response reception thread shared by all in-flight calls.
// When the connection ends — the peer's doing, a hang-up after a failed write
// or a local Close — it fails what is pending and closes the socket.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	err := newConnReader(c.conn, c.probe, c.onFrame).run()
	c.failAll(err)
	c.closeConn()
}

// onFrame runs on the reader for every decoded frame: it matches a response
// to its pending call and completes it.
func (c *Client) onFrame(f *frame, _ bool) {
	if f.kind != kindResponse && f.kind != kindError && f.kind != kindReject {
		return
	}
	received := time.Now()

	// Pending-table lookup under the shard lock: the read-mostly
	// shared state access we classify as the RCU analog.
	lookupStart := c.probe.Start()
	call, ok := c.claim(f.id)
	c.probe.ObserveSince(telemetry.OverheadRCU, lookupStart)
	if !ok {
		// An abandoned (hedged-out, timed-out) call: drop the frame; the
		// peer no longer owes it.
		if c.abandoned.Load() > 0 {
			c.abandoned.Add(-1)
			c.inflight.Add(-1)
		}
		return
	}

	if f.kind == kindError {
		call.Err = &RemoteError{Msg: string(f.payload)}
	} else if f.kind == kindReject {
		call.Err = &OverloadError{Msg: string(f.payload)}
	} else {
		// The call takes over the buffer the frame was read into.
		call.Reply = f.payload
		call.replyBuf = f.take()
	}
	call.Received = received
	c.complete(call)
}

// failAll fails every pending call after a connection-level error.
func (c *Client) failAll(err error) {
	if errors.Is(err, net.ErrClosed) {
		err = ErrClientClosed
	}
	c.closed.Store(true)
	var calls []*Call
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, call := range sh.calls {
			calls = append(calls, call)
		}
		clear(sh.calls)
		sh.mu.Unlock()
	}
	c.inflight.Add(int64(-len(calls)))
	for _, call := range calls {
		call.Err = err
		c.complete(call)
	}
}

// closeConn closes the socket once, counting the close syscall.  It waits
// for the reader to leave its read callback, so only Close and the reader
// itself (once out of it) call it.
func (c *Client) closeConn() error {
	if !c.connClosed.CompareAndSwap(false, true) {
		return nil
	}
	err := c.conn.Close()
	c.probe.Add(telemetry.SysClose, 1)
	return err
}

// Close shuts the connection down and fails any in-flight calls.
func (c *Client) Close() error {
	if c.closed.Swap(true) && c.connClosed.Load() {
		<-c.readerDone
		return nil
	}
	err := c.closeConn()
	<-c.readerDone
	return err
}

// Addr reports the remote address.
func (c *Client) Addr() string { return c.conn.RemoteAddr().String() }

// Closed reports whether the connection has shut down (locally closed or
// failed).
func (c *Client) Closed() bool {
	return c.closed.Load()
}

// reconnectBackoff rate-limits per-slot redial attempts so a dead
// destination costs one failed dial per interval, not per request.
const reconnectBackoff = 250 * time.Millisecond

// Pool is a fixed set of client connections to one destination, picked
// round-robin.  Router's mid-tier opens one connection per worker thread to
// each destination; a Pool models that connection set.  Dead connections
// are redialed transparently (with backoff), so a leaf that restarts is
// picked back up without reconfiguring the mid-tier.
//
// Every slot is an atomic pointer and redials happen on a background
// goroutine, so Pick, Outstanding, and Healthy never block behind a lock —
// and in particular a dead leaf no longer stalls every caller of the pool
// behind one slot's dial.
type Pool struct {
	addr   string
	opts   *ClientOptions
	slots  []poolSlot
	next   atomic.Uint32
	closed atomic.Bool
}

// poolSlot is one connection slot: the live client, the last redial
// attempt's time, and a flag claiming the in-flight redial.
type poolSlot struct {
	client  atomic.Pointer[Client]
	lastTry atomic.Int64
	dialing atomic.Bool
}

// DialPool opens n connections to addr.
func DialPool(addr string, n int, opts *ClientOptions) (*Pool, error) {
	if n < 1 {
		n = 1
	}
	p := &Pool{addr: addr, opts: opts, slots: make([]poolSlot, n)}
	for i := range p.slots {
		c, err := Dial(addr, opts)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.slots[i].client.Store(c)
	}
	return p, nil
}

// Pick returns the next connection round-robin.  A slot whose connection
// has died is redialed in the background (subject to backoff) while the
// dead client is returned so its caller fails fast — nobody waits out a
// dial on the request path.
func (p *Pool) Pick() *Client {
	s := &p.slots[int(p.next.Add(1)-1)%len(p.slots)]
	c := s.client.Load()
	if p.closed.Load() || !c.Closed() {
		return c
	}
	now := time.Now().UnixNano()
	last := s.lastTry.Load()
	if now-last < int64(reconnectBackoff) || !s.lastTry.CompareAndSwap(last, now) {
		return c
	}
	if !s.dialing.CompareAndSwap(false, true) {
		return c
	}
	go p.redial(s, c)
	return c
}

// redial replaces a dead slot's client off the request path and swaps the
// replacement in.
func (p *Pool) redial(s *poolSlot, dead *Client) {
	defer s.dialing.Store(false)
	var dialOpts ClientOptions
	if p.opts != nil {
		dialOpts = *p.opts
	}
	if dialOpts.DialTimeout <= 0 || dialOpts.DialTimeout > time.Second {
		dialOpts.DialTimeout = time.Second
	}
	nc, err := Dial(p.addr, &dialOpts)
	if err != nil {
		return
	}
	if p.closed.Load() {
		nc.Close()
		return
	}
	if !s.client.CompareAndSwap(dead, nc) {
		// Someone else replaced the slot; discard ours.
		nc.Close()
		return
	}
	dead.Close() // reap the dead client's reader and descriptor
	if p.closed.Load() {
		// Close raced the swap; make sure the new client dies too.
		nc.Close()
	}
}

// Size reports the number of pooled connections.
func (p *Pool) Size() int { return len(p.slots) }

// Outstanding reports the number of in-flight calls across the pool's
// connections — the load signal replica selection uses ("join the shortest
// queue").  Lock-free: one atomic load per connection.
func (p *Pool) Outstanding() int {
	n := 0
	for i := range p.slots {
		n += p.slots[i].client.Load().Pending()
	}
	return n
}

// Healthy reports whether at least one pooled connection is live.  A dead
// pool has zero outstanding calls, so replica selection must not read
// Outstanding alone — an idle-looking corpse would absorb all traffic.
func (p *Pool) Healthy() bool {
	if p.closed.Load() {
		return false
	}
	for i := range p.slots {
		if !p.slots[i].client.Load().Closed() {
			return true
		}
	}
	return false
}

// Close closes every pooled connection and stops reconnection.
func (p *Pool) Close() {
	p.closed.Store(true)
	for i := range p.slots {
		if c := p.slots[i].client.Load(); c != nil {
			c.Close()
		}
	}
}
