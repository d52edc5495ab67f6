package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"musuite/internal/kernel"
	"musuite/internal/rpc"
	"musuite/internal/telemetry"
	"musuite/internal/trace"
	"musuite/internal/wire"
)

// EncodedLeafHandler computes one leaf response, appending it to a pooled
// encoder the leaf provides (and recycles after the reply is copied to the
// wire), so a steady-state leaf response allocates nothing.  It runs on the
// network poller or a leaf worker thread and may take the tens-to-hundreds of
// microseconds that leaf computation (distance kernels, set intersections,
// kNN prediction) typically costs.  The payload is valid only for the
// duration of the call.
type EncodedLeafHandler func(method string, payload []byte, reply *wire.Encoder) error

// LeafHandler is the handler form that returns its reply as a slice (which
// may alias the payload); NewLeaf adapts it to an EncodedLeafHandler.
type LeafHandler func(method string, payload []byte) ([]byte, error)

// LeafOptions configures a leaf microserver.
type LeafOptions struct {
	// Workers sizes the leaf's worker pool (default 4).  The paper pins
	// leaves to fixed core counts with tasksets; the worker count is the
	// equivalent knob here.
	Workers int
	// Probe receives telemetry; nil disables instrumentation.
	Probe *telemetry.Probe
	// Spans, when set, records a server span for every sampled request
	// (and every sampled member of a batched carrier), parented to the
	// caller's client span carried on the wire.
	Spans *trace.Recorder

	// counters is the leaf's table once EnsureLeafKernel has created it (the
	// engine must count into it before the leaf exists); nil otherwise.
	counters *telemetry.Table
}

// EnsureLeafKernel clones opts (nil allowed), creates the table of the leaf
// the options will build, and returns the clone with the compute engine that
// counts into that table — the hook services use so every leaf's handlers
// scan with an engine of its own and its TierStats kernel counters are
// per-leaf.  Each call's result configures exactly one leaf.
func EnsureLeafKernel(opts *LeafOptions) (*LeafOptions, *kernel.Engine) {
	var out LeafOptions
	if opts != nil {
		out = *opts
	}
	out.counters = telemetry.NewTable(out.Probe.Table())
	return &out, kernel.Default().WithCounters(out.counters)
}

// Leaf is a leaf microserver: an RPC server that runs each request's handler
// — on the poller, or on a worker when more input is waiting behind the
// request — and replies when it completes.  It serves multiple concurrent
// requests from several mid-tier connections.  A batched carrier RPC is one
// such request: its members run one by one through the same handler into the
// carrier reply, sharing one dispatch decision and one reply write.
type Leaf struct {
	server  *rpc.Server
	workers *WorkerPool
	handler EncodedLeafHandler
	// runFn and batchFn are the worker-pool entry points, bound once so the
	// per-request submit carries no closure.
	runFn   func(any)
	batchFn func(any)
	spans   *trace.Recorder
	// counters is the leaf's one counter table (served requests, and the
	// kernel.* events of the engine EnsureLeafKernel bound to it);
	// core.stats serves it.
	counters *telemetry.Table
	// running counts the requests whose handler is queued or executing, on a
	// worker or a poller, up to the point their reply is handed to the wire
	// (see MidTier.running).
	running atomic.Int32
	closed  atomic.Bool
}

// NewLeaf creates a leaf microserver around a handler that returns its reply
// as a slice, which the leaf appends to the reply encoder.
func NewLeaf(handler LeafHandler, opts *LeafOptions) *Leaf {
	return NewLeafEncoded(func(method string, payload []byte, reply *wire.Encoder) error {
		b, err := handler(method, payload)
		reply.Raw(b)
		return err
	}, opts)
}

// NewLeafEncoded creates a leaf microserver around handler.
func NewLeafEncoded(handler EncodedLeafHandler, opts *LeafOptions) *Leaf {
	var o LeafOptions
	if opts != nil {
		o = *opts
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.counters == nil {
		o.counters = telemetry.NewTable(o.Probe.Table())
	}
	l := &Leaf{handler: handler, counters: o.counters, spans: o.Spans}
	l.runFn = l.runScalar
	l.batchFn = l.runBatchTask
	l.workers = NewWorkerPool(o.Workers, WaitBlocking, o.Probe, telemetry.OverheadActiveExe)
	l.server = rpc.NewServer(l.onRequest, &rpc.ServerOptions{Probe: o.Probe})
	return l
}

// Start binds the leaf server and begins serving.
func (l *Leaf) Start(addr string) (string, error) { return l.server.Start(addr) }

// Close shuts the leaf down.
func (l *Leaf) Close() {
	if !l.closed.CompareAndSwap(false, true) {
		return
	}
	l.server.Close()
	l.workers.Stop()
}

func (l *Leaf) onRequest(req *rpc.Request) {
	if req.Method == StatsMethod {
		req.Reply(encodeTierStats(l.Stats()))
		req.Recycle()
		return
	}
	fn := l.runFn
	if req.Method == rpc.BatchMethod {
		fn = l.batchFn
	}
	if l.running.Add(1) == 1 && !req.Backlogged {
		// Run to completion (see DispatchAuto): nothing is waiting behind
		// this frame and no other handler is queued or running, so a worker
		// would overlap with nothing.
		l.counters.Add(telemetry.TierInlined, 1)
		fn(req)
		return
	}
	if err := l.workers.SubmitArg(fn, req); err != nil {
		l.running.Add(-1)
		req.ReplyError(err)
		// A sampled request keeps its server span, so the caller's failed
		// client span has the shed under it.  (A carrier is untraced; its
		// members' contexts are inside the payload the shed never decodes.)
		l.recordServerSpan(req.TraceContext(), req.Method, req, err, false)
		req.Recycle()
	}
}

// runScalar executes one plain request.
func (l *Leaf) runScalar(a any) {
	req := a.(*rpc.Request)
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	err := l.runOne(req.Method, req.Payload, e)
	// Counted before the reply is handed to the wire — the TierStats
	// contract: a counter is visible no later than the reply it describes.
	// The handler stops counting as running at the same point, so the
	// caller's next request never finds its predecessor still in the way.
	l.counters.Add(telemetry.TierServed, 1)
	l.running.Add(-1)
	if err != nil {
		req.ReplyError(err)
	} else {
		req.Reply(e.Bytes())
	}
	l.recordServerSpan(req.TraceContext(), req.Method, req, err, false)
	req.Recycle()
}

// recordServerSpan emits the leaf's server span for one sampled request:
// a child of the caller's client span, covering arrival → reply.  The
// untraced path takes one branch and allocates nothing.
func (l *Leaf) recordServerSpan(ctx trace.SpanContext, method string, req *rpc.Request, err error, batched bool) {
	if l.spans == nil || !ctx.Sampled() {
		return
	}
	child := ctx.Child()
	s := trace.Span{
		TraceID:  trace.ID(child.TraceID),
		SpanID:   trace.ID(child.SpanID),
		ParentID: trace.ID(child.ParentID),
		Name:     method,
		Kind:     trace.KindServer,
		Start:    req.Arrival.UnixNano(),
		Duration: time.Since(req.Arrival).Nanoseconds(),
	}
	if err != nil {
		s.Err = err.Error()
	}
	if batched {
		s.Notes = []string{"batch-member"}
	}
	l.spans.Record(s)
}

// batchScratch recycles the parallel method/payload slices of a decoded
// carrier across batch executions.
type batchScratch struct {
	methods  []string
	payloads [][]byte
	spans    []trace.SpanContext
}

var batchScratches = sync.Pool{New: func() any { return new(batchScratch) }}

func getBatchScratch() *batchScratch {
	sc := batchScratches.Get().(*batchScratch)
	sc.methods = sc.methods[:0]
	sc.payloads = sc.payloads[:0]
	sc.spans = sc.spans[:0]
	return sc
}

func putBatchScratch(sc *batchScratch) {
	for i := range sc.methods {
		sc.methods[i] = ""
	}
	for i := range sc.payloads {
		sc.payloads[i] = nil
	}
	batchScratches.Put(sc)
}

// runBatchTask executes a batched carrier RPC.  The whole carrier is one
// task — the member requests share a single dispatch decision and a single
// reply write, which is the point of batching — and each member's result
// rides back as a per-item status, so one poisoned item fails alone.
func (l *Leaf) runBatchTask(a any) {
	req := a.(*rpc.Request)
	sc := getBatchScratch()
	defer putBatchScratch(sc)
	var err error
	sc.methods, sc.payloads, sc.spans, err = rpc.DecodeBatchInto(req.Payload, sc.methods, sc.payloads, sc.spans)
	if err != nil {
		l.running.Add(-1)
		req.ReplyError(err)
		req.Recycle()
		return
	}
	// Each member is encoded on its own so a handler that fails or panics
	// part-way leaves nothing of itself in the carrier reply.
	enc, member := wire.GetEncoder(), wire.GetEncoder()
	rpc.AppendBatchReplyHeader(enc, len(sc.methods))
	for i := range sc.methods {
		member.Reset()
		err := l.runOne(sc.methods[i], sc.payloads[i], member)
		rpc.AppendBatchReplyItem(enc, member.Bytes(), err)
	}
	wire.PutEncoder(member)
	l.counters.Add(telemetry.TierServed, uint64(len(sc.methods)))
	l.running.Add(-1)
	req.Reply(enc.Bytes())
	wire.PutEncoder(enc)
	if l.spans != nil {
		// Each sampled member gets its own server span — a child of that
		// member's client span, so the tree stays connected through the
		// carrier.  All members share the carrier's execution window.
		for i := range sc.spans {
			l.recordServerSpan(sc.spans[i], sc.methods[i], req, nil, true)
		}
	}
	req.Recycle()
}

// runOne guards one execution of the handler (a plain request or a batch
// member).  On an error or a panic e may hold a partial encoding; callers
// must discard it.
func (l *Leaf) runOne(method string, payload []byte, e *wire.Encoder) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("leaf handler panic: %v", r)
		}
	}()
	return l.handler(method, payload, e)
}
