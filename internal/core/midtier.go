package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"musuite/internal/cluster"
	"musuite/internal/rpc"
	"musuite/internal/telemetry"
	"musuite/internal/trace"
	"musuite/internal/wire"
)

// TailPolicy configures tail-tolerant fan-out: hedged requests, retries,
// and the retry budget bounding both.  The paper (§V–§VI) shows end-to-end
// latency is hostage to the slowest leaf of every fan-out; this policy adds
// the canonical recovery mechanisms without letting them amplify overload.
type TailPolicy struct {
	// HedgePercentile, in (0,1), arms hedging: a leaf call still pending
	// after this quantile of observed leaf latency gets a duplicate sent
	// to another replica, and the first response wins (the loser is
	// cancelled).  Zero disables hedging unless HedgeDelay is set.
	HedgePercentile float64
	// HedgeDelay, when positive, fixes the hedge delay instead of
	// tracking HedgePercentile through the latency digest.
	HedgeDelay time.Duration
	// HedgeMinDelay floors the tracked delay so sub-millisecond leaf
	// latencies don't turn hedging into a duplicate-everything storm
	// (default 500µs).
	HedgeMinDelay time.Duration
	// RetryBudgetRatio bounds hedges+retries to this fraction of primary
	// leaf traffic (default 0.1).
	RetryBudgetRatio float64
	// RetryBudgetBurst is the budget token bucket's cap and initial
	// credit (default 10).
	RetryBudgetBurst int
	// LeafRetries is the maximum re-issues per leaf call after a
	// retryable failure — timeout- or connection-class, never
	// application errors (default 0, no retries).
	LeafRetries int
}

// hedging reports whether the policy arms hedged requests.
func (t TailPolicy) hedging() bool { return t.HedgePercentile > 0 || t.HedgeDelay > 0 }

const (
	// defaultHedgeMinDelay floors the percentile-tracked hedge delay.
	defaultHedgeMinDelay = 500 * time.Microsecond
	// hedgeBootstrapDelay is used until the latency digest has samples.
	hedgeBootstrapDelay = time.Millisecond
	// hedgeRefreshEvery is how many latency observations elapse between
	// recomputations of the cached percentile delay (a quantile scan
	// walks every histogram bucket, too costly per call).
	hedgeRefreshEvery = 128
)

// Options configures a mid-tier microserver.
type Options struct {
	// Workers sizes the request worker pool (default 4).
	Workers int
	// ResponseThreads sizes the leaf-response pool (default 2).
	ResponseThreads int
	// Dispatch selects where handlers run.  The zero value runs a request
	// on its poller unless more input is already waiting behind it or
	// another request's handler is still queued or running; Dispatched and
	// Inline fix the choice (the §VII ablation).
	Dispatch DispatchMode
	// Wait selects blocking (default) or polling idle threads.
	Wait WaitMode
	// MaxQueueDepth bounds the dispatch queue; requests beyond it are
	// shed with a fast error instead of queueing unboundedly past
	// saturation (0 = unbounded, the paper's configuration).
	MaxQueueDepth int
	// Classify, when set, assigns a dispatch priority per request —
	// §VII's "dispatched models can explicitly prioritize requests".
	// It runs on the network poller and must be fast.  The queue
	// reordering is ignored by the in-line mode, but the admission
	// controller's priority headroom applies in every mode.
	Classify func(*rpc.Request) Priority
	// Admit configures the adaptive admission controller: an AIMD
	// concurrency limit with priority headroom plus deadline-aware
	// shedding, both replying with a typed overload error the client
	// never retries.  The zero value disables admission.
	Admit AdmitPolicy
	// EdgePolicy is the default edge's policy — the classic leaf fan-out
	// ConnectLeaves bootstraps: its timeout, tail tolerance, batching, routing
	// and connections per leaf (default 2, one per serving thread).  The zero
	// value is the paper's configuration; ConnectEdge can replace it (or add
	// named siblings) before Start.
	EdgePolicy
	// Spans, when set, records distributed-tracing spans for requests that
	// arrive with a sampled span context: one server span per request,
	// carrying its stage record, and one client span per leaf attempt —
	// hedges, retries, and abandoned losers included.
	Spans *trace.Recorder
	// Probe receives telemetry; nil disables instrumentation.
	Probe *telemetry.Probe
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.Workers <= 0 {
		out.Workers = 4
	}
	if out.ResponseThreads <= 0 {
		out.ResponseThreads = 2
	}
	if out.ConnsPerShard <= 0 {
		out.ConnsPerShard = 2
	}
	return out
}

// Handler is the service-specific mid-tier request logic.  It runs on the
// network poller or a worker thread (Options.Dispatch), typically: decode the
// request, compute the per-leaf sub-queries, call Ctx.Fanout, and return.
// The reply is sent later by the fan-out merge callback.
type Handler func(*Ctx)

// MidTier is a mid-tier microserver: an RPC server whose requests flow
// through the §IV pipeline (poller [→ dispatch queue → worker] → async
// fan-out → response threads → merged reply).
type MidTier struct {
	opts    Options
	handler Handler
	probe   *telemetry.Probe
	// counters is the tier's one counter table: every event the tier, its
	// admission controller, batchers and topologies count is booked here
	// (and forwarded to the probe), and core.stats serves it.
	counters *telemetry.Table
	spans    *trace.Recorder

	server    *rpc.Server
	workers   *WorkerPool
	responses *WorkerPool
	// deliverFn routes one completed leaf call to its fan-out, handleFn
	// one dispatched request context to the handler; each is allocated
	// once so the per-response and per-request submits carry no closure.
	deliverFn func(any)
	handleFn  func(any)

	// def is the default downstream edge (DefaultEdge, the classic leaf
	// fan-out); edges maps every connected edge by name.  Both are mutable
	// only before Start (guarded by edgeMu) and read-only after, so the
	// hot path reads them without synchronization.
	def     *edge
	edges   map[string]*edge
	edgeMu  sync.Mutex
	started atomic.Bool
	closed  atomic.Bool

	// running counts the requests whose handler is queued or executing, on a
	// worker or a poller.  DispatchAuto runs a request in-line only when it
	// is the only one: the queue behind the workers is then empty, so there
	// is nothing to reorder, shed or bound that the request would bypass.
	running atomic.Int32

	// admit is the adaptive admission controller; nil when Options.Admit
	// is zero, so the unlimited path costs nothing.
	admit *admitController

	// budget is the hedge/retry token budget (tier-global, so one edge's
	// recovery traffic cannot starve another's).  The latency digests and
	// cached hedge delays live per edge.
	budget *retryBudget
}

// NewMidTier creates a mid-tier with the given request handler.
func NewMidTier(handler Handler, opts *Options) *MidTier {
	o := opts.withDefaults()
	m := &MidTier{opts: o, handler: handler, probe: o.Probe, spans: o.Spans}
	m.counters = telemetry.NewTable(o.Probe.Table())
	m.budget = newRetryBudget(o.Tail.RetryBudgetRatio, o.Tail.RetryBudgetBurst, m.counters)
	m.workers = NewBoundedWorkerPool(o.Workers, o.MaxQueueDepth, o.Wait, o.Probe, telemetry.OverheadActiveExe)
	m.responses = NewWorkerPool(o.ResponseThreads, o.Wait, o.Probe, telemetry.OverheadSched)
	m.deliverFn = func(a any) {
		call := a.(*rpc.Call)
		call.Data.(*fanoutSlot).fo.deliver(call)
	}
	if o.Admit.enabled() {
		m.admit = newAdmitController(o.Admit, m.counters)
	}
	m.handleFn = func(a any) {
		defer m.running.Add(-1)
		ctx := a.(*Ctx)
		if m.admit != nil && m.admit.doomed(ctx.Req.Arrival) {
			// Deadline-aware shed at worker pickup: the queue wait has
			// consumed too much of the budget for the reply to arrive in
			// time, so reject instead of burning a worker on doomed work.
			ctx.shed = true
			ctx.ReplyError(rpc.Overloadf("deadline: remaining budget below tracked p99 service time"))
			return
		}
		ctx.tr.Stamp(trace.StageWorkerStart)
		m.handler(ctx)
	}
	m.server = rpc.NewServer(m.onRequest, &rpc.ServerOptions{Probe: o.Probe})
	m.def = m.newEdge(DefaultEdge, o.EdgePolicy)
	m.edges = map[string]*edge{DefaultEdge: m.def}
	return m
}

// ConnectLeaves dials every leaf shard with one replica each.  Must be
// called before Start.
func (m *MidTier) ConnectLeaves(addrs []string) error {
	groups, err := GroupAddrs(addrs, 1)
	if err != nil {
		return err
	}
	return m.ConnectLeafGroups(groups)
}

// ConnectLeafGroups dials every leaf shard's replica set: groups[i] lists
// the addresses of the replicas serving shard i (all must hold the same
// shard data).  Fanout routes each call to the least-loaded replica of its
// shard, and hedges/retries go to a different replica than the attempt they
// back up.  Must be called before Start.
func (m *MidTier) ConnectLeafGroups(groups [][]string) error {
	if m.started.Load() {
		return errors.New("core: ConnectLeaves after Start")
	}
	if err := m.def.topo.Bootstrap(groups); err != nil {
		m.Close()
		return err
	}
	return nil
}

// Topology exposes the mid-tier's live leaf topology (the default edge's) —
// the runtime admin surface (cluster.ServeAdmin) binds to it.
func (m *MidTier) Topology() *cluster.Topology { return m.def.topo }

// AddLeafGroup dials a new leaf replica group and places it in service at
// runtime, returning its shard index.  Requests already in flight keep the
// leaf count they arrived with; requests arriving after the publish see the
// new shard.
func (m *MidTier) AddLeafGroup(addrs []string) (int, error) {
	return m.def.topo.AddGroup(addrs)
}

// DrainLeafGroup gracefully removes shard's leaf group at runtime: new
// requests route around it, in-flight requests (and their queued batch
// members) finish against it, then its batchers flush and its pools close.
// deadline bounds the wait (≤ 0 selects cluster.DefaultDrainDeadline).
func (m *MidTier) DrainLeafGroup(shard int, deadline time.Duration) error {
	return m.def.topo.DrainGroup(shard, deadline)
}

// NumLeaves reports the number of connected leaf shards (default edge).
func (m *MidTier) NumLeaves() int { return m.def.topo.Current().NumLeaves() }

// NumReplicas reports the total leaf replica count across all shards
// (default edge).
func (m *MidTier) NumReplicas() int { return m.def.topo.Current().NumReplicas() }

// Start binds the mid-tier server and begins serving.
func (m *MidTier) Start(addr string) (string, error) {
	m.started.Store(true)
	return m.server.Start(addr)
}

// Close shuts down the server, leaf connections, and thread pools.
func (m *MidTier) Close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	if m.server != nil {
		m.server.Close()
	}
	m.edgeMu.Lock()
	for _, e := range m.edges {
		e.topo.Close()
	}
	m.edgeMu.Unlock()
	m.workers.Stop()
	m.responses.Stop()
}

// onRequest runs on the network poller goroutine for every incoming RPC.
func (m *MidTier) onRequest(req *rpc.Request) {
	if req.Method == StatsMethod {
		req.Reply(encodeTierStats(m.Stats()))
		return
	}
	// Priority is classified before admission so the controller's
	// headroom can prefer high-priority traffic; the same value orders
	// the dispatch queue below.
	pri := PriorityNormal
	if m.opts.Classify != nil {
		pri = m.opts.Classify(req)
	}
	// A request that arrived with a sampled span context gets this tier's
	// server span, a child of the caller's client span; the leaf attempts
	// below will be children of that.  Everything per-request tracing costs
	// hangs off this one test: an unsampled request reads no clock.
	var span trace.SpanContext
	if m.spans != nil && req.TraceContext().Sampled() {
		span = req.TraceContext().Child()
	}
	if m.admit != nil && !m.admit.acquire(pri) {
		// Shed at the door: a typed reject on the poller, before any
		// snapshot pin, payload copy, or worker wakeup is spent on a
		// request the tier cannot absorb.
		m.shed(req, span, rpc.Overloadf("admission limit"))
		return
	}
	// The request pins the topology snapshot it arrived under: every
	// routing read for its lifetime (NumLeaves, fan-out, point reads,
	// hedges, retries) resolves against this one epoch, and a concurrent
	// drain waits for the pin before closing anything the request may
	// still call.  Released in finish (or below if dispatch sheds it).
	ctx := &Ctx{Req: req, mt: m, snap: m.def.topo.Acquire(), admitted: m.admit != nil, span: span}
	if span.Sampled() {
		ctx.tr = trace.NewStamps(req.Arrival)
	}
	alone := m.running.Add(1) == 1
	if m.opts.Dispatch == Inline || m.opts.Dispatch == DispatchAuto && alone && !req.Backlogged {
		// Run to completion: no hand-off, no worker wake-up; the poller
		// executes the handler and reads the next frame when it returns.
		m.counters.Add(telemetry.TierInlined, 1)
		ctx.tr.Stamp(trace.StageWorkerStart)
		m.handler(ctx)
		m.running.Add(-1)
		return
	}
	handoffStart := m.probe.Start()
	// Stamped before the hand-off: a fast worker can reply — and cut the
	// record into the server span — before SubmitPriorityArg even returns,
	// and a stamp after that would be lost.
	ctx.tr.Stamp(trace.StageEnqueued)
	err := m.workers.SubmitPriorityArg(m.handleFn, ctx, pri)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			// The dispatch queue is the hard backstop behind the adaptive
			// limit; its sheds carry the same typed overload error so the
			// client treats both identically (no retry, no budget spend).
			m.counters.Add(telemetry.AdmitShedQueue, 1)
			err = rpc.Overloadf("dispatch queue full")
		}
		m.shed(req, span, err)
		// Shed before the handler ever ran: release the pin (and the
		// admission slot, without feeding the latency signal) directly —
		// not via finish, which would count the request as served.
		m.running.Add(-1)
		ctx.snap.Release()
		if ctx.admitted {
			m.admit.cancel()
		}
		return
	}
	// The poller's hand-off cost before it re-enters its blocking read —
	// the Block overhead class.
	m.probe.ObserveSince(telemetry.OverheadBlock, handoffStart)
}

// shed rejects a request the handler never ran for.  A sampled one keeps its
// server span — the error, no stage record — so its trace does not end at a
// failed client span with nothing under it.
func (m *MidTier) shed(req *rpc.Request, span trace.SpanContext, err error) {
	req.ReplyError(err)
	if span.Sampled() {
		m.recordServerSpan(span, req, time.Since(req.Arrival), err.Error(), nil)
	}
}

// onLeafResponse runs on a leaf connection's reader goroutine; it forwards
// the completed call to the response thread pool.  Consuming the call
// (returning true) transfers ownership to the fan-out, which releases the
// struct back to the call pool after stashing the slot's result.
func (m *MidTier) onLeafResponse(call *rpc.Call) bool {
	slot, ok := call.Data.(*fanoutSlot)
	if !ok || slot == nil {
		return false // a direct (non-fanout) call; deliver on Done
	}
	if err := m.responses.SubmitArg(m.deliverFn, call); err != nil {
		// Pool stopped mid-flight (shutdown); deliver inline so the
		// fan-out still completes.
		slot.fo.deliver(call)
	}
	return true
}

// LeafCall names one sub-request of a fan-out.
type LeafCall struct {
	// Shard indexes the destination leaf (0..NumLeaves-1).
	Shard int
	// Method and Payload form the sub-request.
	Method  string
	Payload []byte
}

// LeafResult is one leaf's response within a fan-out.
type LeafResult struct {
	// Shard indexes the leaf that produced this result.
	Shard int
	// Reply is the response payload (nil on error).  It may alias a pooled
	// buffer that is recycled when the merge callback returns: a merge that
	// needs reply bytes past its own return must copy them.
	Reply []byte
	// Err is the per-leaf failure, if any.
	Err error
}

// Ctx is the per-request context handed to the mid-tier handler.
type Ctx struct {
	// Req is the originating front-end request.
	Req *rpc.Request
	mt  *MidTier
	// snap is the topology snapshot pinned at arrival; every routing
	// decision this request makes reads it, so the leaf count and shard
	// placement cannot change under a request mid-flight.
	snap *cluster.Snapshot
	// span is this tier's server span (a child of the caller's client span),
	// zero when the request arrived unsampled or span recording is off; tr is
	// the stage record that span will carry, nil exactly when span is zero.
	tr   *trace.Stamps
	span trace.SpanContext
	// admitted marks a request holding an admission slot; finish must
	// release it.  shed marks one rejected after admission (deadline
	// shed), whose short latency must not feed the AIMD signal.
	admitted bool
	shed     bool
	fin      atomic.Bool // beside the flags: the struct stays in its 128-byte size class
	errText  string

	// enc is the encoder LeafEncoder handed out, until the fan-out it was
	// encoded for takes it (getFanout) or, failing one, finish returns it.
	enc *wire.Encoder

	// pins tracks the non-default edge snapshots this request pinned via
	// Edge, released in finish.  Guarded by pinMu: a multi-stage handler
	// may resolve edges from concurrent merge callbacks.
	pinMu sync.Mutex
	pins  []edgePin
}

// NumLeaves reports the fan-out width available to this request.  It is
// stable for the request's lifetime even while the cluster resizes: the
// value comes from the snapshot pinned at arrival.
func (c *Ctx) NumLeaves() int { return c.snap.NumLeaves() }

// Snapshot is the topology snapshot pinned for this request — handlers that
// make several placement decisions (a route computed here, a shard read
// there) take it once so all of them agree on one epoch.
func (c *Ctx) Snapshot() *cluster.Snapshot { return c.snap }

// LeafEncoder returns a pooled encoder for the payloads of the request's next
// fan-out: the handler encodes its leaf requests into it and passes slices of
// its Bytes as LeafCall payloads.  The fan-out owns the encoder from Fanout on
// (the next call returns a fresh one) and returns it to its pool when no hedge
// timer, retry or batch queue can still send a slot; a request that never fans
// out returns it when it finishes.  It is for the one flow of control that
// goes on to issue that fan-out: concurrent branches encode on their own.
func (c *Ctx) LeafEncoder() *wire.Encoder {
	if c.enc == nil {
		c.enc = wire.GetEncoder()
	}
	return c.enc
}

// Reply completes the request successfully.
func (c *Ctx) Reply(payload []byte) {
	if c.claim() {
		c.Req.Reply(payload)
		c.finish()
	}
}

// ReplyError completes the request with an error.
func (c *Ctx) ReplyError(err error) {
	if !c.claim() {
		return
	}
	if err != nil && c.span.Sampled() {
		c.errText = err.Error()
	}
	c.Req.ReplyError(err)
	c.finish()
}

// claim wins the right to answer the request, once, and counts it served
// before the reply is handed to the wire — the TierStats contract: a counter
// is visible no later than the reply it describes.
func (c *Ctx) claim() bool {
	if !c.fin.CompareAndSwap(false, true) {
		return false
	}
	c.mt.counters.Add(telemetry.TierServed, 1)
	return true
}

// finish runs after the reply is written: it releases the topology pins and
// the admission slot, and records a sampled request's server span.
func (c *Ctx) finish() {
	c.snap.Release()
	wire.PutEncoder(c.enc) // nil unless the handler took one and never fanned out
	c.pinMu.Lock()
	pins := c.pins
	c.pins = nil
	c.pinMu.Unlock()
	for _, p := range pins {
		p.snap.Release()
	}
	if c.admitted {
		if c.shed {
			c.mt.admit.cancel()
		} else {
			c.mt.admit.release(time.Since(c.Req.Arrival))
		}
	}
	if c.tr == nil {
		return
	}
	// Every other stamp happens-before this one (Enqueued before the worker
	// hand-off, FanoutIssued before the first attempt is sent, the last
	// response before the merge that replied), so the record is complete.
	c.tr.Stamp(trace.StageReplySent)
	c.mt.recordServerSpan(c.span, c.Req, c.tr.At(trace.StageReplySent), c.errText, c.tr.Stages())
}

// recordServerSpan emits this tier's server span for one sampled request:
// span is the server span's own context, dur the request's residency since
// its arrival, and stages — nil for a request shed before its handler ran —
// where inside the tier that time went, so trace consumers see it without a
// second data channel.
func (m *MidTier) recordServerSpan(span trace.SpanContext, req *rpc.Request, dur time.Duration, errText string, stages *trace.Stages) {
	m.spans.Record(trace.Span{
		TraceID:  trace.ID(span.TraceID),
		SpanID:   trace.ID(span.SpanID),
		ParentID: trace.ID(span.ParentID),
		Name:     req.Method,
		Kind:     trace.KindServer,
		Start:    req.Arrival.UnixNano(),
		Duration: dur.Nanoseconds(),
		Err:      errText,
		Stages:   stages,
	})
}

// Fanout asynchronously issues calls to leaf shards and invokes merge with
// all results once the last response arrives.  The worker returns
// immediately after issuing the sub-requests ("fork for fan-out"); response
// threads count down and merge, with only the final one doing real work —
// the §IV asynchronous design.  merge runs on a response thread (or, for an
// empty call list, synchronously) and must call Reply/ReplyError.
func (c *Ctx) Fanout(calls []LeafCall, merge func([]LeafResult)) {
	c.fanoutOn(c.mt.def, c.snap, calls, merge)
}

// fanoutOn is Fanout against one edge's policy and pinned snapshot.
func (c *Ctx) fanoutOn(e *edge, snap *cluster.Snapshot, calls []LeafCall, merge func([]LeafResult)) {
	if len(calls) == 0 {
		merge(nil)
		return
	}
	fo := getFanout(c, e, snap, len(calls), merge)
	// Slots must be fully initialized before the expiry timer can fire.
	for i, lc := range calls {
		fo.slot(i, lc.Shard, lc.Method, lc.Payload)
	}
	c.runFanout(fo)
}

// FanoutAll broadcasts one payload to every leaf shard.  The calls are
// synthesized straight into the fan-out's slots — no LeafCall slice.
func (c *Ctx) FanoutAll(method string, payload []byte, merge func([]LeafResult)) {
	c.fanoutAllOn(c.mt.def, c.snap, method, payload, merge)
}

// fanoutAllOn is FanoutAll against one edge's policy and pinned snapshot.
func (c *Ctx) fanoutAllOn(e *edge, snap *cluster.Snapshot, method string, payload []byte, merge func([]LeafResult)) {
	n := snap.NumLeaves()
	if n == 0 {
		merge(nil)
		return
	}
	fo := getFanout(c, e, snap, n, merge)
	for i := 0; i < n; i++ {
		fo.slot(i, i, method, payload)
	}
	c.runFanout(fo)
}

// runFanout arms the expiry timer and issues every slot's primary attempt.
func (c *Ctx) runFanout(fo *fanout) {
	m := c.mt
	// Stamped before the first attempt goes out: a leaf response can
	// complete the whole request — and cut the record into the server span
	// — before the issue loop below returns.
	c.tr.Stamp(trace.StageFanoutIssued)
	// The issuer's hold must exist before anything can complete the
	// fan-out: with no hedge and no timeout the only other holds are the
	// merge's and each attempt's own, so a reply landing while issueAttempt
	// is still tracking its attempt would drop both and recycle the slots
	// under this loop.
	fo.refs.Add(1)
	defer fo.unref()
	if d := fo.e.policy.Timeout; d > 0 {
		fo.refs.Add(1) // expiry hold: released by expire or a won Stop
		fo.timer.Store(time.AfterFunc(d, fo.expire))
	}
	for i := range fo.slots {
		slot := &fo.slots[i]
		if slot.shard < 0 || slot.shard >= fo.snap.NumLeaves() {
			fo.deliverSlot(slot, LeafResult{Shard: slot.shard, Err: fmt.Errorf("core: no such leaf shard %d", slot.shard)}, nil)
			continue
		}
		m.issuePrimary(slot)
	}
}

// issuePrimary sends a slot's first attempt and, when hedging is armed,
// starts the hedge timer that will duplicate the call if no response lands
// within the hedge delay.
func (m *MidTier) issuePrimary(slot *fanoutSlot) {
	m.budget.earn()
	hedging := slot.fo.e.policy.Tail.hedging()
	if hedging {
		// The hedge timer's hold must exist before the primary attempt can
		// complete, or a fast response could recycle the fan-out under the
		// timer registration below.
		slot.fo.refs.Add(1)
	}
	m.issueAttempt(slot, -1, attemptPrimary)
	if hedging {
		t := time.AfterFunc(slot.fo.e.hedgeDelay(), func() {
			defer slot.fo.unref()
			m.hedge(slot)
		})
		slot.mu.Lock()
		slot.hedgeTimer = t
		slot.mu.Unlock()
		if slot.fired.Load() {
			// The primary answered (or the fan-out expired) before the
			// timer was registered; the cancel path missed it, stop here.
			if t.Stop() {
				slot.fo.unref() // the callback will never run
			}
		}
	}
}

// issueAttempt sends one copy of the slot's sub-request to a replica of its
// shard, preferring one not carrying an earlier attempt of the same call.
// With batching enabled the call enqueues on the picked replica's batcher
// (a hedge or retry thereby coalesces into that replica's next carrier);
// otherwise it goes straight to a pooled connection.
func (m *MidTier) issueAttempt(slot *fanoutSlot, exclude int, kind attemptKind) {
	// Late issuers — a hedge timer, a retry racing the fan-out expiry —
	// can outlive the request's own pin.  TryPin succeeds only while some
	// pin is still held, which proves the request is unanswered and the
	// shard's pools are guaranteed open for the duration of this send; a
	// failure proves the request was already answered (every slot fired),
	// so there is nothing worth issuing — and the shard may be mid-drain.
	snap := slot.fo.snap
	if !snap.TryPin() {
		return
	}
	defer snap.Release()
	// Captured while the pin proves the fan-out alive: the late-completion
	// branch below may run after a racing delivery has recycled the slot,
	// so it must not read slot fields then.
	method, shard := slot.method, slot.shard
	g := snap.Group(shard)
	pool, idx := g.Pick(exclude)
	a := attempt{replica: idx, kind: kind}
	if slot.fo.span.Sampled() && m.spans != nil {
		a.span = slot.fo.span.Child()
		a.start = time.Now()
	}
	// The attempt's fan-out hold must predate the send: the response can
	// land (and run the count-down) before GoRefSpan even returns.
	slot.fo.refs.Add(1)
	// The ref is captured before the frame is written, so a completion that
	// races this return (and recycles the call) leaves only a harmlessly
	// stale ref behind — abandons through it are no-ops.
	if b := g.Batcher(idx); b != nil {
		a.batcher = b
		a.ref = b.GoRefSpan(slot.method, slot.payload, a.span, slot, nil)
	} else {
		a.client = pool.Pick()
		a.ref = a.client.GoRefSpan(slot.method, slot.payload, a.span, slot, nil)
	}
	fired, record, won := slot.track(a)
	if fired {
		// The slot completed while this attempt was being issued, so the
		// cancel sweep may have run before the attempt was tracked.  The
		// frame is already on the wire though — the leaf will serve it and
		// record a server span — so the attempt's client span must still be
		// emitted or the exported tree ends up with an orphan.  The attempt
		// may even be what completed the slot: a leaf that answers on its
		// poller can beat the issuer to the slot's lock.
		if won && kind == attemptHedge {
			m.counters.Add(telemetry.TailHedgeWin, 1)
		}
		if record {
			m.recordAttemptSpan(method, shard, &a, time.Now(), "", !won)
		}
		if a.abandon() {
			slot.fo.unref()
		}
	}
}

// hedge runs on the slot's hedge timer: if the primary is still pending and
// the retry budget allows, issue a duplicate to another replica.
func (m *MidTier) hedge(slot *fanoutSlot) {
	if slot.fired.Load() {
		return
	}
	slot.mu.Lock()
	if slot.hedged || len(slot.attempts) == 0 {
		slot.mu.Unlock()
		return
	}
	slot.hedged = true
	primary := slot.attempts[0].replica
	slot.mu.Unlock()
	if !m.budget.spend(telemetry.TailHedge) {
		return
	}
	m.issueAttempt(slot, primary, attemptHedge)
}

// maybeRetry re-issues a slot's sub-request after a retryable failure,
// bounded by Tail.LeafRetries per slot and the global retry budget.  It
// reports whether a retry is now in flight (the slot stays pending).
func (m *MidTier) maybeRetry(slot *fanoutSlot, failed *rpc.Call) bool {
	max := slot.fo.e.policy.Tail.LeafRetries
	if max <= 0 {
		return false
	}
	slot.mu.Lock()
	if slot.retries >= max {
		slot.mu.Unlock()
		return false
	}
	slot.retries++
	failedRef := failed.Ref()
	exclude := -1
	for _, a := range slot.attempts {
		if a.ref == failedRef {
			exclude = a.replica
			break
		}
	}
	slot.mu.Unlock()
	if !m.budget.spend(telemetry.TailRetry) {
		return false
	}
	// The failed copy never reaches deliverSlot (the retry supersedes it),
	// so its span retires here, carrying the error that triggered the
	// retry.  Had the budget denied, the failure would have completed the
	// slot and been recorded as the winner instead.
	if m.spans != nil && slot.fo.span.Sampled() {
		var fa attempt
		var have bool
		slot.mu.Lock()
		for i := range slot.attempts {
			a := &slot.attempts[i]
			if a.ref == failedRef && !a.recorded {
				a.recorded = true
				fa, have = *a, true
				break
			}
		}
		slot.mu.Unlock()
		if have {
			end := failed.Received
			if end.IsZero() {
				end = time.Now()
			}
			var errText string
			if failed.Err != nil {
				errText = failed.Err.Error()
			}
			m.recordAttemptSpan(slot.method, slot.shard, &fa, end, errText, false)
		}
	}
	m.issueAttempt(slot, exclude, attemptRetry)
	return true
}

// recordAttemptSpan emits the client span of one retired leaf attempt.  The
// caller must have claimed the attempt's recorded flag under the slot mutex,
// and passes the slot's method and shard by value — a late issuer may record
// after the fan-out has recycled, when the slot's own fields are gone.  end
// is the retirement instant (a winner's receive time, a loser's cancel time
// clamped to the winner's).
func (m *MidTier) recordAttemptSpan(method string, shard int, a *attempt, end time.Time, errText string, abandoned bool) {
	if m.spans == nil || !a.span.Sampled() {
		return
	}
	start := a.start
	if start.IsZero() {
		start = end
	}
	if end.Before(start) {
		end = start
	}
	notes := make([]string, 0, 4)
	switch a.kind {
	case attemptHedge:
		notes = append(notes, "hedge")
	case attemptRetry:
		notes = append(notes, "retry")
	}
	if a.batcher != nil {
		notes = append(notes, "batched")
	}
	if abandoned {
		notes = append(notes, "abandoned")
	}
	notes = append(notes, "shard="+strconv.Itoa(shard))
	m.spans.Record(trace.Span{
		TraceID:  trace.ID(a.span.TraceID),
		SpanID:   trace.ID(a.span.SpanID),
		ParentID: trace.ID(a.span.ParentID),
		Name:     method,
		Kind:     trace.KindClient,
		Start:    start.UnixNano(),
		Duration: end.Sub(start).Nanoseconds(),
		Err:      errText,
		Notes:    notes,
	})
}

// observeLeafLatency feeds the default edge's latency digest — the
// per-edge observe path (edge.observeLatency) under its old name, kept for
// in-package tests that seed the digest directly.
func (m *MidTier) observeLeafLatency(d time.Duration) { m.def.observeLatency(d) }

// ErrFanoutTimeout marks a leaf slot whose response missed the fan-out
// deadline.
var ErrFanoutTimeout = errors.New("core: leaf response timed out")

// fanout is the shared data structure through which an asynchronous event
// (a leaf response arriving on any reception thread) is matched back to its
// parent RPC — "all RPC state is explicit" (§IV).
//
// Fan-outs are pooled: all the per-request machinery (the struct, the
// result/buffer/slot slices, each slot's inline attempt storage) is reused
// across requests.  Recycling is guarded by refs, a count of every party
// that may still touch the struct; a reference that provably can never be
// dropped (an attempt whose delivery was suppressed after it left our
// hands, e.g. a cancelled carrier member discarded by the batch demux)
// simply strands the fan-out to the garbage collector — correctness never
// depends on the pool.
type fanout struct {
	mt *MidTier
	// e is the edge this fan-out issues on: its policy governs timeout,
	// hedging, retries, and batching, and its digest absorbs the latency
	// observations.
	e *edge
	// snap is the parent request's pinned topology snapshot, borrowed (not
	// re-pinned) for the fan-out's lifetime: slot shard indices resolve
	// against it, and late attempt issuers TryPin it before touching its
	// groups.  The pointer stays valid even after the request's pin drops —
	// only the liveness of the pools behind it is then in question, which
	// is exactly what TryPin checks.
	snap    *cluster.Snapshot
	results []LeafResult
	// bufs holds each winning call's pooled reply buffer so results[i].Reply
	// stays valid through the merge; all are released right after merge
	// returns.
	bufs      []*rpc.Buf
	remaining atomic.Int32
	merge     func([]LeafResult)
	tr        *trace.Stamps
	// span is the parent request's server span; each attempt's client span
	// is derived from it.  Zero when the request is unsampled.
	span trace.SpanContext
	// reqBuf is a hold on the parent request's payload bytes: handlers
	// forward Req.Payload as slot payloads, and a slot's payload is read for
	// as long as something can still issue it — a hedge timer, a retry, a
	// batch queue — which can be after the reply.  enc is the same hold on
	// payloads the handler encoded itself (Ctx.LeafEncoder).  The fan-out
	// owns the bytes its slots point at; both holds drop on recycle.
	reqBuf *rpc.Buf
	enc    *wire.Encoder
	slots  []fanoutSlot
	// timer is set after AfterFunc returns; the callback can beat the
	// store, in which case there is nothing left worth stopping.
	timer atomic.Pointer[time.Timer]
	// refs counts the outstanding holds on this struct: one for the merge,
	// one for runFanout's issue loop, one per issued attempt (dropped on
	// delivery, or by the abandoner when the abandon provably suppressed
	// delivery), one per armed timer (dropped by the callback, or by
	// whoever wins Stop).  At zero the fan-out recycles.
	refs atomic.Int32
}

// fanoutPool recycles fan-out machinery across requests.
var fanoutPool = sync.Pool{New: func() any { return new(fanout) }}

// getFanout readies a pooled fan-out of request c for n slots.
func getFanout(c *Ctx, e *edge, snap *cluster.Snapshot, n int, merge func([]LeafResult)) *fanout {
	f := fanoutPool.Get().(*fanout)
	f.mt = e.mt
	f.e = e
	f.snap = snap
	f.merge = merge
	f.tr = c.tr
	f.span = c.span
	f.reqBuf = c.Req.HoldPayload()
	// A write only when a handler asked for an encoder: branches of one
	// request that fan out concurrently pass here, and they did not.
	if c.enc != nil {
		f.enc, c.enc = c.enc, nil
	}
	if cap(f.slots) < n {
		f.results = make([]LeafResult, n)
		f.bufs = make([]*rpc.Buf, n)
		f.slots = make([]fanoutSlot, n)
	} else {
		f.results = f.results[:n]
		f.bufs = f.bufs[:n]
		f.slots = f.slots[:n]
	}
	f.remaining.Store(int32(n))
	f.refs.Store(1) // the merge hold
	return f
}

// unref drops one hold; the last one recycles the fan-out.
func (f *fanout) unref() {
	if f.refs.Add(-1) == 0 {
		f.recycle()
	}
}

// recycle severs request-lifetime references and pools the machinery.  It
// runs only once refs hits zero: every delivery has landed and every timer
// has resolved, so nothing can reach the slots anymore.
func (f *fanout) recycle() {
	f.mt = nil
	f.e = nil
	f.snap = nil
	f.merge = nil
	f.tr = nil
	f.span = trace.SpanContext{}
	f.reqBuf.Release()
	f.reqBuf = nil
	wire.PutEncoder(f.enc)
	f.enc = nil
	f.timer.Store(nil)
	for i := range f.results {
		f.results[i] = LeafResult{}
	}
	for i := range f.slots {
		s := &f.slots[i]
		s.fo = nil
		s.method = ""
		s.payload = nil
		s.hedgeTimer = nil
		s.hedged = false
		s.retries = 0
		for j := range s.attempts {
			s.attempts[j] = attempt{}
		}
		s.attempts = nil
	}
	fanoutPool.Put(f)
}

// attemptKind distinguishes why a call copy was sent, for win-rate counting.
type attemptKind uint8

const (
	attemptPrimary attemptKind = iota
	attemptHedge
	attemptRetry
)

// attempt is one issued copy of a slot's sub-request, tracked by a
// generation-stamped ref — never by the Call pointer, whose struct may be
// recycled into an unrelated RPC the moment its consumer releases it.
// Exactly one of client (direct send) or batcher (batched send) is set.
type attempt struct {
	ref     rpc.CallRef
	client  *rpc.Client
	batcher *rpc.Batcher
	replica int
	kind    attemptKind
	// span is this attempt's client span context (zero when unsampled) and
	// start its issue instant; recorded, guarded by the slot mutex, ensures
	// the span is emitted exactly once no matter which path — win, loss,
	// retry — retires the attempt.
	span     trace.SpanContext
	start    time.Time
	recorded bool
}

// abandon cancels the attempt's call through whichever path issued it.  A
// ref whose call already completed (and was recycled) no longer matches its
// generation, so the abandon is a no-op.  It reports whether delivery was
// provably suppressed here (the abandoner then owns the attempt's fan-out
// hold); false means a delivery happened or may still be in flight.
func (a *attempt) abandon() bool {
	if a.batcher != nil {
		return a.batcher.AbandonRef(a.ref)
	}
	return a.client.AbandonRef(a.ref)
}

// fanoutSlot routes one leaf call's completions into its fan-out slot.  A
// slot may have several attempts in flight at once (primary + hedge, or a
// retry); the first to complete wins and the rest are abandoned.
type fanoutSlot struct {
	fo      *fanout
	index   int
	shard   int
	fired   atomic.Bool
	method  string
	payload []byte

	mu         sync.Mutex // guards the fields below
	attempts   []attempt
	swept      bool        // cancelLosers has run: attempts tracked later are the issuer's to retire
	winner     rpc.CallRef // the call the sweep ran for, which it may not have found tracked yet
	hedgeTimer *time.Timer
	hedged     bool
	retries    int
	// attemptsArr is attempts' inline storage: a primary plus one hedge or
	// retry fit without a heap slice, and the array recycles with the slot.
	attemptsArr [2]attempt
}

func (f *fanout) slot(index, shard int, method string, payload []byte) *fanoutSlot {
	s := &f.slots[index]
	s.fo = f
	s.index = index
	s.shard = shard
	s.method = method
	s.payload = payload
	s.fired.Store(false)
	s.attempts = s.attemptsArr[:0]
	s.swept = false
	s.winner = rpc.CallRef{}
	return s
}

// track registers an attempt whose frame is already on the wire.  fired
// reports that the slot has completed — the attempt's own reply may have
// done it, having landed before the issuer got here.  record reports that
// the issuer must emit the attempt's span: only when the cancel sweep has
// already run and so never saw the attempt.  A sweep still to come finds it
// tracked and retires it itself, as the winner or as a loser; were the
// issuer to claim the span then too, a winner would be recorded twice under
// one span ID — by the issuer as abandoned and by deliverSlot as the winner
// — and the exported tree would no longer be a tree.  won reports that the
// sweep ran for this very attempt: its reply completed the slot before the
// issuer got here, so it is the issuer that books the win.
func (s *fanoutSlot) track(a attempt) (fired, record, won bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempts = append(s.attempts, a)
	fired = s.fired.Load()
	if fired && s.swept {
		won = a.ref == s.winner
		if a.span.Sampled() {
			s.attempts[len(s.attempts)-1].recorded = true
			record = true
		}
	}
	return fired, record, won
}

// cancelLosers stops the slot's hedge timer and abandons every attempt
// other than the winner, so late responses are dropped at the reader
// instead of delivered.  It returns a copy of the winning attempt (valid
// only when found) with its recorded flag claimed, and emits the span of
// every abandoned loser — annotated "abandoned", its end clamped to end so
// a cancelled duplicate never outlasts the response that beat it.
func (s *fanoutSlot) cancelLosers(winner rpc.CallRef, end time.Time) (win attempt, found bool) {
	released := 0
	var losers []attempt
	s.mu.Lock()
	s.swept = true
	s.winner = winner
	if t := s.hedgeTimer; t != nil {
		s.hedgeTimer = nil
		if t.Stop() {
			released++ // the hedge callback will never run; its hold is ours
		}
	}
	for i := range s.attempts {
		a := &s.attempts[i]
		if a.ref == winner {
			win, found = *a, true
			a.recorded = true
			continue
		}
		if a.abandon() {
			released++ // delivery suppressed; the attempt hold is ours
		}
		if a.span.Sampled() && !a.recorded {
			a.recorded = true
			losers = append(losers, *a)
		}
	}
	s.mu.Unlock()
	for ; released > 0; released-- {
		s.fo.unref()
	}
	for i := range losers {
		s.fo.mt.recordAttemptSpan(s.method, s.shard, &losers[i], end, "", true)
	}
	return win, found
}

// deliver stashes one response and, if it is the last, runs the merge.  All
// but the final response thread do negligible work (stash + decrement),
// matching the paper's count-down design.  Successful completions feed the
// hedge-delay digest; retryable failures may re-issue instead of
// completing the slot.
func (f *fanout) deliver(call *rpc.Call) {
	slot := call.Data.(*fanoutSlot)
	if call.Err == nil {
		f.e.observeLatency(call.Received.Sub(call.Sent))
	} else if !slot.fired.Load() && rpc.Retryable(call.Err) && f.mt.maybeRetry(slot, call) {
		// A retry is in flight; the slot stays pending and this failed
		// copy — which the fan-out owns, having consumed it — retires.
		// (The retry took its own hold before this one drops.)
		call.Release()
		f.unref()
		return
	}
	f.deliverSlot(slot, LeafResult{Shard: slot.shard, Reply: call.Reply, Err: call.Err}, call)
	f.unref() // this delivery's attempt hold
}

// deliverSlot completes one slot exactly once (concurrent attempts and the
// fan-out timeout may race; first wins, the rest are cancelled).  The
// fan-out owns winner (nil for a timeout expiry): the loser of the race is
// released immediately, the winner after its pooled reply buffer — which
// res.Reply aliases — has been stashed for the merge.
func (f *fanout) deliverSlot(slot *fanoutSlot, res LeafResult, winner *rpc.Call) {
	if !slot.fired.CompareAndSwap(false, true) {
		winner.Release()
		return
	}
	var winnerRef rpc.CallRef
	var end time.Time
	var errText string
	if winner != nil {
		winnerRef = winner.Ref()
	}
	if f.span.Sampled() {
		end = time.Now()
		if winner != nil {
			if !winner.Received.IsZero() {
				end = winner.Received
			}
			if winner.Err != nil {
				errText = winner.Err.Error()
			}
		}
	}
	if win, ok := slot.cancelLosers(winnerRef, end); ok {
		if win.kind == attemptHedge {
			f.mt.counters.Add(telemetry.TailHedgeWin, 1)
		}
		f.mt.recordAttemptSpan(slot.method, slot.shard, &win, end, errText, false)
	}
	f.results[slot.index] = res
	if winner != nil {
		f.bufs[slot.index] = winner.TakeReplyBuf()
		winner.Release()
	}
	if f.remaining.Add(-1) == 0 {
		if t := f.timer.Load(); t != nil && t.Stop() {
			f.unref() // expire will never run; its hold is ours
		}
		f.tr.Stamp(trace.StageLastLeafResponse)
		f.merge(f.results)
		// The merge has returned (and with it the front-end reply has been
		// copied to the write path), so every reply view is dead: recycle
		// the buffers backing them.
		for i, b := range f.bufs {
			b.Release()
			f.bufs[i] = nil
		}
		f.unref() // the merge hold
	}
}

// expire fails every still-pending slot with ErrFanoutTimeout, cancelling
// any attempts still in flight.
func (f *fanout) expire() {
	for i := range f.slots {
		slot := &f.slots[i]
		f.deliverSlot(slot, LeafResult{Shard: slot.shard, Err: ErrFanoutTimeout}, nil)
	}
	f.unref() // the expiry hold taken when the timer was armed
}
