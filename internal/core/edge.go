package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"musuite/internal/cluster"
	"musuite/internal/rpc"
	"musuite/internal/stats"
)

// DefaultEdge names the edge ConnectLeaves/ConnectLeafGroups bootstrap — the
// classic mid-tier→leaf fan-out every handwritten service uses.  Handlers
// that never name an edge keep operating on it unchanged.
const DefaultEdge = "leaves"

// EdgePolicy configures one named downstream edge of a mid-tier: where its
// calls may go and how they behave on the way.  It is the one declaration of
// the fan-out knobs — Options embeds the default edge's, a topology spec's
// edge decodes into one — and it is per-edge, so a node in an arbitrary
// service DAG can hedge aggressively toward its cache tier while calling its
// store tier plainly.  A field tagged `spec:"key"` is that key of a spec's
// edge (`,inline` lends a struct's keys to the edge); core never reads the
// tags, and an untagged field cannot be set from a spec.
type EdgePolicy struct {
	// Timeout bounds each fan-out on this edge; calls still pending then
	// complete with ErrFanoutTimeout results, so the merge (and the front
	// end) never hangs on a wedged leaf (0 = wait forever, the paper's
	// configuration).
	Timeout time.Duration `spec:"timeout"`
	// Tail configures hedged requests and retries for this edge's calls
	// (zero value: neither; replica selection is always on).  The retry
	// budget itself stays tier-global, so one edge's recovery traffic cannot
	// starve another's.
	Tail TailPolicy `spec:",inline"`
	// Batch configures cross-request coalescing of this edge's calls: those
	// bound for the same replica share one carrier RPC (zero value: every
	// call is its own RPC).
	Batch BatchPolicy `spec:",inline"`
	// Routing selects the key→shard placement strategy (default
	// cluster.Modulo, the classic hash-mod-N).  cluster.Jump keeps ~n/(n+1)
	// of key placements stable through a resize.
	Routing cluster.Router
	// ConnsPerShard is the TCP connection count per downstream replica
	// (default: the tier's, Options.ConnsPerShard).
	ConnsPerShard int
}

// edge is one named downstream of a mid-tier: a live cluster topology plus
// the per-edge adaptive state (latency digest, cached hedge and batch flush
// delays).  Action counters are tier-global: every edge counts into the
// tier's one table.
type edge struct {
	name   string
	mt     *MidTier
	policy EdgePolicy

	// topo owns this edge's live downstream topology: an epoch-versioned
	// snapshot chain the hot path reads lock-free, and the add/drain/remove
	// operations that mutate it at runtime.
	topo *cluster.Topology

	// Latency digest behind the percentile-tracked hedge delay and the
	// digest-tracked batch flush delay, with the cached values refreshed
	// every hedgeRefreshEvery observations.
	leafLat      *stats.Histogram
	latCount     atomic.Uint64
	hedgeDelayNs atomic.Int64
	batchDelayNs atomic.Int64
}

// newEdge builds an edge (not yet bootstrapped) with its own cluster
// topology, dialing downstreams with the tier's client plumbing.
func (m *MidTier) newEdge(name string, p EdgePolicy) *edge {
	if p.ConnsPerShard <= 0 {
		p.ConnsPerShard = m.opts.ConnsPerShard
	}
	e := &edge{name: name, mt: m, policy: p, leafLat: stats.NewHistogram()}
	cfg := cluster.Config{
		Dial: func(addr string) (*rpc.Pool, error) {
			return rpc.DialPool(addr, e.policy.ConnsPerShard, &rpc.ClientOptions{
				Probe:      m.probe,
				OnResponse: m.onLeafResponse,
			})
		},
		Router:   p.Routing,
		Counters: m.counters,
	}
	if p.Batch.enabled() {
		cfg.NewBatcher = e.newBatcher
	}
	e.topo = cluster.New(cfg)
	return e
}

// ConnectEdge dials a named downstream edge: groups[i] lists the replica
// addresses serving shard i, and policy governs every call the edge carries.
// Connecting the DefaultEdge name replaces the default edge's policy (built
// from the tier Options) before bootstrapping it — this is how a topology
// spec re-expresses a handwritten service's wiring byte-for-byte, since the
// handlers keep fanning out on the default edge.  Must be called before
// Start.
func (m *MidTier) ConnectEdge(name string, groups [][]string, policy EdgePolicy) error {
	if m.started.Load() {
		return errors.New("core: ConnectEdge after Start")
	}
	if name == "" {
		name = DefaultEdge
	}
	m.edgeMu.Lock()
	defer m.edgeMu.Unlock()
	if name == DefaultEdge {
		if m.def.topo.Current().NumLeaves() > 0 {
			return errors.New("core: default edge already connected")
		}
		// The default edge has no downstreams yet, so its topology holds no
		// connections: swap in a replacement carrying the spec's policy.
		m.def.topo.Close()
		m.def = m.newEdge(DefaultEdge, policy)
		m.edges[DefaultEdge] = m.def
		if err := m.def.topo.Bootstrap(groups); err != nil {
			return err
		}
		return nil
	}
	if _, dup := m.edges[name]; dup {
		return fmt.Errorf("core: edge %q already connected", name)
	}
	e := m.newEdge(name, policy)
	if err := e.topo.Bootstrap(groups); err != nil {
		e.topo.Close()
		return err
	}
	m.edges[name] = e
	return nil
}

// observeLatency feeds the digest behind this edge's percentile-tracked
// hedge delay and digest-tracked batch flush delay.  The quantile scans are
// amortized: the cached delays refresh every hedgeRefreshEvery observations
// rather than per call.
func (e *edge) observeLatency(d time.Duration) {
	e.leafLat.Record(d)
	if e.latCount.Add(1)%hedgeRefreshEvery != 0 {
		return
	}
	e.refreshHedgeDelay()
	e.refreshBatchDelay()
}

// refreshHedgeDelay recomputes the cached percentile-tracked hedge delay.
func (e *edge) refreshHedgeDelay() {
	t := e.policy.Tail
	if !t.hedging() || t.HedgeDelay > 0 {
		return
	}
	q := max(e.leafLat.Quantile(t.HedgePercentile), hedgeMinDelay)
	e.hedgeDelayNs.Store(int64(q))
}

// hedgeDelay is the current delay before a pending call on this edge is
// hedged.
func (e *edge) hedgeDelay() time.Duration {
	if d := e.policy.Tail.HedgeDelay; d > 0 {
		return d
	}
	if d := e.hedgeDelayNs.Load(); d > 0 {
		return time.Duration(d)
	}
	return hedgeBootstrapDelay
}

// EdgeCtx is a request's view of one named downstream edge: the edge's
// policy plus a topology snapshot pinned for the request's lifetime, so
// every routing decision the request makes on this edge resolves against one
// epoch.  Obtained from Ctx.Edge; the zero value is not usable.
type EdgeCtx struct {
	c    *Ctx
	e    *edge
	snap *cluster.Snapshot
}

// edgePin records one non-default edge snapshot pinned by a request,
// released in finish.
type edgePin struct {
	e    *edge
	snap *cluster.Snapshot
}

// Edge resolves a named downstream edge for this request, pinning the edge's
// topology snapshot on first use (the default edge reuses the pin taken at
// arrival).  All pins release when the request finishes; a named edge
// resolved after that is an error, and pins nothing.
func (c *Ctx) Edge(name string) (EdgeCtx, error) {
	c.live()
	m := c.mt
	if name == "" || name == DefaultEdge {
		return EdgeCtx{c: c, e: m.def, snap: c.snap}, nil
	}
	e := m.edges[name] // read-only after Start
	if e == nil {
		return EdgeCtx{}, fmt.Errorf("core: no edge %q", name)
	}
	c.pinMu.Lock()
	if c.swept {
		c.pinMu.Unlock()
		return EdgeCtx{}, fmt.Errorf("core: edge %q resolved after the request was answered", name)
	}
	for _, p := range c.pins {
		if p.e == e {
			c.pinMu.Unlock()
			return EdgeCtx{c: c, e: e, snap: p.snap}, nil
		}
	}
	snap := e.topo.Acquire()
	c.pins = append(c.pins, edgePin{e: e, snap: snap})
	c.pinMu.Unlock()
	return EdgeCtx{c: c, e: e, snap: snap}, nil
}

// Shard maps a key hash to a downstream shard using the edge's routing
// strategy, against the pinned snapshot.
func (ec EdgeCtx) Shard(hash uint64) int {
	ec.c.live()
	return ec.snap.Shard(hash)
}

// FanoutTo asynchronously issues calls to this edge's shards and invokes
// merge with the request's context and all results once the last response
// arrives — Ctx.FanoutTo, on a named edge, under the edge's
// timeout/tail/batch policy.
func (ec EdgeCtx) FanoutTo(calls []LeafCall, merge func(*Ctx, []LeafResult)) {
	ec.c.live()
	ec.c.fanoutOn(ec.e, ec.snap, calls, merge)
}

// Fanout is FanoutTo for a merge closure; see Ctx.Fanout.
func (ec EdgeCtx) Fanout(calls []LeafCall, merge func([]LeafResult)) {
	ec.FanoutTo(calls, ignoreCtx(merge))
}

// FanoutAllTo broadcasts one payload to every shard of this edge.
func (ec EdgeCtx) FanoutAllTo(method string, payload []byte, merge func(*Ctx, []LeafResult)) {
	ec.c.live()
	ec.c.fanoutAllOn(ec.e, ec.snap, method, payload, merge)
}

// FanoutAll is FanoutAllTo for a merge closure; see Ctx.Fanout.
func (ec EdgeCtx) FanoutAll(method string, payload []byte, merge func([]LeafResult)) {
	ec.FanoutAllTo(method, payload, ignoreCtx(merge))
}
