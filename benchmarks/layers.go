package main

import (
	"fmt"
	"runtime"
	"time"

	"musuite"
	"musuite/internal/cluster"
	"musuite/internal/core"
	"musuite/internal/kernel"
	"musuite/internal/knn"
	"musuite/internal/memcache"
	"musuite/internal/postlist"
	"musuite/internal/rpc"
	"musuite/internal/services/hdsearch"
	"musuite/internal/services/router"
	"musuite/internal/services/setalgebra"
	"musuite/internal/spooky"
	"musuite/internal/trace"
	"musuite/internal/wire"
)

// The layer probes time calls into each layer's public functions from
// outside, on inputs drawn from the workload's own request stream.  No span
// or counter is added inside the program: a probe is a stopwatch around a
// call, and its spans are the benchmark's own.  A later change that renames a
// probed function has to be preceded by a change to this file.

// pipelineDepth is the number of calls kept outstanding on one connection by
// the pipelined rpc probe.
const pipelineDepth = 32

// sink keeps the results of probed calls alive, so that the compiler cannot
// drop the calls.
var sink uint64

// prober runs the probes of one workload and collects their metrics.
type prober struct {
	spans *trace.Recorder
	cr    *counterReader
	m     map[string]float64
	// A probe makes calls calls; budget stops a slow probe early, but never
	// before minCalls.  The pipelined rpc probe makes pipelined calls.
	calls, minCalls, pipelined int
	budget                     time.Duration
}

func newProber(spans *trace.Recorder, cr *counterReader, m map[string]float64, small bool) *prober {
	p := &prober{spans: spans, cr: cr, m: m, calls: 2000, minCalls: 200, pipelined: 20000, budget: 400 * time.Millisecond}
	if small {
		p.calls, p.minCalls, p.pipelined = 64, 64, 640
	}
	return p
}

// span records one timed probe sample as a trace of its own.
func (p *prober) span(name string, start time.Time, took time.Duration) {
	p.spans.Record(trace.Span{
		TraceID: trace.ID(trace.NewID()), SpanID: trace.ID(trace.NewID()),
		Name: "probe." + name, Start: start.UnixNano(), Duration: took.Nanoseconds(),
	})
}

// time calls fn in samples of batch calls (batch > 1 for calls too short to
// time one by one), records one probe.<name> span per sample, and returns
// the median time per call in ns.  A second, untimed pass counts the heap
// allocations per call.
func (p *prober) time(name string, batch int, fn func(i int)) (ns, allocs float64) {
	var samples []float64
	began := time.Now()
	calls := 0
	for calls < p.calls && (calls < p.minCalls || time.Since(began) < p.budget) {
		start := time.Now()
		for b := 0; b < batch; b++ {
			fn(calls + b)
		}
		took := time.Since(start)
		calls += batch
		samples = append(samples, float64(took.Nanoseconds())/float64(batch))
		p.span(name, start, took)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < p.minCalls; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return median(samples), float64(after.Mallocs-before.Mallocs) / float64(p.minCalls)
}

// sizes are the payload sizes the transport probes use: the workload's
// median request and reply to and from the mid-tier, and to and from a leaf.
type sizes struct {
	req, reply, leafReq, leafReply int
	fanout                         int // leaf calls per request
}

func medianLen(n int, at func(i int) int) int {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(at(i))
	}
	return int(median(v))
}

// sampleReplies fetches the raw replies of the first n stream entries over a
// plain RPC connection: the exact bytes the front-end decodes.
func sampleReplies(d *deployment, n int) ([][]byte, error) {
	c, err := musuite.DialRPC(d.midAddr, nil)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	out := make([][]byte, n)
	for i := range out {
		method, payload := d.request(i)
		if out[i], err = c.Call(method, payload); err != nil {
			return nil, fmt.Errorf("sample reply %d: %w", i, err)
		}
	}
	return out, nil
}

// probeWire times the service's request encoder and reply decoder and
// records the exact payload sizes.
func (p *prober) probeWire(d *deployment, decode func(reply []byte)) error {
	replies, err := sampleReplies(d, min(256, d.ops))
	if err != nil {
		return err
	}
	p.m["wire.encode_ns"], _ = p.time("wire.encode_ns", 16, func(i int) { d.request(i) })
	p.m["wire.decode_ns"], _ = p.time("wire.decode_ns", 16, func(i int) { decode(replies[i%len(replies)]) })
	p.m["wire.req_bytes"] = float64(medianLen(d.ops, func(i int) int { _, b := d.request(i); return len(b) }))
	p.m["wire.reply_bytes"] = float64(medianLen(len(replies), func(i int) int { return len(replies[i]) }))
	return nil
}

// probeTransport measures the layers every request crosses whatever the
// service: one rpc round trip, the pipelined rpc path, the mid-tier's
// dispatch hand-off and its fan-out to no-op leaves.
func (p *prober) probeTransport(sz sizes) error {
	reply := make([]byte, sz.reply)
	payload := make([]byte, sz.req)

	// rpc: client → echo server, one call outstanding.
	var callErr error
	srv := rpc.NewServer(func(r *rpc.Request) { r.Reply(reply) }, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	// With one call outstanding the scheduler may keep both ends of a
	// connection on one CPU or spread them over two, which costs a wake-up
	// across CPUs on every hop; which it does is settled per connection.
	// roundTrip therefore times three fresh connections and keeps the
	// fastest one's median.
	roundTrip := func(name, addr string) (ns, allocs float64, err error) {
		for attempt := 0; attempt < 3; attempt++ {
			c, err := rpc.Dial(addr, nil)
			if err != nil {
				return 0, 0, err
			}
			n, a := p.time(name, 1, func(int) {
				if _, err := c.Call("probe.echo", payload); err != nil {
					callErr = err
				}
			})
			c.Close()
			if attempt == 0 || n < ns {
				ns, allocs = n, a
			}
		}
		return ns, allocs, nil
	}
	ns, allocs, err := roundTrip("rpc.roundtrip_us", addr)
	if err != nil {
		return err
	}
	p.m["rpc.roundtrip_us"], p.m["rpc.roundtrip_allocs"] = ns/1e3, allocs

	// rpc, pipelined: pipelineDepth calls outstanding on the connection, so
	// that writes can coalesce.
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		return err
	}
	defer c.Close()
	done := make(chan *rpc.Call, pipelineDepth)
	sysBefore, err := p.cr.syscalls()
	if err != nil {
		return err
	}
	start := time.Now()
	issued := 0
	for ; issued < pipelineDepth; issued++ {
		c.Go("probe.echo", payload, nil, done)
	}
	for completed := 0; completed < p.pipelined; completed++ {
		finished := <-done
		if finished.Err != nil {
			callErr = finished.Err
		}
		finished.Release()
		if issued < p.pipelined {
			c.Go("probe.echo", payload, nil, done)
			issued++
		}
	}
	took := time.Since(start)
	sysAfter, err := p.cr.syscalls()
	if err != nil {
		return err
	}
	p.span("rpc.pipelined_us", start, took)
	p.m["rpc.pipelined_us"] = float64(took.Nanoseconds()) / 1e3 / float64(p.pipelined)
	p.m["rpc.syscalls_per_call"] = float64(sysAfter-sysBefore) / float64(p.pipelined)

	// core: a mid-tier whose handler replies at once costs one rpc round
	// trip plus the hand-off from the poller to a worker.
	direct := core.NewMidTier(func(ctx *core.Ctx) { ctx.Reply(reply) }, nil)
	defer direct.Close()
	directAddr, err := direct.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	directNS, _, err := roundTrip("core.handoff_us", directAddr)
	if err != nil {
		return err
	}
	p.m["core.handoff_us"] = (directNS - ns) / 1e3

	// core: the same mid-tier fanning out to no-op leaves adds the leaf
	// round trips, the leaves' own hand-off and the response threads.
	leafPayload := make([]byte, sz.leafReq)
	leafReply := make([]byte, sz.leafReply)
	var leafAddrs []string
	for i := 0; i < sz.fanout; i++ {
		leaf := core.NewLeafEncoded(func(_ string, _ []byte, e *wire.Encoder) error {
			e.Raw(leafReply)
			return nil
		}, nil)
		defer leaf.Close()
		leafAddr, err := leaf.Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		leafAddrs = append(leafAddrs, leafAddr)
	}
	fan := core.NewMidTier(func(ctx *core.Ctx) {
		ctx.FanoutAll("probe.leaf", leafPayload, func(results []core.LeafResult) {
			for _, r := range results {
				if r.Err != nil {
					ctx.ReplyError(r.Err)
					return
				}
			}
			ctx.Reply(reply)
		})
	}, nil)
	defer fan.Close()
	if err := fan.ConnectLeaves(leafAddrs); err != nil {
		return err
	}
	fanAddr, err := fan.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	fanNS, fanAllocs, err := roundTrip("core.fanout_us", fanAddr)
	if err != nil {
		return err
	}
	p.m["core.fanout_us"] = (fanNS - directNS) / 1e3
	p.m["core.fanout_allocs"] = fanAllocs
	if callErr != nil {
		return fmt.Errorf("transport probe: %w", callErr)
	}
	return nil
}

// --- Router ---

func probeRouter(p *prober, d *deployment) error {
	rd := d.data.(*routerData)
	if err := p.probeWire(d, func(reply []byte) { router.DecodeGetResponse(reply) }); err != nil {
		return err
	}
	sz := sizes{fanout: 1}
	sz.req, sz.reply = int(p.m["wire.req_bytes"]), int(p.m["wire.reply_bytes"])
	sz.leafReq, sz.leafReply = sz.req, sz.reply // the mid-tier forwards both unchanged
	if rd.set {
		sz.fanout = routerReplicas
		// A set's reply is empty: there is nothing to decode.
		p.m["wire.decode_ns"] = 0
	}
	if err := p.probeTransport(sz); err != nil {
		return err
	}

	keyBytes := make([][]byte, len(rd.keys))
	for i, k := range rd.keys {
		keyBytes[i] = []byte(k)
	}
	key := func(i int) int { return rd.opKey[i%len(rd.opKey)] }
	p.m["spooky.hash_ns"], _ = p.time("spooky.hash_ns", 64, func(i int) { sink += spooky.Hash64(keyBytes[key(i)], 1) })
	p.m["cluster.route_ns"], _ = p.time("cluster.route_ns", 64, func(i int) {
		sink += uint64(router.ReplicasRouted(rd.keys[key(i)], cluster.Modulo{}, routerLeaves, routerReplicas)[0])
	})

	store := memcache.New(memcache.Config{})
	for i, k := range rd.keys {
		store.Set(k, rd.values[i], 0)
	}
	if rd.set {
		ns, allocs := p.time("memcache.set_ns", 16, func(i int) {
			store.Set(rd.keys[key(i)], rd.opVal[i%len(rd.opVal)], 0)
		})
		p.m["memcache.set_ns"], p.m["memcache.set_allocs"] = ns, allocs
	} else {
		p.m["memcache.get_ns"], _ = p.time("memcache.get_ns", 64, func(i int) {
			store.View(rd.keys[key(i)], func(v []byte) { sink += uint64(len(v)) })
		})
	}
	return nil
}

// explainRouter sums the probes along a Router request's blocking path: the
// front-end round trip and mid-tier hand-off, the fan-out to the leaves, the
// routing decision, the codec and the store operation.
func explainRouter(storeMetric string) func(map[string]float64) float64 {
	return func(m map[string]float64) float64 {
		return m["rpc.roundtrip_us"] + m["core.handoff_us"] + m["core.fanout_us"] +
			(m["wire.encode_ns"]+m["wire.decode_ns"]+m["cluster.route_ns"]+m[storeMetric])/1e3
	}
}

// --- SetAlgebra ---

func probeSetAlgebra(p *prober, d *deployment) error {
	sd := d.data.(*setData)
	if err := p.probeWire(d, func(reply []byte) { setalgebra.DecodeDocIDs(reply) }); err != nil {
		return err
	}
	// The probes need the shards' indexes, which the cluster does not
	// expose: build them again from the same corpus.
	shards := setalgebra.ShardCorpus(sd.corpus, setShards, setStopTerms)
	n := min(512, len(sd.queries))
	perShard := make([][][]uint32, n) // query → shard → global doc IDs
	var leafReply, resultIDs []float64
	for qi := 0; qi < n; qi++ {
		perShard[qi] = make([][]uint32, setShards)
		for s, sh := range shards {
			for _, local := range sh.Index.Search(sd.queries[qi]) {
				perShard[qi][s] = append(perShard[qi][s], sh.GlobalID[local])
			}
			comp, err := postlist.CompressIDs(perShard[qi][s])
			if err != nil {
				return err
			}
			leafReply = append(leafReply, float64(len(comp)))
		}
		resultIDs = append(resultIDs, float64(len(postlist.MergeSortedInto(nil, perShard[qi]))))
	}
	sz := sizes{fanout: setShards}
	sz.req, sz.reply = int(p.m["wire.req_bytes"]), int(p.m["wire.reply_bytes"])
	sz.leafReq, sz.leafReply = sz.req, int(median(leafReply))
	if err := p.probeTransport(sz); err != nil {
		return err
	}
	ns, _ := p.time("postlist.search_us", 1, func(i int) { sink += uint64(len(shards[0].Index.Search(sd.queries[i%n]))) })
	p.m["postlist.search_us"] = ns / 1e3
	var dst []uint32
	ns, _ = p.time("postlist.merge_us", 1, func(i int) { dst = postlist.MergeSortedInto(dst[:0], perShard[i%n]) })
	p.m["postlist.merge_us"] = ns / 1e3
	p.m["postlist.result_ids"] = median(resultIDs)
	return nil
}

func explainSetAlgebra(m map[string]float64) float64 {
	return m["rpc.roundtrip_us"] + m["core.handoff_us"] + m["core.fanout_us"] +
		(m["wire.encode_ns"]+m["wire.decode_ns"])/1e3 + m["postlist.search_us"] + m["postlist.merge_us"]
}

// --- HDSearch ---

func probeHDSearch(p *prober, d *deployment) error {
	hd := d.data.(*hdData)
	if err := p.probeWire(d, func(reply []byte) { hdsearch.DecodeNeighbors(reply) }); err != nil {
		return err
	}
	// As for SetAlgebra: the cluster keeps its index private, so the probes
	// build the identical one (same corpus, same seed).
	shards := hdsearch.ShardCorpus(hd.corpus, hdShards)
	index, err := hdsearch.BuildIndex(shards, hdsearch.IndexConfig{Seed: hdCorpusSeed})
	if err != nil {
		return err
	}
	n := len(hd.queries)
	var candidates, leafReq []float64
	shard0 := make([][]uint32, n)
	for qi, q := range hd.queries {
		byShard := index.LookupByShard(q)
		total := 0
		for s, ids := range byShard {
			total += len(ids)
			leafReq = append(leafReq, float64(len(hdsearch.EncodeLeafRequest(q, ids, hdK))))
			if s == 0 {
				shard0[qi] = ids
			}
		}
		candidates = append(candidates, float64(total))
	}
	sz := sizes{fanout: hdShards}
	sz.req, sz.reply = int(p.m["wire.req_bytes"]), int(p.m["wire.reply_bytes"])
	sz.leafReq, sz.leafReply = int(median(leafReq)), sz.reply // a leaf also returns k neighbours
	if err := p.probeTransport(sz); err != nil {
		return err
	}
	ns, allocs := p.time("lsh.lookup_us", 1, func(i int) { sink += uint64(len(index.LookupByShard(hd.queries[i%n]))) })
	p.m["lsh.lookup_us"], p.m["lsh.lookup_allocs"] = ns/1e3, allocs
	p.m["lsh.candidates"] = median(candidates)
	eng := kernel.New(kernel.Config{})
	var dst []knn.Neighbor
	ns, _ = p.time("kernel.scan_subset_us", 1, func(i int) {
		dst, _ = eng.ScanSubset(shards[0].Store, hd.queries[i%n], shard0[i%n], hdK, dst[:0])
	})
	p.m["kernel.scan_subset_us"] = ns / 1e3
	return nil
}

func explainHDSearch(m map[string]float64) float64 {
	return m["rpc.roundtrip_us"] + m["core.handoff_us"] + m["core.fanout_us"] +
		(m["wire.encode_ns"]+m["wire.decode_ns"])/1e3 + m["lsh.lookup_us"] + m["kernel.scan_subset_us"]
}

// --- traces ---

// tierTimes is the mean critical-path self time per tier, in µs.
type tierTimes struct {
	frontend, midtierSelf, leafWait, leafSelf float64
	connectedFrac                             float64
	traces                                    int
}

// summarizeTiers reassembles the sampled requests and charges each span on a
// request's critical path to its tier.  The recorders' Service labels tell
// the tiers apart; trace.Summarize groups by method name, which Router
// shares between its two hops.
func summarizeTiers(spans []trace.Span) tierTimes {
	trees := trace.BuildTrees(spans)
	var t tierTimes
	t.traces = len(trees)
	connected := 0
	for _, tree := range trees {
		if !tree.Connected() {
			continue
		}
		connected++
		for _, seg := range tree.CriticalPath() {
			us := float64(seg.Self.Nanoseconds()) / 1e3
			switch {
			case seg.Service == "midtier" && seg.Kind == trace.KindServer:
				t.midtierSelf += us
			case seg.Service == "midtier":
				t.leafWait += us
			case seg.Service == "leaf":
				t.leafSelf += us
			default: // the benchmark's root span and the front-end client span
				t.frontend += us
			}
		}
	}
	if connected == 0 {
		return t
	}
	n := float64(connected)
	t.frontend, t.midtierSelf, t.leafWait, t.leafSelf = t.frontend/n, t.midtierSelf/n, t.leafWait/n, t.leafSelf/n
	t.connectedFrac = n / float64(len(trees))
	return t
}

// leafTotals sums the counters the leaves export through core.stats.
type leafTotals struct {
	served, kernelPoints, kernelNanos uint64
}

// dialLeaves opens a plain RPC connection to every leaf for reading its
// counters; on error it returns the connections opened so far.
func dialLeaves(addrs []string) ([]*musuite.RPCClient, error) {
	var clients []*musuite.RPCClient
	for _, addr := range addrs {
		c, err := musuite.DialRPC(addr, nil)
		if err != nil {
			return clients, err
		}
		clients = append(clients, c)
	}
	return clients, nil
}

func closeAll(clients []*musuite.RPCClient) {
	for _, c := range clients {
		c.Close()
	}
}

func readLeaves(clients []*musuite.RPCClient) (leafTotals, error) {
	var t leafTotals
	for _, c := range clients {
		st, err := musuite.QueryStats(c)
		if err != nil {
			return t, fmt.Errorf("leaf stats: %w", err)
		}
		t.served += st.Served
		t.kernelPoints += st.KernelPoints
		t.kernelNanos += st.KernelNanos
	}
	return t, nil
}

// settleLeaves reads the leaf counters once they have stopped moving: a leaf
// bumps Served after its reply is on the wire, so the last requests of a
// segment may not have been counted when their replies arrive.
func settleLeaves(clients []*musuite.RPCClient) (leafTotals, error) {
	prev, err := readLeaves(clients)
	for tries := 0; err == nil && tries < 100; tries++ {
		time.Sleep(5 * time.Millisecond)
		var cur leafTotals
		if cur, err = readLeaves(clients); cur == prev {
			return cur, err
		}
		prev = cur
	}
	return prev, err
}
