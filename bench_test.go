// Top-level benchmark harness: one testing.B benchmark per paper table and
// figure, so `go test -bench=. -benchmem` regenerates the evaluation's
// headline numbers in benchmark form.  The richer rendition (violins,
// per-load sweeps, full syscall tables) lives in `musuite bench`.
package musuite_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"musuite"
	"musuite/internal/ann"
	"musuite/internal/bench"
	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/kernel"
	"musuite/internal/knn"
	"musuite/internal/loadgen"
	"musuite/internal/postlist"
	"musuite/internal/rpc"
	"musuite/internal/stats"
	"musuite/internal/telemetry"
	"musuite/internal/vec"
)

// benchScale shrinks datasets so cluster setup stays under a second per
// benchmark while preserving every code path.
func benchScale() musuite.Scale {
	s := musuite.SmallScale()
	s.HDCorpus, s.HDQueries = 1500, 512
	s.RouterKeys = 1000
	s.Docs, s.Vocab = 800, 2400
	s.Users, s.Items, s.Ratings = 50, 60, 1800
	return s
}

// startInstance deploys a service for benchmarking, failing the benchmark on
// error.
func startInstance(b *testing.B, name string, mode musuite.FrameworkMode) *musuite.Instance {
	b.Helper()
	inst, err := musuite.StartService(name, benchScale(), mode)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(inst.Close)
	return inst
}

// syncQuery issues one request and waits for it.
func syncQuery(b *testing.B, inst *musuite.Instance, done chan *musuite.RPCCall) {
	inst.Issue(done)
	call := <-done
	if call.Err != nil {
		b.Fatal(call.Err)
	}
}

// --- Fig. 9: saturation throughput ---
// ops/sec under closed-loop parallel drive approximates each service's peak
// sustainable QPS (the paper's Fig. 9 bars).

func benchmarkFig9(b *testing.B, name string) {
	inst := startInstance(b, name, musuite.FrameworkMode{})
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		done := make(chan *musuite.RPCCall, 1)
		for pb.Next() {
			inst.Issue(done)
			if call := <-done; call.Err != nil {
				b.Error(call.Err)
				return
			}
		}
	})
}

func BenchmarkFig9SaturationHDSearch(b *testing.B)   { benchmarkFig9(b, "HDSearch") }
func BenchmarkFig9SaturationRouter(b *testing.B)     { benchmarkFig9(b, "Router") }
func BenchmarkFig9SaturationSetAlgebra(b *testing.B) { benchmarkFig9(b, "SetAlgebra") }
func BenchmarkFig9SaturationRecommend(b *testing.B)  { benchmarkFig9(b, "Recommend") }

// --- Fig. 10: end-to-end latency distribution ---
// Sequential queries report per-request latency; p50/p99 surface as custom
// metrics, the two statistics the paper's violins highlight.

func benchmarkFig10(b *testing.B, name string) {
	inst := startInstance(b, name, musuite.FrameworkMode{})
	done := make(chan *musuite.RPCCall, 1)
	hist := stats.NewHistogram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		syncQuery(b, inst, done)
		hist.Record(time.Since(start))
	}
	b.ReportMetric(float64(hist.Quantile(0.5)), "p50-ns")
	b.ReportMetric(float64(hist.Quantile(0.99)), "p99-ns")
}

func BenchmarkFig10LatencyHDSearch(b *testing.B)   { benchmarkFig10(b, "HDSearch") }
func BenchmarkFig10LatencyRouter(b *testing.B)     { benchmarkFig10(b, "Router") }
func BenchmarkFig10LatencySetAlgebra(b *testing.B) { benchmarkFig10(b, "SetAlgebra") }
func BenchmarkFig10LatencyRecommend(b *testing.B)  { benchmarkFig10(b, "Recommend") }

// --- Figs. 11–14: syscall invocations per query ---
// The futex/query and sendmsg/query custom metrics reproduce the figures'
// dominant bars (Fig. 11 HDSearch, 12 Router, 13 SetAlgebra, 14 Recommend).

func benchmarkFig11to14(b *testing.B, name string) {
	inst := startInstance(b, name, musuite.FrameworkMode{})
	done := make(chan *musuite.RPCCall, 1)
	inst.Probe.Reset()
	before := inst.Probe.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syncQuery(b, inst, done)
	}
	b.StopTimer()
	delta := inst.Probe.Snapshot().Delta(before)
	n := float64(b.N)
	b.ReportMetric(float64(delta[telemetry.SysFutex])/n, "futex/query")
	b.ReportMetric(float64(delta[telemetry.SysSendmsg])/n, "sendmsg/query")
	b.ReportMetric(float64(delta[telemetry.SysRecvmsg])/n, "recvmsg/query")
	b.ReportMetric(float64(delta[telemetry.SysEpollPwait])/n, "epoll/query")
}

func BenchmarkFig11SyscallsHDSearch(b *testing.B)   { benchmarkFig11to14(b, "HDSearch") }
func BenchmarkFig12SyscallsRouter(b *testing.B)     { benchmarkFig11to14(b, "Router") }
func BenchmarkFig13SyscallsSetAlgebra(b *testing.B) { benchmarkFig11to14(b, "SetAlgebra") }
func BenchmarkFig14SyscallsRecommend(b *testing.B)  { benchmarkFig11to14(b, "Recommend") }

// --- Figs. 15–18: OS overhead breakdown ---
// Custom metrics report the Active-Exe (wakeup→run) and total-Net p99,
// whose ratio is the paper's headline scheduler-influence number.

func benchmarkFig15to18(b *testing.B, name string) {
	inst := startInstance(b, name, musuite.FrameworkMode{})
	done := make(chan *musuite.RPCCall, 1)
	inst.Probe.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syncQuery(b, inst, done)
	}
	b.StopTimer()
	ae := inst.Probe.OverheadSnapshot(telemetry.OverheadActiveExe).P99
	net := inst.Probe.OverheadSnapshot(telemetry.OverheadNet).P99
	b.ReportMetric(float64(ae), "ActiveExe-p99-ns")
	b.ReportMetric(float64(net), "Net-p99-ns")
	if net > 0 {
		b.ReportMetric(float64(ae)/float64(net)*100, "ActiveExe-share-%")
	}
}

func BenchmarkFig15OverheadsHDSearch(b *testing.B)   { benchmarkFig15to18(b, "HDSearch") }
func BenchmarkFig16OverheadsRouter(b *testing.B)     { benchmarkFig15to18(b, "Router") }
func BenchmarkFig17OverheadsSetAlgebra(b *testing.B) { benchmarkFig15to18(b, "SetAlgebra") }
func BenchmarkFig18OverheadsRecommend(b *testing.B)  { benchmarkFig15to18(b, "Recommend") }

// --- Fig. 19: context switches and contention ---

func benchmarkFig19(b *testing.B, name string) {
	inst := startInstance(b, name, musuite.FrameworkMode{})
	done := make(chan *musuite.RPCCall, 1)
	inst.Probe.Reset()
	before := inst.Probe.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syncQuery(b, inst, done)
	}
	b.StopTimer()
	delta := inst.Probe.Snapshot().Delta(before)
	n := float64(b.N)
	b.ReportMetric(float64(delta[telemetry.CtxSwitch])/n, "CS/query")
	b.ReportMetric(float64(delta[telemetry.HITM])/n, "HITM/query")
}

func BenchmarkFig19ContentionHDSearch(b *testing.B)   { benchmarkFig19(b, "HDSearch") }
func BenchmarkFig19ContentionRouter(b *testing.B)     { benchmarkFig19(b, "Router") }
func BenchmarkFig19ContentionSetAlgebra(b *testing.B) { benchmarkFig19(b, "SetAlgebra") }
func BenchmarkFig19ContentionRecommend(b *testing.B)  { benchmarkFig19(b, "Recommend") }

// --- §VII ablations: blocking-vs-polling and dispatch-vs-in-line ---

func benchmarkAblation(b *testing.B, mode musuite.FrameworkMode) {
	inst := startInstance(b, "Router", mode)
	done := make(chan *musuite.RPCCall, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syncQuery(b, inst, done)
	}
}

func BenchmarkAblationDispatchBlocking(b *testing.B) {
	benchmarkAblation(b, musuite.FrameworkMode{MidTier: musuite.MidTierOptions{Dispatch: musuite.Dispatched, Wait: musuite.WaitBlocking}})
}

func BenchmarkAblationDispatchPolling(b *testing.B) {
	benchmarkAblation(b, musuite.FrameworkMode{MidTier: musuite.MidTierOptions{Dispatch: musuite.Dispatched, Wait: musuite.WaitPolling}})
}

func BenchmarkAblationInline(b *testing.B) {
	benchmarkAblation(b, musuite.FrameworkMode{MidTier: musuite.MidTierOptions{Dispatch: musuite.Inline, Wait: musuite.WaitBlocking}})
}

// --- Table II analog ---
// Not a measurement; recorded here so `-bench .` output carries the host
// description alongside the numbers.

func BenchmarkTableIIHostInfo(b *testing.B) {
	h := bench.Host()
	b.ReportMetric(float64(h.CPUs), "cpus")
	for i := 0; i < b.N; i++ {
		_ = fmt.Sprintf("%s %s/%s %d cpus", h.GoVersion, h.OS, h.Arch, h.CPUs)
	}
}

// --- §VI-B claim: median latency inflation at low load ---
// Runs two short open-loop windows and reports the low/mid median ratio
// (the paper reports up to 1.45×).

func BenchmarkSec6BLowLoadMedianInflation(b *testing.B) {
	inst := startInstance(b, "SetAlgebra", musuite.FrameworkMode{})
	median := func(qps float64) time.Duration {
		res := loadgen.RunOpenLoop(inst.Issue, loadgen.OpenLoopConfig{
			QPS: qps, Duration: 1500 * time.Millisecond, Seed: 42,
		})
		return res.Latency.Median
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := median(40)
		mid := median(400)
		if mid > 0 {
			b.ReportMetric(float64(lo)/float64(mid), "median-ratio")
		}
	}
}

// --- Tail tolerance: hedged requests vs an intermittently slow leaf ---
// A 3-shard × 2-replica fan-out where one replica stalls 2ms on every 8th
// request.  The Hedged variant duplicates calls stuck past the tracked p95
// onto the shard's other replica; p99-ns is the metric to compare.

func benchmarkTailFanout(b *testing.B, tail musuite.TailPolicy) {
	groups := make([][]string, 3)
	for s := range groups {
		for r := 0; r < 2; r++ {
			var n atomic.Uint64
			stall := s == 0 && r == 1
			leaf := core.NewLeaf(func(method string, payload []byte) ([]byte, error) {
				if stall && n.Add(1)%8 == 0 {
					time.Sleep(2 * time.Millisecond)
				}
				return payload, nil
			}, &core.LeafOptions{Workers: 4})
			addr, err := leaf.Start("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(leaf.Close)
			groups[s] = append(groups[s], addr)
		}
	}
	mt := core.NewMidTier(func(ctx *core.Ctx) {
		ctx.FanoutAll("work", ctx.Req.Payload, func(results []core.LeafResult) {
			for _, r := range results {
				if r.Err != nil {
					ctx.ReplyError(r.Err)
					return
				}
			}
			ctx.Reply([]byte("ok"))
		})
	}, &core.Options{Workers: 4, EdgePolicy: core.EdgePolicy{Tail: tail}})
	if err := mt.ConnectLeafGroups(groups); err != nil {
		b.Fatal(err)
	}
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(mt.Close)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := c.Call("q", []byte("x")); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
}

func BenchmarkTailFanoutNoHedge(b *testing.B) {
	benchmarkTailFanout(b, musuite.TailPolicy{})
}

// --- Cross-request leaf batching: amortized per-RPC overhead ---
// A 2-shard fan-out driven by many concurrent clients.  With batching the
// mid-tier coalesces the concurrent leaf calls bound for each shard into
// carrier RPCs, amortizing framing, syscall, and dispatch costs; ns/op is
// the throughput comparison and p99-ns guards the latency side of the
// trade.  batch-occupancy reports members per carrier actually achieved.

func benchmarkLeafBatching(b *testing.B, batch musuite.BatchPolicy) {
	groups := make([][]string, 2)
	for s := range groups {
		leaf := core.NewLeaf(func(method string, payload []byte) ([]byte, error) {
			return payload, nil
		}, &core.LeafOptions{Workers: 4})
		addr, err := leaf.Start("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(leaf.Close)
		groups[s] = []string{addr}
	}
	mt := core.NewMidTier(func(ctx *core.Ctx) {
		ctx.FanoutAll("work", ctx.Req.Payload, func(results []core.LeafResult) {
			for _, r := range results {
				if r.Err != nil {
					ctx.ReplyError(r.Err)
					return
				}
			}
			ctx.Reply([]byte("ok"))
		})
	}, &core.Options{Workers: 4, EdgePolicy: core.EdgePolicy{Batch: batch}})
	if err := mt.ConnectLeafGroups(groups); err != nil {
		b.Fatal(err)
	}
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(mt.Close)

	var mu sync.Mutex
	lat := make([]time.Duration, 0, b.N)
	b.SetParallelism(64) // keep well over MaxBatch requests in flight so size, not deadline, flushes
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c, err := rpc.Dial(addr, nil)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		local := make([]time.Duration, 0, 512)
		done := make(chan *rpc.Call, 1)
		for pb.Next() {
			start := time.Now()
			c.Go("q", []byte("payload-abcdef"), nil, done)
			if call := <-done; call.Err != nil {
				b.Error(call.Err)
				return
			}
			local = append(local, time.Since(start))
		}
		mu.Lock()
		lat = append(lat, local...)
		mu.Unlock()
	})
	b.StopTimer()
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
	sc, err := rpc.Dial(addr, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	st, err := core.QueryStats(sc)
	if err != nil {
		b.Fatal(err)
	}
	if st.BatchCarriers > 0 {
		b.ReportMetric(float64(st.BatchMembers)/float64(st.BatchCarriers), "batch-occupancy")
	}
}

func BenchmarkLeafBatching(b *testing.B) {
	b.Run("batch=1", func(b *testing.B) {
		benchmarkLeafBatching(b, musuite.BatchPolicy{})
	})
	b.Run("batch=16", func(b *testing.B) {
		benchmarkLeafBatching(b, musuite.BatchPolicy{MaxBatch: 16})
	})
}

func BenchmarkTailFanoutHedged(b *testing.B) {
	benchmarkTailFanout(b, musuite.TailPolicy{
		HedgePercentile: 0.95,
		HedgeMinDelay:   500 * time.Microsecond,
	})
}

// --- Hot-path allocation budget ---
// Run under -benchmem; every tier is in this process, so B/op and allocs/op
// are end-to-end figures.  RoundTrip is one warmed client against an echo
// leaf: the client half of the path is allocation-free in steady state
// (pinned exactly by rpc's TestClientSteadyStateAllocFree); what remains in
// allocs/op is the server-side per-request envelope.  RouterSet and RouterGet
// are whole requests over the benchmark's Router shape (4 leaves × 2
// replicas, a 1 KiB value on a resident key): what the ledger's
// allocs_per_req / alloc_bytes_per_req read on router_set and router_get
// (DESIGN §5.3 "What a request allocates"), here so the gate sees a copy come
// back on the request path.

func BenchmarkHotPathAllocs(b *testing.B) {
	b.Run("RoundTrip", func(b *testing.B) {
		leaf := core.NewLeaf(func(method string, payload []byte) ([]byte, error) {
			return payload, nil
		}, &core.LeafOptions{Workers: 2})
		addr, err := leaf.Start("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(leaf.Close)
		c, err := rpc.Dial(addr, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })

		payload := []byte("hot-path-payload")
		done := make(chan *rpc.Call, 1)
		benchmarkWarmed(b, func() {
			c.Go("q", payload, nil, done)
			call := <-done
			if call.Err != nil {
				b.Fatal(call.Err)
			}
			call.Release()
		})
	})

	b.Run("RouterSet", func(b *testing.B) { benchmarkRouterOp(b, false) })
	b.Run("RouterGet", func(b *testing.B) { benchmarkRouterOp(b, true) })
}

// benchmarkRouterOp measures a set (or a get) of one resident key with a
// 1 KiB value over a 4 × 2 Router cluster.
func benchmarkRouterOp(b *testing.B, get bool) {
	cl, err := musuite.StartRouterCluster(musuite.RouterClusterConfig{Leaves: 4, Replicas: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	c, err := musuite.DialRouter(cl.Addr, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	key, value := "key:00000042", bytes.Repeat([]byte("v"), 1024)
	if err := c.Set(key, value); err != nil {
		b.Fatal(err)
	}
	benchmarkWarmed(b, func() {
		if !get {
			err = c.Set(key, value)
		} else if _, found, gerr := c.Get(key); gerr != nil || !found {
			err = fmt.Errorf("get: found=%v err=%v", found, gerr)
		}
		if err != nil {
			b.Fatal(err)
		}
	})
}

// benchmarkWarmed runs op 500 times to fill the call, buffer, encoder and
// fan-out pools, then measures it.
func benchmarkWarmed(b *testing.B, op func()) {
	for i := 0; i < 500; i++ {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// --- Leaf compute kernels ---
// The tentpole microbenchmarks the gate holds: a single-query full-shard
// scan through the SoA store's norm-trick kernel vs the pre-engine scalar
// path, streaming top-k selection vs reference select, and the dense-range
// bitset posting-list intersection vs the galloping kernel.

// leafScanCorpus builds the benchmark shard once: 100k points × 64 dims,
// both as a kernel store and as the []vec.Vector layout the pre-engine path
// scanned.
func leafScanCorpus() (*kernel.Store, []vec.Vector, []float32) {
	const n, dim = 100_000, 64
	r := rand.New(rand.NewSource(7))
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = float32(r.NormFloat64())
	}
	s, err := kernel.FromFlat(data, dim)
	if err != nil {
		panic(err)
	}
	vecs := make([]vec.Vector, n)
	for i := range vecs {
		vecs[i] = vec.Vector(s.Row(i))
	}
	q := make([]float32, dim)
	for i := range q {
		q[i] = float32(r.NormFloat64())
	}
	return s, vecs, q
}

func BenchmarkLeafScan(b *testing.B) {
	s, vecs, q := leafScanCorpus()
	const k = 10
	b.Run("engine", func(b *testing.B) {
		eng := musuite.NewKernel(musuite.KernelConfig{})
		var dst []knn.Neighbor
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = eng.Scan(s, q, k, dst[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepr", func(b *testing.B) {
		// The pre-engine leaf computation: per-point diff-squared distance
		// into the heap-based reference selection.
		for i := 0; i < b.N; i++ {
			if got := knn.BruteForce(vec.Vector(q), vecs, k); len(got) != k {
				b.Fatal("short result")
			}
		}
	})
}

func BenchmarkTopK(b *testing.B) {
	const n, k = 100_000, 10
	r := rand.New(rand.NewSource(11))
	cands := make([]knn.Neighbor, n)
	for i := range cands {
		cands[i] = knn.Neighbor{ID: uint32(i), Distance: r.Float32()}
	}
	b.Run("stream", func(b *testing.B) {
		top := kernel.NewTopK(k)
		var dst []knn.Neighbor
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			top.Reset(k)
			// The engine's scan idiom: one inline threshold compare
			// rejects almost every candidate without a heap call.
			thr := top.Threshold()
			for _, c := range cands {
				if c.Distance <= thr {
					top.Consider(c.ID, c.Distance)
					thr = top.Threshold()
				}
			}
			dst = top.AppendSorted(dst[:0])
		}
		if len(dst) != k {
			b.Fatal("short result")
		}
	})
	b.Run("select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := knn.Select(cands, k); len(got) != k {
				b.Fatal("short result")
			}
		}
	})
}

func BenchmarkIntersectBitset(b *testing.B) {
	// Dense overlap: two lists covering half of a 64k-document range — the
	// shape the span heuristic routes to the bitset kernel.
	r := rand.New(rand.NewSource(13))
	build := func() *postlist.PostingList {
		ids := make([]uint32, 0, 32_000)
		for id := uint32(0); id < 64_000; id++ {
			if r.Intn(2) == 0 {
				ids = append(ids, id)
			}
		}
		return postlist.New(ids)
	}
	pa, pb := build(), build()
	b.Run("bitset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := postlist.Intersect2Bitset(pa, pb); got.Len() == 0 {
				b.Fatal("empty intersection")
			}
		}
	})
	b.Run("skip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := postlist.Intersect2Skip(pa, pb); got.Len() == 0 {
				b.Fatal("empty intersection")
			}
		}
	})
}

// --- ANN leaf indexes: IVF candidate generation + compressed scoring ---
// The sub-linear leaf path the gate holds against BenchmarkLeafScan: the
// same 100k × 64 shard size, but drawn from the clustered generator the
// HDSearch corpus uses — IVF's pruning only exists when the data has
// structure, and iid noise has none.  Setup asserts the quality side of
// the trade before the timer starts (recall@10 against the exact engine
// scan, and the PQ compression ratio), so a fast-but-wrong index fails
// the benchmark rather than flattering it.

// annGateData builds the gate shard and query set once, shared across
// -count repetitions and both ANN benchmarks.
var annGateData struct {
	once    sync.Once
	store   *kernel.Store
	queries []vec.Vector
}

func annGateCorpus(b *testing.B) (*kernel.Store, []vec.Vector) {
	annGateData.once.Do(func() {
		const n, dim, clusters = 100_000, 64, 64
		corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
			N: n, Dim: dim, Clusters: clusters, Seed: 17,
		})
		s, err := kernel.BuildStore(corpus.Vectors)
		if err != nil {
			panic(err)
		}
		annGateData.store = s
		annGateData.queries = corpus.Queries(64, 18)
	})
	return annGateData.store, annGateData.queries
}

// annGateIndexes caches one built index plus its measured recall@10 per
// quantization, so five -count repetitions train k-means once.
var (
	annGateMu      sync.Mutex
	annGateIndexes = map[ann.Quant]*ann.Index{}
	annGateRecall  = map[ann.Quant]float64{}
)

func annGateIndex(b *testing.B, quant ann.Quant) (*ann.Index, float64) {
	store, queries := annGateCorpus(b)
	annGateMu.Lock()
	defer annGateMu.Unlock()
	if idx, ok := annGateIndexes[quant]; ok {
		return idx, annGateRecall[quant]
	}
	// NList matches the generator's cluster count so the coarse quantizer
	// recovers the corpus structure; nprobe stays at the build default (8),
	// so a search scans ~8/64 of the shard plus the re-rank depth.  PQM 16
	// (4-dim subspaces, 16 B/point = 16x compression) keeps ADC distortion
	// under the tight intra-cluster neighbor gaps at this corpus density.
	idx, err := ann.Build(store, ann.Config{
		NList: 256, Rerank: 400, Quant: quant, PQM: 16, Seed: 19,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := musuite.NewKernel(musuite.KernelConfig{})
	const k = 10
	hits, want := 0, 0
	var truth, got []knn.Neighbor
	for _, q := range queries {
		if truth, err = eng.Scan(store, q, k, truth[:0]); err != nil {
			b.Fatal(err)
		}
		if got, err = idx.Search(eng, q, k, 0, 0, got[:0]); err != nil {
			b.Fatal(err)
		}
		in := make(map[uint32]bool, len(got))
		for _, n := range got {
			in[n.ID] = true
		}
		for _, n := range truth {
			want++
			if in[n.ID] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(want)
	annGateIndexes[quant] = idx
	annGateRecall[quant] = recall
	return idx, recall
}

func benchmarkANNScan(b *testing.B, quant ann.Quant, recallFloor float64) {
	idx, recall := annGateIndex(b, quant)
	store, queries := annGateCorpus(b)
	if recall < recallFloor {
		b.Fatalf("recall@10 %.3f below the %.2f gate floor", recall, recallFloor)
	}
	if quant == ann.QuantPQ && idx.CompressedBytes()*4 > store.Bytes() {
		b.Fatalf("pq store %d B exceeds 1/4 of the %d B float32 store",
			idx.CompressedBytes(), store.Bytes())
	}
	eng := musuite.NewKernel(musuite.KernelConfig{})
	var dst []knn.Neighbor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = idx.Search(eng, queries[i%len(queries)], 10, 0, 0, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(dst) != 10 {
		b.Fatal("short result")
	}
	// ResetTimer deletes earlier user metrics, so quality reports go last.
	b.ReportMetric(recall, "recall@10")
	if quant == ann.QuantPQ {
		b.ReportMetric(float64(store.Bytes())/float64(idx.CompressedBytes()), "compression-x")
	}
}

// BenchmarkIVFScan is the headline sub-linear claim: plain IVF (exact
// float32 candidate scoring) must hold ≥0.95 recall@10 while scanning a
// fraction of the shard BenchmarkLeafScan walks in full.
func BenchmarkIVFScan(b *testing.B) { benchmarkANNScan(b, ann.QuantNone, 0.95) }

// BenchmarkPQScan adds the compressed candidate store: ADC lookup-table
// scoring over ≤1/4-size codes (asserted), exact float32 re-rank on top.
func BenchmarkPQScan(b *testing.B) { benchmarkANNScan(b, ann.QuantPQ, 0.85) }

// annGateHNSW caches the gate HNSW graph plus its measured recall@10 and
// distance evaluations per query, so -count repetitions build the graph once.
var annGateHNSWData struct {
	once   sync.Once
	idx    *ann.HNSW
	recall float64
	evals  float64
	err    error
}

func annGateHNSW(b *testing.B) (idx *ann.HNSW, recall, evalsPerQuery float64) {
	store, queries := annGateCorpus(b)
	annGateHNSWData.once.Do(func() {
		// The gate operating point: M 16 / efConstruction 200 (the
		// Malkov-Yashunin defaults) with efSearch pinned at 32 — on this
		// corpus the deterministic build lands recall@10 at 0.967, and the
		// ~32-wide beam over a degree-32 base layer scores a thousand-odd
		// of the 100k rows, a wide margin on the 25x work gate.
		idx, err := ann.BuildHNSW(store, ann.Config{Kind: ann.KindHNSW, EFSearch: 32, Seed: 19})
		if err != nil {
			annGateHNSWData.err = err
			return
		}
		eng := musuite.NewKernel(musuite.KernelConfig{})
		const k = 10
		hits, want := 0, 0
		var truth, got []knn.Neighbor
		for _, q := range queries {
			if truth, err = eng.Scan(store, q, k, truth[:0]); err != nil {
				annGateHNSWData.err = err
				return
			}
			if got, err = idx.Search(eng, q, k, 0, 0, got[:0]); err != nil {
				annGateHNSWData.err = err
				return
			}
			in := make(map[uint32]bool, len(got))
			for _, n := range got {
				in[n.ID] = true
			}
			for _, n := range truth {
				want++
				if in[n.ID] {
					hits++
				}
			}
		}
		annGateHNSWData.idx = idx
		annGateHNSWData.recall = float64(hits) / float64(want)
		// The recall pass is every Search the graph has served so far.
		annGateHNSWData.evals = float64(idx.DistanceEvals()) / float64(len(queries))
	})
	if annGateHNSWData.err != nil {
		b.Fatal(annGateHNSWData.err)
	}
	return annGateHNSWData.idx, annGateHNSWData.recall, annGateHNSWData.evals
}

// gatePassLatency times fn once over the gate query set and reports the
// mean per-query latency of that single pass.  The HNSW gate assertions
// compare *ratios* of passes measured back to back: a shared CI core
// suffers steal and contention that inflate absolute latencies by large
// factors, but contention over adjacent windows inflates both sides of a
// ratio together, so the per-pass speedup stays close to the machine's
// real one.  The gate then takes the best ratio across several passes —
// the speedup is a property of the index, and one clean (or uniformly
// loaded) window demonstrates it.
func gatePassLatency(queries []vec.Vector, fn func(q vec.Vector) error) (time.Duration, error) {
	start := time.Now()
	for _, q := range queries {
		if err := fn(q); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(len(queries)), nil
}

// BenchmarkHNSWScan is the graph-index gate: on the clustered 100k×64
// corpus the traversal must hold recall@10 ≥ 0.95 on ≥25× fewer distance
// evaluations than the brute-force full scan's n, at a per-query latency
// under the committed IVF gate point's — all asserted here in setup, so a
// fast-but-wrong (or accurate-but-slow) graph fails the benchmark rather than
// flattering it.  The timed loop then feeds the bench gate's regression
// comparison.
//
// The 25× was a latency ratio against the full scan until PR 24.  That ratio
// measures two things, and the one that moved was not the graph: the scan
// streams rows and PRs 21 and 23 brought it near memory bandwidth (7.7 ns a
// row here), the traversal chases pointers and stays at a cache miss a hop,
// so 41× (BENCH_baseline.json, spread 29–55) became 21–23× with the graph
// unchanged, and the gate failed on a faster tree.  Distance evaluations per
// query (ann.HNSW.DistanceEvals) are what the graph decides and nothing else
// does: a pure function of the graph and the queries, with no run-to-run
// spread and no host speed in it, so the bound needs no noise margin.  This
// operating point evaluates ~750 a query, 134× under n; the bound stays 25×
// — the number the gate always named, now in the unit that is the index's
// own — which a beam some five times wider, or a graph whose hops stopped
// converging, would trip.  The latency ratio is still reported (speedup-x)
// and gated by nothing.
func BenchmarkHNSWScan(b *testing.B) {
	idx, recall, evals := annGateHNSW(b)
	store, queries := annGateCorpus(b)
	if recall < 0.95 {
		b.Fatalf("recall@10 %.3f below the 0.95 gate floor", recall)
	}
	workX := float64(store.Len()) / evals
	if workX < 25 {
		b.Fatalf("hnsw evaluates %.0f distances a query, only %.1fx fewer than the full scan's %d (gate: ≥25x)",
			evals, workX, store.Len())
	}
	eng := musuite.NewKernel(musuite.KernelConfig{})
	ivf, _ := annGateIndex(b, ann.QuantNone)
	var dst []knn.Neighbor
	scanFn := func(q vec.Vector) error {
		var err error
		dst, err = eng.Scan(store, q, 10, dst[:0])
		return err
	}
	hnswFn := func(q vec.Vector) error {
		var err error
		dst, err = idx.Search(eng, q, 10, 0, 0, dst[:0])
		return err
	}
	ivfFn := func(q vec.Vector) error {
		var err error
		dst, err = ivf.Search(eng, q, 10, 0, 0, dst[:0])
		return err
	}
	const passes = 5
	var scanX, ivfX float64 // best per-pass scan/hnsw and ivf/hnsw ratios
	for p := 0; p < passes; p++ {
		scan, err := gatePassLatency(queries, scanFn)
		if err != nil {
			b.Fatal(err)
		}
		hnsw, err := gatePassLatency(queries, hnswFn)
		if err != nil {
			b.Fatal(err)
		}
		ivfL, err := gatePassLatency(queries, ivfFn)
		if err != nil {
			b.Fatal(err)
		}
		scanX = max(scanX, float64(scan)/float64(hnsw))
		ivfX = max(ivfX, float64(ivfL)/float64(hnsw))
	}
	if ivfX < 1 {
		b.Fatalf("hnsw is %.2fx the committed IVF gate point's speed (gate: faster)", ivfX)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = idx.Search(eng, queries[i%len(queries)], 10, 0, 0, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(dst) != 10 {
		b.Fatal("short result")
	}
	// ResetTimer deletes earlier user metrics, so quality reports go last.
	b.ReportMetric(recall, "recall@10")
	b.ReportMetric(workX, "fewer-evals-x")
	b.ReportMetric(scanX, "speedup-x")
}

// BenchmarkHNSWBuild reports parallel graph-construction throughput on the
// gate corpus (one full 100k-row build per iteration).  Not gated — build
// time is an offline cost — but nightly output makes regressions visible.
func BenchmarkHNSWBuild(b *testing.B) {
	store, _ := annGateCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ann.BuildHNSW(store, ann.Config{Kind: ann.KindHNSW, Seed: 19}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(store.Len())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// --- Overload: goodput under saturation with admission control ---
// One Router deployment with the adaptive admission controller armed is
// probed open-loop for its knee, then each iteration measures one window at
// 2x that knee.  goodput-qps gates higher-is-better (the controller must
// keep completing work under overload) and shed-rate lower-is-better (the
// fraction refused at fixed relative overload is a capacity ratio, stable
// across machines because the knee is measured in the same run).  Any
// untyped failure — an error that is not an rpc.OverloadError shed, or a
// request dropped without a reply — fails the benchmark outright.

func BenchmarkOverloadGoodput(b *testing.B) {
	inst := startInstance(b, "Router", musuite.FrameworkMode{
		MidTier: core.Options{Admit: core.AdmitPolicy{MaxInflight: 128}},
	})
	const window = 250 * time.Millisecond
	knee := 0.0
	for q, i := 1000.0, 0; i < 12; q, i = 2*q, i+1 {
		res := loadgen.RunOpenLoop(inst.Issue, loadgen.OpenLoopConfig{
			QPS: q, Duration: window, Seed: 900 + int64(i),
		})
		if res.AchievedQPS > knee {
			knee = res.AchievedQPS
		}
		if res.AchievedQPS < 0.9*q {
			break
		}
	}
	if knee <= 0 {
		b.Fatal("knee probe found zero throughput")
	}
	var goodput float64
	var offered, shed, failed uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := loadgen.RunOpenLoop(inst.Issue, loadgen.OpenLoopConfig{
			QPS: 2 * knee, Duration: window, Seed: 1000 + int64(i),
		})
		goodput += res.AchievedQPS
		offered += res.Offered
		shed += res.Shed
		failed += res.Errors + res.Dropped
	}
	b.StopTimer()
	if failed > 0 {
		b.Fatalf("%d requests failed untyped under overload (want typed sheds only)", failed)
	}
	b.ReportMetric(goodput/float64(b.N), "goodput-qps")
	b.ReportMetric(float64(shed)/float64(offered), "shed-rate")
}
