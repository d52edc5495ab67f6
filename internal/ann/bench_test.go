package ann

import (
	"testing"
	"time"

	"musuite/internal/dataset"
	"musuite/internal/kernel"
)

// Leaf-index microbenchmarks on one 100k × 64 shard drawn from the clustered
// generator HDSearch's corpus comes from — IVF's pruning only exists when the
// data has structure, and iid noise has none.  Setup asserts the quality side
// of each trade before the timer starts (recall@10 against the exact engine
// scan, the PQ footprint, the HNSW work bound), so a fast index that stopped
// finding neighbours fails its benchmark rather than flattering it.  Nothing
// gates on the timings:
// `go test -run '^$' -bench 'IVFScan|PQScan|HNSW' ./internal/ann`.

// benchShard is built once per process and shared by every benchmark and
// -count repetition, as is each index built over it.  Benchmarks run one at a
// time, so it needs no lock.
var benchShard struct {
	store   *kernel.Store
	queries [][]float32
	built   map[Config]*benchIndex
}

// benchIndex is one index over the shard with what its build measured:
// recall@10 over the query set and, for HNSW, distance evaluations a query
// during that pass (every search the graph had served by then).
type benchIndex struct {
	Searcher
	recall, evals float64
}

func benchCorpus() (*kernel.Store, [][]float32) {
	if benchShard.store == nil {
		corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
			N: 100_000, Dim: 64, Clusters: 64, Seed: 17,
		})
		s, err := kernel.BuildStore(corpus.Vectors)
		if err != nil {
			panic(err)
		}
		benchShard.store, benchShard.queries = s, corpus.Queries(64, 18)
		benchShard.built = map[Config]*benchIndex{}
	}
	return benchShard.store, benchShard.queries
}

func benchBuild(b *testing.B, cfg Config) *benchIndex {
	store, queries := benchCorpus()
	if x, ok := benchShard.built[cfg]; ok {
		return x
	}
	idx, err := BuildKind(store, cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng := kernel.Default()
	const k = 10
	hits := 0
	var truth, got []kernel.Neighbor
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
			if in[n.ID] {
				hits++
			}
		}
	}
	x := &benchIndex{Searcher: idx, recall: float64(hits) / float64(k*len(queries))}
	if h, ok := idx.(*HNSW); ok {
		x.evals = float64(h.DistanceEvals()) / float64(len(queries))
	}
	benchShard.built[cfg] = x
	return x
}

// ivfBenchConfig is the IVF operating point.  NList matches the generator's
// cluster count so the coarse quantizer recovers the corpus structure;
// nprobe stays at the build default (8), so a search scans ~8/64 of the
// shard plus the re-rank depth.  PQM 16 (4-dim subspaces, 16 B a point, 16×
// compression) keeps ADC distortion under the tight intra-cluster neighbour
// gaps at this corpus density.
func ivfBenchConfig(quant Quant) Config {
	return Config{NList: 256, Rerank: 400, Quant: quant, PQM: 16, Seed: 19}
}

// hnswBenchConfig is the graph operating point: M 16 / efConstruction 200
// (the Malkov–Yashunin defaults) with efSearch pinned at 32.
var hnswBenchConfig = Config{Kind: KindHNSW, EFSearch: 32, Seed: 19}

// benchSearch times x over the query set, then reports its recall
// (ResetTimer drops metrics reported before it).
func benchSearch(b *testing.B, x *benchIndex) {
	_, queries := benchCorpus()
	eng := kernel.Default()
	var dst []kernel.Neighbor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = x.Search(eng, queries[i%len(queries)], 10, 0, 0, dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(dst) != 10 {
		b.Fatal("short result")
	}
	b.ReportMetric(x.recall, "recall@10")
}

func benchmarkIVFScan(b *testing.B, quant Quant, recallFloor float64) {
	store, _ := benchCorpus()
	x := benchBuild(b, ivfBenchConfig(quant))
	if x.recall < recallFloor {
		b.Fatalf("recall@10 %.3f below the %.2f floor", x.recall, recallFloor)
	}
	if quant == QuantPQ && x.CompressedBytes()*4 > store.Bytes() {
		b.Fatalf("pq store %d B exceeds 1/4 of the %d B float32 store", x.CompressedBytes(), store.Bytes())
	}
	benchSearch(b, x)
	if quant == QuantPQ {
		b.ReportMetric(float64(store.Bytes())/float64(x.CompressedBytes()), "compression-x")
	}
}

// BenchmarkIVFScan: plain IVF (exact float32 candidate scoring) holds ≥ 0.95
// recall@10 while scanning a fraction of the shard a full scan walks.
func BenchmarkIVFScan(b *testing.B) { benchmarkIVFScan(b, QuantNone, 0.95) }

// BenchmarkPQScan adds the compressed candidate store: ADC lookup-table
// scoring over ≤ 1/4-size codes, exact float32 re-rank on top.
func BenchmarkPQScan(b *testing.B) { benchmarkIVFScan(b, QuantPQ, 0.85) }

// BenchmarkHNSWScan asserts in setup that the graph holds recall@10 ≥ 0.95
// on ≥ 25× fewer distance evaluations than the full scan's n, and answers
// faster than the IVF operating point.
//
// The 25× is in evaluations, not latency: a latency ratio against the full
// scan measures the scan kernel as much as the graph (the scan streams rows
// near memory bandwidth, the traversal takes a cache miss a hop), and it fell
// from 41× to 21–23× on an unchanged graph when the scan got faster.
// Evaluations a query are a pure function of the graph and the queries, so
// the bound needs no noise margin; this point evaluates ~750, 134× under n.
// The latency ratios are taken as the best of five back-to-back passes, since
// contention over adjacent windows inflates both sides of a ratio together;
// speedup-x reports the one against the full scan and gates nothing.
func BenchmarkHNSWScan(b *testing.B) {
	store, queries := benchCorpus()
	x := benchBuild(b, hnswBenchConfig)
	if x.recall < 0.95 {
		b.Fatalf("recall@10 %.3f below the 0.95 floor", x.recall)
	}
	workX := float64(store.Len()) / x.evals
	if workX < 25 {
		b.Fatalf("hnsw evaluates %.0f distances a query, only %.1fx fewer than the full scan's %d (want ≥ 25x)",
			x.evals, workX, store.Len())
	}
	ivf := benchBuild(b, ivfBenchConfig(QuantNone))
	eng := kernel.Default()
	var dst []kernel.Neighbor
	// pass returns the mean latency a query of one pass over the query set.
	pass := func(search func(q []float32) ([]kernel.Neighbor, error)) time.Duration {
		start := time.Now()
		for _, q := range queries {
			var err error
			if dst, err = search(q); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start) / time.Duration(len(queries))
	}
	scanSearch := func(q []float32) ([]kernel.Neighbor, error) { return eng.Scan(store, q, 10, dst[:0]) }
	hnswSearch := func(q []float32) ([]kernel.Neighbor, error) { return x.Search(eng, q, 10, 0, 0, dst[:0]) }
	ivfSearch := func(q []float32) ([]kernel.Neighbor, error) { return ivf.Search(eng, q, 10, 0, 0, dst[:0]) }
	var scanX, ivfX float64 // best per-pass scan/hnsw and ivf/hnsw ratios
	for p := 0; p < 5; p++ {
		scan, hnsw, ivfL := pass(scanSearch), pass(hnswSearch), pass(ivfSearch)
		scanX = max(scanX, float64(scan)/float64(hnsw))
		ivfX = max(ivfX, float64(ivfL)/float64(hnsw))
	}
	if ivfX < 1 {
		b.Fatalf("hnsw is %.2fx the IVF operating point's speed (want faster)", ivfX)
	}
	benchSearch(b, x)
	b.ReportMetric(workX, "fewer-evals-x")
	b.ReportMetric(scanX, "speedup-x")
}

// BenchmarkHNSWBuild reports parallel graph-construction throughput on the
// shard, one full build an iteration.  Build time is an offline cost; the
// nightly ann-recall job prints it.
func BenchmarkHNSWBuild(b *testing.B) {
	store, _ := benchCorpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildHNSW(store, Config{Kind: KindHNSW, Seed: 19}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(store.Len())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
