package hdsearch

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/kernel"
	"musuite/internal/knn"
	"musuite/internal/telemetry"
	"musuite/internal/vec"
)

// The row order of a leaf store (DESIGN §5.5 "Row order") is a layout, not a
// behaviour: these tests pin that it is a permutation of the round-robin
// membership, the same permutation in every process, that it has the
// locality it exists for, and that no answer depends on it.

// identityShards is the layout ShardCorpus replaced, built by hand: shard s
// holds c.Shard(n)[s] in ascending global order.  Test reference only.
func identityShards(t testing.TB, c *dataset.ImageCorpus, n int) []LeafData {
	t.Helper()
	out := make([]LeafData, n)
	for s, ids := range c.Shard(n) {
		vecs := make([]vec.Vector, len(ids))
		out[s].GlobalID = make([]uint32, len(ids))
		for local, g := range ids {
			vecs[local] = c.Vectors[g]
			out[s].GlobalID[local] = uint32(g)
		}
		st, err := kernel.BuildStore(vecs)
		if err != nil {
			t.Fatal(err)
		}
		out[s].Store = st
	}
	return out
}

// layoutCorpus is large enough for a shard to span hundreds of 4 KB pages,
// which the locality property is about; testCorpus's shards are ten.
func layoutCorpus() *dataset.ImageCorpus {
	return dataset.NewImageCorpus(dataset.ImageCorpusConfig{N: 20000, Dim: 64, Clusters: 10, Seed: 23})
}

func TestShardCorpusIsAPermutation(t *testing.T) {
	corpus := testCorpus(t)
	for _, n := range []int{1, 3, 4} {
		members := corpus.Shard(n)
		for s, sh := range ShardCorpus(corpus, n) {
			if sh.Store.Len() != len(sh.GlobalID) {
				t.Fatalf("%d shards: shard %d has %d rows, %d global IDs", n, s, sh.Store.Len(), len(sh.GlobalID))
			}
			got := make([]int, len(sh.GlobalID))
			for local, g := range sh.GlobalID {
				got[local] = int(g)
				// Bit for bit: the store copies, it does not compute.
				row, want := sh.Store.Row(local), corpus.Vectors[g]
				for d := range want {
					if math.Float32bits(row[d]) != math.Float32bits(want[d]) {
						t.Fatalf("%d shards: shard %d row %d is not corpus vector %d at dim %d", n, s, local, g, d)
					}
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, members[s]) {
				t.Fatalf("%d shards: shard %d does not hold exactly c.Shard's IDs, each once", n, s)
			}
		}
	}
}

func sameShards(a, b []LeafData) error {
	for s := range a {
		if !slices.Equal(a[s].GlobalID, b[s].GlobalID) {
			return fmt.Errorf("shard %d: GlobalID differs", s)
		}
		for i := 0; i < a[s].Store.Len(); i++ {
			ra, rb := a[s].Store.Row(i), b[s].Store.Row(i)
			for d := range ra {
				if math.Float32bits(ra[d]) != math.Float32bits(rb[d]) {
					return fmt.Errorf("shard %d row %d: store bytes differ", s, i)
				}
			}
			if math.Float32bits(a[s].Store.Norm2(i)) != math.Float32bits(b[s].Store.Norm2(i)) {
				return fmt.Errorf("shard %d row %d: norm differs", s, i)
			}
		}
	}
	return nil
}

func TestShardCorpusDeterministic(t *testing.T) {
	// Above kernel's parallel threshold, so the split of the range is real.
	corpus := layoutCorpus()
	first := ShardCorpus(corpus, 4)
	if err := sameShards(first, ShardCorpus(corpus, 4)); err != nil {
		t.Fatalf("second call: %v", err)
	}
	prev := runtime.GOMAXPROCS(1)
	serial := ShardCorpus(corpus, 4)
	runtime.GOMAXPROCS(prev)
	if err := sameShards(first, serial); err != nil {
		t.Fatalf("GOMAXPROCS=1: %v", err)
	}
}

// listShape reports a candidate list's runs of consecutive IDs and the
// distinct 4 KB pages its rows occupy in a store of the given dimension.
func listShape(ids []uint32, dim int) (runs, pages int) {
	lastPage := -1
	for i, id := range ids {
		if i == 0 || id != ids[i-1]+1 {
			runs++
		}
		for _, p := range []int{int(id) * dim * 4 >> 12, (int(id)*dim*4 + dim*4 - 1) >> 12} {
			if p != lastPage {
				pages++
				lastPage = p
			}
		}
	}
	return runs, pages
}

// shapeOf sums listShape over the LSH candidate lists of the queries.
func shapeOf(t testing.TB, shards []LeafData, queries []vec.Vector) (rows, runs, pages int) {
	t.Helper()
	index, err := BuildIndex(shards, IndexConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var sets []kernel.RowSet
	var ids []uint32
	for _, q := range queries {
		sets = index.LookupInto(q, sets)
		for _, set := range sets {
			ids = set.AppendIDs(ids[:0])
			r, p := listShape(ids, index.Dim())
			rows, runs, pages = rows+len(ids), runs+r, pages+p
		}
	}
	return rows, runs, pages
}

// TestShardCorpusLocality pins the property the order exists for, not the
// constant behind it: on a clustered corpus the candidates LSH names arrive
// as runs, on a third of the pages the round-robin order spreads them over.
func TestShardCorpusLocality(t *testing.T) {
	corpus := layoutCorpus()
	queries := corpus.Queries(100, 3)
	rows, runs, pages := shapeOf(t, ShardCorpus(corpus, 4), queries)
	idRows, idRuns, idPages := shapeOf(t, identityShards(t, corpus, 4), queries)
	if rows != idRows {
		t.Fatalf("the order changed the candidates: %d rows against %d", rows, idRows)
	}
	t.Logf("%d candidates: %.1f rows a run on %d pages; identity order %.1f rows a run on %d pages",
		rows, float64(rows)/float64(runs), pages, float64(idRows)/float64(idRuns), idPages)
	if float64(rows) < 3*float64(runs) {
		t.Fatalf("candidate lists average %.2f rows a run, want ≥ 3", float64(rows)/float64(runs))
	}
	if 3*pages > idPages {
		t.Fatalf("candidate lists touch %d pages, identity order %d: want ≤ ⅓", pages, idPages)
	}
}

// TestShardCorpusLayoutChangesNoAnswer serves the same queries from a cluster
// over ShardCorpus's stores and from one over identity-order stores, under
// each mid-tier index kind: same neighbour IDs, bit-equal distances.
func TestShardCorpusLayoutChangesNoAnswer(t *testing.T) {
	corpus := testCorpus(t)
	queries := corpus.Queries(200, 29)
	start := func(t *testing.T, kind IndexKind, shards []LeafData) *Client {
		a := Prepare(ClusterConfig{Corpus: corpus, Shards: 4, Kind: kind, Index: IndexConfig{Seed: 9}})
		if shards != nil {
			a.shards = shards
		}
		tiers, err := core.StartTiers(4, 1, &core.LeafOptions{Workers: 2}, a.Leaf,
			func() (*core.MidTier, error) { return a.MidTier(&core.Options{Workers: 2, ResponseThreads: 2}) })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tiers.Close)
		client, err := DialClient(tiers.Addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		return client
	}
	for _, kind := range []IndexKind{IndexLSH, IndexKDTree, IndexKMeans} {
		t.Run(string(kind), func(t *testing.T) {
			ordered, identity := start(t, kind, nil), start(t, kind, identityShards(t, corpus, 4))
			for qi, q := range queries {
				got, err := ordered.Search(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				want, err := identity.Search(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 || len(got) != len(want) {
					t.Fatalf("query %d: %d neighbours against %d", qi, len(got), len(want))
				}
				for i := range want {
					if got[i].PointID != want[i].PointID || math.Float32bits(got[i].Distance) != math.Float32bits(want[i].Distance) {
						t.Fatalf("query %d rank %d: %+v, identity order %+v", qi, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// --- the located microbenchmark's fourth shape ---

// orderedBench is hdsearch_lsh's leaf side as the service builds it: the
// benchmark's corpus shape (100 000 × 64 in 10 clusters on 4 shards), the
// stores at a given signature width, and the real per-shard candidates of 512
// queries, as the sets the index names and as the ID lists they expand to.
type orderedBench struct {
	bits           int
	stores         []*kernel.Store
	planes         []*kernel.SplitStore
	queries        []vec.Vector
	sets           [][]kernel.RowSet // [query][shard]
	lists          [][][]uint32      // [query][shard]
	rows, runs, pg int
}

var (
	orderedCorpus = sync.OnceValue(func() *dataset.ImageCorpus {
		return dataset.NewImageCorpus(dataset.ImageCorpusConfig{N: 100000, Dim: 64, Clusters: 10, Seed: 20180930})
	})
	// orderedLast is the fixture of the width benchmarked last: the testing
	// package calls a benchmark several times as it sizes b.N.
	orderedLast *orderedBench
)

func orderedFixture(b *testing.B, bits int) *orderedBench {
	if orderedLast != nil && orderedLast.bits == bits {
		return orderedLast
	}
	corpus := orderedCorpus()
	f := &orderedBench{bits: bits, queries: corpus.Queries(512, 1)}
	shards := shardCorpus(corpus, 4, bits)
	index, err := BuildIndex(shards, IndexConfig{Seed: 20180930})
	if err != nil {
		b.Fatal(err)
	}
	for _, sh := range shards {
		f.stores, f.planes = append(f.stores, sh.Store), append(f.planes, kernel.Split(sh.Store))
	}
	for _, q := range f.queries {
		sets := index.LookupInto(q, nil)
		lists := make([][]uint32, len(sets))
		for s, set := range sets {
			lists[s] = set.AppendIDs(nil)
			r, p := listShape(lists[s], 64)
			f.rows, f.runs, f.pg = f.rows+len(lists[s]), f.runs+r, f.pg+p
		}
		f.sets, f.lists = append(f.sets, sets), append(f.lists, lists)
	}
	orderedLast = f
	return f
}

// BenchmarkScanSubsetGather is the fourth shape of internal/kernel's
// benchmark of the same name (`-bench ScanSubsetGather ./internal/kernel
// ./internal/services/hdsearch` prints all four): "ordered" is ScanSubset
// over the stores ShardCorpus lays out and the candidates BuildIndex names
// over them, as ID lists, in ns per point, with the lists' rows per run and
// 4 KB pages per list; "ordered-rowset" is ScanRowSet over the same candidates
// as the sets they arrive in, and "ordered-split" ScanRowSetSplit over them
// and the stores' planes — what the leaf executes — with the rows a scan (one
// shard) read exactly.  "sweep" is "ordered"
// at other signature widths; with BenchmarkShardCorpus's cost of each it chose
// localityBits (table in DESIGN §5.5 "Row order"; b=0 is the identity order).
// One op is one request: all four shards, k = 5 as the workload asks (the
// fp32 shapes do not care; the filter's re-reads grow with k).
func BenchmarkScanSubsetGather(b *testing.B) {
	const list, rowset, split = 0, 1, 2
	run := func(bits, form int) func(b *testing.B) {
		return func(b *testing.B) {
			f := orderedFixture(b, bits)
			tab := telemetry.NewTable(nil)
			eng := kernel.New(kernel.Config{Parallelism: 1}).WithCounters(tab)
			var dst []knn.Neighbor
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set := i % len(f.lists)
				for s, st := range f.stores {
					switch form {
					case list:
						dst, _ = eng.ScanSubset(st, f.queries[set], f.lists[set][s], 5, dst[:0])
					case rowset:
						dst, _ = eng.ScanRowSet(st, f.queries[set], f.sets[set][s], 5, dst[:0])
					case split:
						dst, _ = eng.ScanRowSetSplit(f.planes[s], f.queries[set], f.sets[set][s], 5, dst[:0])
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tab.Load(telemetry.KernelPoints)), "ns/point")
			b.ReportMetric(float64(f.rows)/float64(f.runs), "rows/run")
			b.ReportMetric(float64(f.pg)/float64(4*len(f.lists)), "pages/list")
			if form == split {
				b.ReportMetric(float64(tab.Load(telemetry.KernelRefined))/float64(tab.Load(telemetry.KernelScans)), "re-reads/scan")
			}
		}
	}
	b.Run("ordered", run(localityBits, list))
	b.Run("ordered-rowset", run(localityBits, rowset))
	b.Run("ordered-split", run(localityBits, split))
	for _, bits := range sweepBits {
		b.Run(fmt.Sprintf("sweep/b=%d", bits), run(bits, list))
	}
}

var sweepBits = []int{0, 8, 12, 16, 20, 24}

// BenchmarkShardCorpus is what sharding the benchmark's corpus costs at each
// signature width; against b=0 (every signature equal, the sort a pass over
// ascending words) it is the milliseconds the ordering adds to set-up.
func BenchmarkShardCorpus(b *testing.B) {
	corpus := orderedCorpus()
	for _, bits := range sweepBits {
		b.Run(fmt.Sprintf("b=%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				shardCorpus(corpus, 4, bits)
			}
		})
	}
}
