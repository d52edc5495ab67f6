package ann

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"musuite/internal/kernel"
	"musuite/internal/knn"
	"musuite/internal/vec"
)

// hnswRecall builds the default graph over store and returns recall@10 of the
// default efSearch against the engine's brute-force scan of the same store.
func hnswRecall(t *testing.T, store *kernel.Store, queries []vec.Vector) float64 {
	t.Helper()
	h, err := BuildHNSW(store, Config{Kind: KindHNSW, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	eng := kernel.Default()
	const k = 10
	hits, total := 0, 0
	for _, q := range queries {
		got, err := h.Search(eng, q, k, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Scan(store, q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		truth := make(map[uint32]bool, k)
		for _, n := range want {
			truth[n.ID] = true
		}
		for _, n := range got {
			if truth[n.ID] {
				hits++
			}
		}
		total += k
	}
	return float64(hits) / float64(total)
}

// TestHNSWRecall: the graph traversal at the default efSearch must land well
// above the gate floor on a clustered corpus — the whole point of the index.
func TestHNSWRecall(t *testing.T) {
	corpus, store := clusteredStore(t, 8000, 32, 16, 51)
	if recall := hnswRecall(t, store, corpus.Queries(50, 52)); recall < 0.95 {
		t.Fatalf("hnsw recall@10 = %.3f, want >= 0.95", recall)
	}
}

// TestHNSWRecallInvariantToRowOrder: graph quality may not depend on how the
// store's owner laid out its rows.  The same vectors in generation order,
// shuffled, and sorted cluster after cluster — what an HDSearch shard in
// locality order looks like, and the order that left the base layer
// disconnected when nodes were inserted 0…n−1 — reach the same recall.
//
// IVF and PQ needed nothing: they train on a strided sample of the rows with
// seeded k-means++, which a row order does not starve of any cluster, and
// their tests pass unchanged over locality-ordered shards.
func TestHNSWRecallInvariantToRowOrder(t *testing.T) {
	corpus, _ := clusteredStore(t, 8000, 32, 16, 51)
	queries := corpus.Queries(50, 52)
	generation := make([]uint32, len(corpus.Vectors))
	for i := range generation {
		generation[i] = uint32(i)
	}
	shuffled := slices.Clone(generation)
	rand.New(rand.NewSource(54)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	byCluster := slices.Clone(generation)
	slices.SortStableFunc(byCluster, func(a, b uint32) int { return corpus.ClusterOf[a] - corpus.ClusterOf[b] })
	lo, hi := 1.0, 0.0
	for name, order := range map[string][]uint32{"generation": generation, "shuffled": shuffled, "by cluster": byCluster} {
		store, err := kernel.BuildStoreOrdered(corpus.Vectors, order)
		if err != nil {
			t.Fatal(err)
		}
		recall := hnswRecall(t, store, queries)
		t.Logf("%s order: recall@10 = %.3f", name, recall)
		if recall < 0.95 {
			t.Errorf("%s order: recall@10 = %.3f, want >= 0.95", name, recall)
		}
		lo, hi = min(lo, recall), max(hi, recall)
	}
	if hi-lo > 0.01 {
		t.Errorf("recall@10 ranges %.3f–%.3f across row orders, want within 0.01", lo, hi)
	}
}

// TestHNSWDeterministicBuild: two parallel builds of the same spec must be
// structurally identical — the round-synchronized scheme's core promise.
// A different seed must produce a different graph (the RNG is live).
func TestHNSWDeterministicBuild(t *testing.T) {
	_, store := clusteredStore(t, 6000, 24, 12, 53)
	cfg := Config{Kind: KindHNSW, M: 12, EFConstruction: 80, Seed: 9}
	a, err := BuildHNSW(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildHNSW(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("two builds of the same spec produced different graphs")
	}
	cfg.Seed = 10
	c, err := BuildHNSW(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seeds produced identical graphs — level RNG not live")
	}
}

// TestHNSWSearchEdgeCases mirrors the IVF edge-case battery: empty index,
// k <= 0, dimension mismatch, k > n, tiny corpora.
func TestHNSWSearchEdgeCases(t *testing.T) {
	eng := kernel.Default()

	empty, err := kernel.BuildStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := BuildHNSW(empty, Config{Kind: KindHNSW})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := h.Search(eng, []float32{1, 2}, 5, 0, 0, nil); err != nil || len(got) != 0 {
		t.Fatalf("empty index: got %v, %v", got, err)
	}

	_, store := clusteredStore(t, 200, 16, 4, 55)
	h, err = BuildHNSW(store, Config{Kind: KindHNSW, M: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := h.Search(eng, make([]float32, 16), 0, 0, 0, nil); err != nil || len(got) != 0 {
		t.Fatalf("k=0: got %v, %v", got, err)
	}
	if _, err := h.Search(eng, make([]float32, 7), 3, 0, 0, nil); err != vec.ErrDimensionMismatch {
		t.Fatalf("dim mismatch: want ErrDimensionMismatch, got %v", err)
	}
	// k > n with an exhaustive beam must return every row.
	got, err := h.Search(eng, make([]float32, 16), 500, store.Len(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != store.Len() {
		t.Fatalf("k > n: got %d results, want %d", len(got), store.Len())
	}

	for _, n := range []int{1, 2, 3, 5} {
		rows := make([]vec.Vector, n)
		for i := range rows {
			rows[i] = vec.Vector{float32(i), float32(i * i)}
		}
		tiny, err := kernel.BuildStore(rows)
		if err != nil {
			t.Fatal(err)
		}
		h, err := BuildHNSW(tiny, Config{Kind: KindHNSW, M: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Search(eng, vec.Vector{0, 0}, n, n, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: got %d results", n, len(got))
		}
		if got[0].ID != 0 {
			t.Fatalf("n=%d: nearest to origin should be row 0, got %d", n, got[0].ID)
		}
	}
}

// TestHNSWExhaustiveBeamMatchesBruteForce is the testing/quick property the
// issue asks for: with efSearch = N over a single-layer graph (M large
// enough that the base layer stays connected at these sizes), beam search
// visits every reachable node and must match brute-force top-k exactly.
func TestHNSWExhaustiveBeamMatchesBruteForce(t *testing.T) {
	eng := kernel.Default()
	prop := func(seed int64, nRaw, dimRaw uint8) bool {
		n := 20 + int(nRaw)%180
		dim := 4 + int(dimRaw)%12
		rng := rand.New(rand.NewSource(seed))
		rows := make([]vec.Vector, n)
		for i := range rows {
			v := make(vec.Vector, dim)
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			rows[i] = v
		}
		store, err := kernel.BuildStore(rows)
		if err != nil {
			return false
		}
		// M >= n collapses the level RNG's tower benefit and makes layer 0
		// near-complete, so ef = n is genuinely exhaustive.
		h, err := BuildHNSW(store, Config{Kind: KindHNSW, M: 16, EFConstruction: n, Seed: seed})
		if err != nil {
			return false
		}
		q := make([]float32, dim)
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		got, err := h.Search(eng, q, 5, n, 0, nil)
		if err != nil {
			return false
		}
		want, err := eng.Scan(store, q, 5, nil)
		if err != nil {
			return false
		}
		return sameNeighbors(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestHNSWDistanceEvals: the counter the graph gate bounds starts at zero (a
// build searches, but is not a Search), repeats exactly for repeated queries,
// grows with the beam, and at the default beam is a small fraction of the
// rows a full scan evaluates.
func TestHNSWDistanceEvals(t *testing.T) {
	corpus, store := clusteredStore(t, 8000, 32, 16, 51)
	h, err := BuildHNSW(store, Config{Kind: KindHNSW, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if n := h.DistanceEvals(); n != 0 {
		t.Fatalf("%d evaluations before any Search", n)
	}
	queries := corpus.Queries(20, 52)
	pass := func(ef int) uint64 {
		before := h.DistanceEvals()
		for _, q := range queries {
			if _, err := h.Search(kernel.Default(), q, 10, ef, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		return h.DistanceEvals() - before
	}
	narrow, again, wide := pass(0), pass(0), pass(400)
	if narrow != again {
		t.Fatalf("the same queries cost %d evaluations, then %d", narrow, again)
	}
	if wide <= narrow {
		t.Fatalf("ef 400 cost %d evaluations, the default beam %d", wide, narrow)
	}
	if perQuery := narrow / uint64(len(queries)); perQuery < 10 || perQuery > uint64(store.Len())/4 {
		t.Fatalf("%d evaluations a query over %d rows", perQuery, store.Len())
	}
}

// TestHNSWConcurrentSearch: searches after Build are read-only — many
// goroutines sharing one index must agree with a serial reference.  Run
// under -race in the nightly battery.
func TestHNSWConcurrentSearch(t *testing.T) {
	corpus, store := clusteredStore(t, 4000, 24, 8, 57)
	h, err := BuildHNSW(store, Config{Kind: KindHNSW, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng := kernel.Default()
	queries := corpus.Queries(32, 58)
	want := make([][]knn.Neighbor, len(queries))
	for i, q := range queries {
		if want[i], err = h.Search(eng, q, 10, 0, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				got, err := h.Search(eng, q, 10, 0, 0, nil)
				if err != nil {
					errs <- err
					return
				}
				if !sameNeighbors(got, want[i]) {
					t.Errorf("concurrent search diverged on query %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBuildKindDispatch: the Searcher factory must route kinds to their
// builders and reject unknown kinds.
func TestBuildKindDispatch(t *testing.T) {
	_, store := clusteredStore(t, 500, 16, 4, 59)
	s, err := BuildKind(store, Config{Kind: KindIVF, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Index); !ok {
		t.Fatalf("KindIVF built %T", s)
	}
	s, err = BuildKind(store, Config{Kind: KindHNSW, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*HNSW); !ok {
		t.Fatalf("KindHNSW built %T", s)
	}
	if _, err := BuildKind(store, Config{Kind: Kind(99)}); err == nil {
		t.Fatal("unknown kind: want error")
	}
}

// TestIndexFingerprintStable: the IVF fingerprint must be reproducible per
// spec and sensitive to the seed, like the HNSW one — the shard-identity
// test in hdsearch leans on this.
func TestIndexFingerprintStable(t *testing.T) {
	_, store := clusteredStore(t, 1500, 16, 6, 61)
	for _, quant := range []Quant{QuantNone, QuantInt8, QuantPQ} {
		cfg := Config{NList: 12, Quant: quant, Seed: 7}
		a, err := Build(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("quant %v: same spec, different fingerprints", quant)
		}
		cfg.Seed = 8
		c, err := Build(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint() == c.Fingerprint() {
			t.Fatalf("quant %v: different seeds, identical fingerprints", quant)
		}
	}
}
