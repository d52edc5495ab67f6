package lsh

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"musuite/internal/dataset"
	"musuite/internal/kernel"
	"musuite/internal/knn"
	"musuite/internal/vec"
)

// --- reference oracle ---

// Entry references one indexed point: which leaf shard stores it and the
// point's ID within that shard's corpus.
type Entry struct {
	Shard   int32
	PointID uint32
}

// refIndex is the map-based index this package shipped before it moved to
// flat arrays, kept as the oracle the new one is pinned against.  dot is the
// projection kernel: kernel.Dot reproduces the new index exactly, vec.Dot
// the old one.
type refIndex struct {
	cfg    Config
	dot    func(a, b []float32) float32
	planes [][][]float32 // [table][bit] hyperplane normals
	tables []map[uint32][]Entry
}

func newRef(cfg Config, dim int, dot func(a, b []float32) float32) *refIndex {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := &refIndex{cfg: cfg, dot: dot, planes: make([][][]float32, cfg.Tables), tables: make([]map[uint32][]Entry, cfg.Tables)}
	for t := range r.planes {
		r.planes[t] = make([][]float32, cfg.Bits)
		for b := range r.planes[t] {
			plane := make([]float32, dim)
			for d := range plane {
				plane[d] = float32(rng.NormFloat64())
			}
			r.planes[t][b] = plane
		}
		r.tables[t] = make(map[uint32][]Entry)
	}
	return r
}

func (r *refIndex) signature(t int, v []float32) (uint32, []float32) {
	var sig uint32
	margins := make([]float32, r.cfg.Bits)
	for b, plane := range r.planes[t] {
		p := r.dot(plane, v)
		margins[b] = p
		if p >= 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig, margins
}

func (r *refIndex) insert(v []float32, shard int32, pointID uint32) {
	for t := range r.tables {
		sig, _ := r.signature(t, v)
		r.tables[t][sig] = append(r.tables[t][sig], Entry{Shard: shard, PointID: pointID})
	}
}

// lookup returns the deduplicated candidates per shard as sets.
func (r *refIndex) lookup(q []float32, shards int) []map[uint32]bool {
	out := make([]map[uint32]bool, shards)
	for s := range out {
		out[s] = make(map[uint32]bool)
	}
	add := func(entries []Entry) {
		for _, e := range entries {
			out[e.Shard][e.PointID] = true
		}
	}
	for t := range r.tables {
		sig, margins := r.signature(t, q)
		add(r.tables[t][sig])
		order := make([]int, len(margins))
		for b := range order {
			order[b] = b
		}
		abs := func(b int) float64 { return math.Abs(float64(margins[b])) }
		sort.SliceStable(order, func(i, j int) bool { return abs(order[i]) < abs(order[j]) })
		for _, b := range order[:min(r.cfg.Probes, len(order))] {
			add(r.tables[t][sig^(1<<uint(b))])
		}
	}
	return out
}

func vecDot(a, b []float32) float32 { return vec.Dot(a, b) }

// --- fixtures ---

// shardStores splits vectors round-robin, as dataset.ImageCorpus.Shard does,
// and keeps each shard in ascending global order: global point g is row
// g/shards of store g%shards.  (hdsearch.ShardCorpus has the same membership
// and its own row order; the index is indifferent to either.)
func shardStores(t testing.TB, vectors []vec.Vector, shards int) []*kernel.Store {
	t.Helper()
	split := make([][]vec.Vector, shards)
	for g, v := range vectors {
		split[g%shards] = append(split[g%shards], v)
	}
	stores := make([]*kernel.Store, shards)
	for s := range stores {
		st, err := kernel.BuildStore(split[s])
		if err != nil {
			t.Fatal(err)
		}
		stores[s] = st
	}
	return stores
}

// refOver indexes the same rows as Build(stores, cfg) in the reference.
func refOver(stores []*kernel.Store, cfg Config, dim int, dot func(a, b []float32) float32) *refIndex {
	r := newRef(cfg, dim, dot)
	for s, st := range stores {
		for i := 0; i < st.Len(); i++ {
			r.insert(st.Row(i), int32(s), uint32(i))
		}
	}
	return r
}

// globalCandidates flattens a lookup to global point IDs under shardStores'
// numbering.
func globalCandidates(idx *Index, q vec.Vector) []uint32 {
	var out []uint32
	for s, set := range idx.LookupInto(q, nil) {
		for _, id := range set.AppendIDs(nil) {
			out = append(out, id*uint32(idx.Shards())+uint32(s))
		}
	}
	return out
}

// listsOf expands a lookup's sets to ascending ID lists, reusing dst's.
func listsOf(sets []kernel.RowSet, dst [][]uint32) [][]uint32 {
	dst = slices.Grow(dst[:0], len(sets))[:len(sets)]
	for s, set := range sets {
		dst[s] = set.AppendIDs(dst[s][:0])
	}
	return dst
}

const testShards = 4

func buildClustered(t *testing.T, n, dim int) (*dataset.ImageCorpus, *Index) {
	t.Helper()
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: n, Dim: dim, Clusters: 10, Noise: 0.12, Seed: 42,
	})
	idx, err := Build(shardStores(t, corpus.Vectors, testShards), Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return corpus, idx
}

// fingerprint folds every array of the index into one hash.
func fingerprint(idx *Index) uint64 {
	h := fnv.New64a()
	for r := 0; r < idx.planes.Len(); r++ {
		binary.Write(h, binary.LittleEndian, idx.planes.Row(r))
	}
	for _, a := range [][]uint32{idx.keys, idx.offs, idx.words} {
		binary.Write(h, binary.LittleEndian, a)
	}
	binary.Write(h, binary.LittleEndian, idx.masks)
	for _, v := range idx.tableStart {
		binary.Write(h, binary.LittleEndian, uint64(v))
	}
	return h.Sum64()
}

// --- construction ---

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(nil, Config{}); err == nil {
		t.Fatal("no shards accepted")
	}
	if _, err := Build([]*kernel.Store{{}, {}}, Config{}); err == nil {
		t.Fatal("index over zero vectors accepted")
	}
	a, _ := kernel.BuildStore([]vec.Vector{make(vec.Vector, 8)})
	b, _ := kernel.BuildStore([]vec.Vector{make(vec.Vector, 4)})
	if _, err := Build([]*kernel.Store{a, b}, Config{}); err == nil {
		t.Fatal("mixed dimensions accepted")
	}
}

func TestStats(t *testing.T) {
	_, idx := buildClustered(t, 200, 16)
	s := idx.Stats()
	if s.Entries != 200 || s.Tables != 8 || idx.Size() != 200 || idx.Shards() != testShards || idx.Dim() != 16 {
		t.Fatalf("stats=%+v size=%d shards=%d dim=%d", s, idx.Size(), idx.Shards(), idx.Dim())
	}
	if s.Buckets == 0 || s.MaxBucketSize == 0 {
		t.Fatalf("empty stats=%+v", s)
	}
}

// TestStatsMatchReference pins the occupancy numbers — a bucket's size is now
// a popcount over its entries' masks — against the map-based reference's.
func TestStatsMatchReference(t *testing.T) {
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{N: 3000, Dim: 40, Clusters: 6, Seed: 17})
	for _, shards := range []int{1, 4, 7} {
		stores := shardStores(t, corpus.Vectors, shards)
		cfg := Config{Tables: 5, Bits: 9, Seed: 77}
		idx, err := Build(stores, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := Stats{Tables: 5, Entries: 3000}
		for _, table := range refOver(stores, cfg, 40, kernel.Dot).tables {
			want.Buckets += len(table)
			for _, entries := range table {
				want.MaxBucketSize = max(want.MaxBucketSize, len(entries))
			}
		}
		if got := idx.Stats(); got != want {
			t.Fatalf("%d shards: stats %+v, reference %+v", shards, got, want)
		}
	}
}

func TestDeterministicAcrossBuilds(t *testing.T) {
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{N: 100, Dim: 8, Seed: 3})
	build := func() *Index {
		idx, err := Build(shardStores(t, corpus.Vectors, 1), Config{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	a, b := build(), build()
	q := corpus.Queries(1, 4)[0]
	ea, eb := globalCandidates(a, q), globalCandidates(b, q)
	if !slices.Equal(ea, eb) {
		t.Fatalf("non-deterministic lookup: %v vs %v", ea, eb)
	}
}

// TestBuildIdenticalAtAnyWidth: the same seed and stores give a
// byte-identical index however many participants compute the signatures
// (the corpus is large enough that ParallelFor really splits it), and its
// planes are bit-equal to the reference's.
func TestBuildIdenticalAtAnyWidth(t *testing.T) {
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{N: 10000, Dim: 40, Clusters: 10, Seed: 8})
	stores := shardStores(t, corpus.Vectors, testShards)
	cfg := Config{Seed: 31, Probes: 2}
	var want uint64
	for _, par := range []int{1, 2, 8} {
		idx, err := build(stores, cfg, par)
		if err != nil {
			t.Fatal(err)
		}
		if fp := fingerprint(idx); par == 1 {
			want = fp
		} else if fp != want {
			t.Fatalf("width %d: fingerprint %x, serial %x", par, fp, want)
		}
		if par > 1 {
			continue
		}
		ref := newRef(cfg, 40, kernel.Dot)
		for tb := range ref.planes {
			for b, plane := range ref.planes[tb] {
				if !slices.Equal(plane, idx.planes.Row(tb*idx.cfg.Bits+b)) {
					t.Fatalf("plane table %d bit %d differs from the reference", tb, b)
				}
			}
		}
	}
}

// --- equivalence with the reference ---

// checkAgainstRef asserts the lookup contract for one query against the
// reference on the same dot kernel: per shard a well-formed set — as many
// masks as words, words strictly ascending, no zero mask — naming exactly the
// reference's candidates, every one a row of its store.
func checkAgainstRef(t *testing.T, idx *Index, ref *refIndex, stores []*kernel.Store, q []float32, dst []kernel.RowSet) []kernel.RowSet {
	t.Helper()
	dst = idx.LookupInto(q, dst)
	if len(dst) != len(stores) {
		t.Fatalf("%d sets for %d shards", len(dst), len(stores))
	}
	want := ref.lookup(q, len(stores))
	for s, set := range dst {
		if len(set.Words) != len(set.Masks) {
			t.Fatalf("shard %d: %d words, %d masks", s, len(set.Words), len(set.Masks))
		}
		for i, w := range set.Words {
			if set.Masks[i] == 0 || (i > 0 && w <= set.Words[i-1]) {
				t.Fatalf("shard %d: entry %d is word %d mask %#x after word %v", s, i, w, set.Masks[i], set.Words[:i])
			}
		}
		if set.Count() != len(want[s]) {
			t.Fatalf("shard %d: %d candidates, reference %d", s, set.Count(), len(want[s]))
		}
		for _, id := range set.AppendIDs(nil) {
			if int(id) >= stores[s].Len() {
				t.Fatalf("shard %d: ID %d beyond store of %d", s, id, stores[s].Len())
			}
			if !want[s][id] {
				t.Fatalf("shard %d: candidate %d not in the reference's set", s, id)
			}
		}
	}
	return dst
}

// TestLookupEqualsReference sweeps index shape × shard count over random
// corpora, including shards with no rows and corpora smaller than one bitmap
// word, and both the scalar (dim < 32) and SIMD dot paths.
func TestLookupEqualsReference(t *testing.T) {
	tables, nbits, probes := []int{1, 8}, []int{4, 12, 20}, []int{0, 2, 5}
	shards, sizes, dims := []int{1, 4, 7}, []int{5, 50, 700}, []int{8, 40}
	f := func(seed int64, a, b, c, d, e, g uint8) bool {
		n, dim, ns := sizes[int(e)%3], dims[int(g)%2], shards[int(d)%3]
		cfg := Config{Tables: tables[int(a)%2], Bits: nbits[int(b)%3], Probes: probes[int(c)%3], Seed: seed}
		corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{N: n, Dim: dim, Clusters: 4, Seed: seed})
		stores := shardStores(t, corpus.Vectors, ns)
		idx, err := Build(stores, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := refOver(stores, cfg, dim, kernel.Dot)
		var dst []kernel.RowSet
		for _, q := range append(corpus.Queries(20, seed+1), corpus.Vectors[0], make(vec.Vector, dim)) {
			dst = checkAgainstRef(t, idx, ref, stores, q, dst)
		}
		assertScratchZero(t, idx)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// assertScratchZero checks the pooled bitmap a lookup just returned (or a
// fresh one, if the pool dropped it) has no bit left set.
func assertScratchZero(t *testing.T, idx *Index) {
	t.Helper()
	sc := idx.scratch.Get().(*lookupScratch)
	defer idx.scratch.Put(sc)
	for i, w := range sc.dense {
		if w != 0 {
			t.Fatalf("pooled bitmap word %d = %#x after lookup", i, w)
		}
	}
}

// TestScalarReferenceDiffersOnlyAtZeroMargins compares against the index
// this package used to be — same planes, signs from the 4-way scalar
// vec.Dot — on a corpus shaped like the benchmark's (64-d, 10 clusters, 4
// shards, its seed).  The two kernels sum in different orders, so a
// projection within float32 rounding of zero may change sign; a candidate
// may differ between the two only where that happened to the point or to
// the query, and recall@1 must not move.
func TestScalarReferenceDiffersOnlyAtZeroMargins(t *testing.T) {
	n, nq := 100000, 100
	if testing.Short() {
		n, nq = 20000, 50
	}
	const dim, seed = 64, 20180930
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{N: n, Dim: dim, Clusters: 10, Seed: seed})
	stores := shardStores(t, corpus.Vectors, testShards)
	cfg := Config{Seed: seed}
	idx, err := Build(stores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := refOver(stores, cfg, dim, vecDot)

	// fragile reports whether v's signature differs between the kernels in
	// any table, checking that every bit that differs has a margin that is
	// zero to rounding: |p| ≤ 1e-5·‖plane‖·‖v‖.
	fragile := func(v []float32) bool {
		differs := false
		for tb := range ref.tables {
			sig, margins := ref.signature(tb, v)
			diff := sig ^ idx.signature(tb, v, nil)
			for b := 0; diff != 0; b, diff = b+1, diff>>1 {
				if diff&1 == 0 {
					continue
				}
				differs = true
				plane := ref.planes[tb][b]
				bound := 1e-5 * math.Sqrt(float64(vecDot(plane, plane))*float64(vecDot(v, v)))
				if math.Abs(float64(margins[b])) > bound {
					t.Fatalf("table %d bit %d flipped at margin %g (bound %g)", tb, b, margins[b], bound)
				}
			}
		}
		return differs
	}
	fragilePoints := 0
	for _, v := range corpus.Vectors {
		if fragile(v) {
			fragilePoints++
		}
	}
	t.Logf("%d of %d points hash differently under the two kernels", fragilePoints, n)
	if fragilePoints > n/1000 {
		t.Fatalf("%d fragile points: more than rounding explains", fragilePoints)
	}

	eng := kernel.New(kernel.Config{})
	whole, err := kernel.BuildStore(corpus.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	var sets []kernel.RowSet
	var dst [][]uint32
	var truth []knn.Neighbor
	hitsNew, hitsRef, diffs := 0, 0, 0
	for _, q := range corpus.Queries(nq, 5) {
		sets = idx.LookupInto(q, sets)
		dst = listsOf(sets, dst)
		want := ref.lookup(q, testShards)
		fragileQuery := fragile(q)
		for s, ids := range dst {
			extra := len(want[s])
			for _, id := range ids {
				if want[s][id] {
					extra--
					continue
				}
				diffs++
				if !fragileQuery && !fragile(stores[s].Row(int(id))) {
					t.Fatalf("shard %d point %d: candidate only under kernel.Dot, yet no margin near zero", s, id)
				}
			}
			if extra == 0 {
				continue
			}
			for id := range want[s] {
				if _, found := slices.BinarySearch(ids, id); !found {
					diffs++
					if !fragileQuery && !fragile(stores[s].Row(int(id))) {
						t.Fatalf("shard %d point %d: candidate only under vec.Dot, yet no margin near zero", s, id)
					}
				}
			}
		}
		truth, _ = eng.Scan(whole, q, 1, truth[:0])
		ts, tl := int(truth[0].ID)%testShards, truth[0].ID/testShards
		if _, found := slices.BinarySearch(dst[ts], tl); found {
			hitsNew++
		}
		if want[ts][tl] {
			hitsRef++
		}
	}
	t.Logf("recall@1 %d/%d (reference %d/%d), %d candidate differences", hitsNew, nq, hitsRef, nq, diffs)
	if hitsNew != hitsRef {
		t.Fatalf("recall@1 moved: %d vs reference %d of %d", hitsNew, hitsRef, nq)
	}
}

// --- lookup properties ---

// TestRecallAtLeast93 is the paper's accuracy floor: the LSH candidate set,
// scored exactly, must contain the true nearest neighbor for ≥93% of
// queries at tuned parameters.
func TestRecallAtLeast93(t *testing.T) {
	corpus, idx := buildClustered(t, 2000, 32)
	queries := corpus.Queries(200, 5)
	hits := 0
	for _, q := range queries {
		truth := knn.BruteForce(q, corpus.Vectors, 1)[0].ID
		if slices.Contains(globalCandidates(idx, q), truth) {
			hits++
		}
	}
	recall := float64(hits) / float64(len(queries))
	if recall < 0.93 {
		t.Fatalf("recall@1 = %.3f < 0.93", recall)
	}
	t.Logf("recall@1 = %.3f over %d queries", recall, len(queries))
}

// TestPruning verifies the point of the index: candidates are far fewer than
// the corpus.
func TestPruning(t *testing.T) {
	corpus, idx := buildClustered(t, 2000, 32)
	total := 0
	queries := corpus.Queries(50, 6)
	for _, q := range queries {
		total += len(globalCandidates(idx, q))
	}
	avg := float64(total) / float64(len(queries))
	if avg > 2000*0.6 {
		t.Fatalf("average candidate set %.0f is not pruning (corpus 2000)", avg)
	}
	t.Logf("average candidates = %.0f of 2000", avg)
}

// TestMoreProbesRaiseRecall is where multi-probe (Probes > 0, which no
// deployment default turns on) is exercised end to end: probing more
// adjacent buckets can only add candidates, so recall cannot fall.
func TestMoreProbesRaiseRecall(t *testing.T) {
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: 1500, Dim: 32, Clusters: 12, Noise: 0.12, Seed: 5,
	})
	stores := shardStores(t, corpus.Vectors, 1)
	queries := corpus.Queries(150, 11)
	measure := func(probes int) (recall float64, candidates int) {
		idx, err := Build(stores, Config{Tables: 4, Bits: 14, Probes: probes, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for _, q := range queries {
			truth := knn.BruteForce(q, corpus.Vectors, 1)[0].ID
			cands := globalCandidates(idx, q)
			candidates += len(cands)
			if slices.Contains(cands, truth) {
				hits++
			}
		}
		return float64(hits) / float64(len(queries)), candidates
	}
	r0, c0 := measure(0)
	r4, c4 := measure(4)
	if r4 < r0 {
		t.Fatalf("probes lowered recall: %.3f → %.3f", r0, r4)
	}
	if c4 <= c0 {
		t.Fatalf("4 probes gathered %d candidates, 0 probes %d: multi-probe did nothing", c4, c0)
	}
	t.Logf("recall probes=0: %.3f (%d candidates), probes=4: %.3f (%d)", r0, c0, r4, c4)
}

// TestProbesZeroValueIsExactBucketOnly pins what the zero-valued config
// does: no multi-probe.  Only a negative Probes asks for the default of 2.
func TestProbesZeroValueIsExactBucketOnly(t *testing.T) {
	if got := (Config{}).withDefaults().Probes; got != 0 {
		t.Fatalf("zero config probes %d buckets, want 0", got)
	}
	if got := (Config{Probes: -1}).withDefaults().Probes; got != 2 {
		t.Fatalf("negative Probes → %d, want 2", got)
	}
}

func TestLookupByShardMatchesLookupInto(t *testing.T) {
	corpus, idx := buildClustered(t, 400, 16)
	for _, q := range corpus.Queries(10, 3) {
		lists := listsOf(idx.LookupInto(q, nil), nil)
		grouped := idx.LookupByShard(q)
		for s, ids := range lists {
			got, present := grouped[int32(s)]
			if present != (len(ids) > 0) || !slices.Equal(got, ids) {
				t.Fatalf("shard %d: map has %v, lists have %v", s, got, ids)
			}
		}
		if len(grouped) > len(lists) {
			t.Fatalf("map names unknown shards: %v", grouped)
		}
	}
}

// TestLookupIntoCutsLongerDst hands LookupInto a dst last used with an index
// over more shards — what a process-wide scratch pool does when mid-tiers of
// different widths share a process.  Nothing of the stale lists may survive.
func TestLookupIntoCutsLongerDst(t *testing.T) {
	corpus, idx := buildClustered(t, 400, 16)
	for _, q := range corpus.Queries(5, 3) {
		dst := make([]kernel.RowSet, idx.Shards()+3)
		for s := range dst {
			dst[s] = kernel.RowSet{Words: []uint32{1 << 24, 1<<24 + 1}, Masks: []uint64{1, 2}}
		}
		got, want := listsOf(idx.LookupInto(q, dst), nil), listsOf(idx.LookupInto(q, nil), nil)
		if !slices.EqualFunc(got, want, slices.Equal[[]uint32]) {
			t.Fatalf("stale dst of %d sets: got %v, want %v", len(dst), got, want)
		}
	}
}

// Property: an indexed vector, looked up exactly, is always among its own
// candidates (a point collides with itself in every table).
func TestSelfLookupProperty(t *testing.T) {
	f := func(raws [][6]int8) bool {
		if len(raws) == 0 {
			return true
		}
		vectors := make([]vec.Vector, len(raws))
		for i, raw := range raws {
			vectors[i] = make(vec.Vector, 6)
			for d, r := range raw {
				vectors[i][d] = float32(r) / 16
			}
		}
		idx, err := Build(shardStores(t, vectors, 2), Config{Tables: 3, Bits: 10, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		for g, v := range vectors {
			if !slices.Contains(globalCandidates(idx, v), uint32(g)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// --- allocation and concurrency ---

func TestLookupAllocations(t *testing.T) {
	corpus, idx := buildClustered(t, 3000, 32)
	queries := corpus.Queries(16, 9)
	dst := make([]kernel.RowSet, idx.Shards())
	for s := range dst { // warmed: capacity for any answer
		dst[s] = kernel.RowSet{Words: make([]uint32, 0, 3000/64+1), Masks: make([]uint64, 0, 3000/64+1)}
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		dst = idx.LookupInto(queries[i%len(queries)], dst)
		i++
	}); n != 0 {
		t.Fatalf("LookupInto into reused buffers: %v allocs per lookup, want 0", n)
	}
	assertScratchZero(t, idx)
	// The wrapper owes its caller fresh memory — the map and one exact-size
	// list per shard — and nothing else, when the pool keeps the sets it
	// expands them from.
	if !poolsKeepPuts() {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	if n := testing.AllocsPerRun(200, func() {
		idx.LookupByShard(queries[i%len(queries)])
		i++
	}); n > testShards+2 {
		t.Fatalf("LookupByShard: %v allocs per lookup, want ≤ %d", n, testShards+2)
	}
	assertScratchZero(t, idx)
}

// poolsKeepPuts reports whether sync.Pool hands back what it was just given.
// Under the race detector it drops a quarter of all Puts on purpose, and then
// a pooled path's allocation count says nothing about the path.
func poolsKeepPuts() bool {
	news := 0
	p := sync.Pool{New: func() any { news++; return new(int) }}
	for i := 0; i < 200; i++ {
		p.Put(p.Get())
	}
	return news <= 2
}

// TestConcurrentLookupsAgreeWithSerial runs under -race in CI: lookups share
// the index and the scratch pool and nothing else.
func TestConcurrentLookupsAgreeWithSerial(t *testing.T) {
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{N: 3000, Dim: 32, Clusters: 10, Seed: 42})
	idx, err := Build(shardStores(t, corpus.Vectors, testShards), Config{Seed: 7, Probes: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := corpus.Queries(64, 10)
	want := make([][]uint32, len(queries))
	for i, q := range queries {
		want[i] = globalCandidates(idx, q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				for i := range queries {
					qi := (i + g*7) % len(queries)
					if got := globalCandidates(idx, queries[qi]); !slices.Equal(got, want[qi]) {
						t.Errorf("goroutine %d query %d: concurrent lookup differs from serial", g, qi)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	assertScratchZero(t, idx)
}

func BenchmarkLookup(b *testing.B) {
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: 5000, Dim: 64, Clusters: 16, Seed: 21,
	})
	idx, err := Build(shardStores(b, corpus.Vectors, testShards), Config{Seed: 22})
	if err != nil {
		b.Fatal(err)
	}
	q := corpus.Queries(1, 23)[0]
	var dst []kernel.RowSet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = idx.LookupInto(q, dst)
	}
}

// localityStores lays a corpus out as hdsearch.ShardCorpus does (which this
// package cannot import): round-robin membership, each shard's rows sorted by
// a 16-bit sign signature over planes of that package's seed, ties by global
// ID.  The index does not care; what a lookup costs does — in this order a
// bucket's members share words.
func localityStores(tb testing.TB, corpus *dataset.ImageCorpus, shards int) []*kernel.Store {
	tb.Helper()
	const bits, seed = 16, 0x6c61796f7574
	planes := NewPlanes(seed, bits, corpus.Dim)
	stores := make([]*kernel.Store, shards)
	for s := range stores {
		var keyed []uint64
		for g := s; g < len(corpus.Vectors); g += shards {
			keyed = append(keyed, uint64(Signature(planes, 0, bits, corpus.Vectors[g], nil))<<32|uint64(g))
		}
		slices.Sort(keyed)
		order := make([]uint32, len(keyed))
		for i, w := range keyed {
			order[i] = uint32(w)
		}
		st, err := kernel.BuildStoreOrdered(corpus.Vectors, order)
		if err != nil {
			tb.Fatal(err)
		}
		stores[s] = st
	}
	return stores
}

// BenchmarkLookupInto is the mid-tier half of hdsearch_lsh, located: the
// benchmark's corpus shape (100 000 × 64 in 10 clusters on 4 shards, its seed)
// in locality order, 512 queries, lookups into reused sets.  It reports ns per
// lookup and what a lookup hands on — non-zero words and candidates per query.
func BenchmarkLookupInto(b *testing.B) {
	const seed = 20180930
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{N: 100000, Dim: 64, Clusters: 10, Seed: seed})
	idx, err := Build(localityStores(b, corpus, testShards), Config{Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	queries := corpus.Queries(512, 1)
	var dst []kernel.RowSet
	words, candidates := 0, 0
	for _, q := range queries {
		dst = idx.LookupInto(q, dst)
		for _, set := range dst {
			words, candidates = words+len(set.Words), candidates+set.Count()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = idx.LookupInto(queries[i%len(queries)], dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/lookup")
	b.ReportMetric(float64(words)/float64(len(queries)), "words/query")
	b.ReportMetric(float64(candidates)/float64(len(queries)), "candidates/query")
}
