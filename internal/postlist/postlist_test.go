package postlist

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"musuite/internal/dataset"
)

func ids(p *PostingList) []uint32 { return p.IDs() }

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// naiveIntersect is the reference semantics: set intersection, sorted.
func naiveIntersect(lists ...[]uint32) []uint32 {
	if len(lists) == 0 {
		return nil
	}
	count := make(map[uint32]int)
	for _, l := range lists {
		seen := make(map[uint32]bool)
		for _, id := range l {
			if !seen[id] {
				seen[id] = true
				count[id]++
			}
		}
	}
	var out []uint32
	for id, n := range count {
		if n == len(lists) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func naiveUnion(lists ...[]uint32) []uint32 {
	seen := make(map[uint32]bool)
	for _, l := range lists {
		for _, id := range l {
			seen[id] = true
		}
	}
	var out []uint32
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestNewSortsAndDedups(t *testing.T) {
	p := New([]uint32{5, 1, 3, 1, 5, 2})
	want := []uint32{1, 2, 3, 5}
	if !equalIDs(ids(p), want) {
		t.Fatalf("got %v", ids(p))
	}
	if p.Len() != 4 {
		t.Fatalf("len=%d", p.Len())
	}
}

func TestSkipsBuilt(t *testing.T) {
	raw := make([]uint32, 100)
	for i := range raw {
		raw[i] = uint32(i * 3)
	}
	p := NewWithSkipSize(raw, 10)
	if p.Skips() != 9 {
		t.Fatalf("skips=%d want 9", p.Skips())
	}
}

func TestContains(t *testing.T) {
	raw := make([]uint32, 200)
	for i := range raw {
		raw[i] = uint32(i * 2) // evens only
	}
	p := NewWithSkipSize(raw, 8)
	for i := uint32(0); i < 400; i++ {
		want := i%2 == 0
		if got := p.Contains(i); got != want {
			t.Fatalf("Contains(%d)=%v want %v", i, got, want)
		}
	}
	empty := New(nil)
	if empty.Contains(1) {
		t.Fatal("empty list contains")
	}
}

func TestIntersect2Basic(t *testing.T) {
	a := New([]uint32{1, 2, 3, 4, 5})
	b := New([]uint32{2, 4, 6})
	got := Intersect2(a, b)
	if !equalIDs(ids(got), []uint32{2, 4}) {
		t.Fatalf("got %v", ids(got))
	}
	// Disjoint.
	if got := Intersect2(New([]uint32{1, 3}), New([]uint32{2, 4})); got.Len() != 0 {
		t.Fatalf("disjoint intersect=%v", ids(got))
	}
	// Empty operand.
	if got := Intersect2(New(nil), b); got.Len() != 0 {
		t.Fatalf("empty intersect=%v", ids(got))
	}
}

func TestIntersectVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		mk := func(n, space int) []uint32 {
			out := make([]uint32, n)
			for i := range out {
				out[i] = uint32(rng.Intn(space))
			}
			return out
		}
		rawA, rawB := mk(rng.Intn(300), 500), mk(rng.Intn(300), 500)
		a := NewWithSkipSize(rawA, 2+rng.Intn(20))
		b := NewWithSkipSize(rawB, 2+rng.Intn(20))
		want := naiveIntersect(ids(a), ids(b))
		if got := Intersect2(a, b); !equalIDs(ids(got), want) {
			t.Fatalf("linear merge: got %v want %v", ids(got), want)
		}
		if got := Intersect2Skip(a, b); !equalIDs(ids(got), want) {
			t.Fatalf("skip merge: got %v want %v", ids(got), want)
		}
		if got := Intersect2Skip(b, a); !equalIDs(ids(got), want) {
			t.Fatalf("skip merge swapped: got %v want %v", ids(got), want)
		}
	}
}

func TestIntersectMultiWay(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(4)
		lists := make([]*PostingList, k)
		raws := make([][]uint32, k)
		for i := 0; i < k; i++ {
			n := rng.Intn(200)
			raw := make([]uint32, n)
			for j := range raw {
				raw[j] = uint32(rng.Intn(150))
			}
			raws[i] = raw
			lists[i] = New(raw)
		}
		want := naiveIntersect(raws...)
		got := Intersect(lists...)
		// naiveIntersect dedups per list; New also dedups.
		if !equalIDs(ids(got), want) {
			t.Fatalf("k=%d got %v want %v", k, ids(got), want)
		}
	}
}

func TestIntersectEdgeArities(t *testing.T) {
	if got := Intersect(); got.Len() != 0 {
		t.Fatalf("0-ary intersect=%v", ids(got))
	}
	one := New([]uint32{3, 1})
	got := Intersect(one)
	if !equalIDs(ids(got), []uint32{1, 3}) {
		t.Fatalf("1-ary intersect=%v", ids(got))
	}
	// Result must be a copy, not an alias.
	got.ids[0] = 99
	if one.ids[0] != 1 {
		t.Fatal("1-ary intersect aliases input")
	}
}

func TestUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(5)
		lists := make([]*PostingList, k)
		raws := make([][]uint32, k)
		for i := 0; i < k; i++ {
			n := rng.Intn(100)
			raw := make([]uint32, n)
			for j := range raw {
				raw[j] = uint32(rng.Intn(120))
			}
			raws[i] = raw
			lists[i] = New(raw)
		}
		want := naiveUnion(raws...)
		if got := Union(lists...); !equalIDs(ids(got), want) {
			t.Fatalf("union got %v want %v", ids(got), want)
		}
	}
	if got := Union(); got.Len() != 0 {
		t.Fatal("0-ary union non-empty")
	}
}

// Property tests on random sets: intersection/union match set semantics,
// results are sorted and duplicate-free.
func TestQuickSetSemantics(t *testing.T) {
	f := func(rawA, rawB []uint16) bool {
		a32 := make([]uint32, len(rawA))
		for i, v := range rawA {
			a32[i] = uint32(v % 300)
		}
		b32 := make([]uint32, len(rawB))
		for i, v := range rawB {
			b32[i] = uint32(v % 300)
		}
		a, b := New(a32), New(b32)
		inter := Intersect2Skip(a, b)
		uni := Union(a, b)
		if !equalIDs(ids(inter), naiveIntersect(a32, b32)) {
			return false
		}
		if !equalIDs(ids(uni), naiveUnion(a32, b32)) {
			return false
		}
		// Sorted, no duplicates.
		for i := 1; i < inter.Len(); i++ {
			if inter.ids[i] <= inter.ids[i-1] {
				return false
			}
		}
		// Intersection ⊆ union; both bounded by operands.
		for _, id := range ids(inter) {
			if !uni.Contains(id) || !a.Contains(id) || !b.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildIndexAndSearch(t *testing.T) {
	docs := [][]int{
		{1, 2, 3},    // doc 0
		{2, 3, 4},    // doc 1
		{3, 4, 5},    // doc 2
		{1, 3, 5, 1}, // doc 3 (dup word)
	}
	idx := BuildIndex(docs, IndexConfig{})
	if idx.Docs() != 4 {
		t.Fatalf("docs=%d", idx.Docs())
	}
	if got := idx.Search([]int{3}); !equalIDs(got, []uint32{0, 1, 2, 3}) {
		t.Fatalf("search(3)=%v", got)
	}
	if got := idx.Search([]int{2, 3}); !equalIDs(got, []uint32{0, 1}) {
		t.Fatalf("search(2,3)=%v", got)
	}
	if got := idx.Search([]int{1, 4}); len(got) != 0 {
		t.Fatalf("search(1,4)=%v", got)
	}
	if got := idx.Search([]int{99}); got != nil {
		t.Fatalf("search(unknown)=%v", got)
	}
	if got := idx.Search(nil); got != nil {
		t.Fatalf("search(empty)=%v", got)
	}
	// Terms the index has no slot for: a wire term of 2⁶⁴−1 (a negative int
	// once decoded) and the vocabulary (word IDs 0..5) + 5.  Neither is
	// stopped, indexed or matched, alone or beside a live term.
	wire := uint64(math.MaxUint64)
	for _, term := range []int{int(wire), 6 + 5} {
		if idx.IsStopWord(term) || idx.Postings(term) != nil {
			t.Fatalf("term %d has a slot", term)
		}
		if got := idx.Search([]int{term}); got != nil {
			t.Fatalf("search(%d)=%v", term, got)
		}
		if got := idx.Search([]int{3, term}); got != nil {
			t.Fatalf("search(3,%d)=%v", term, got)
		}
	}
}

func TestStopListDiscardsTopTerms(t *testing.T) {
	// Term 0 appears in every doc and multiple times — highest collection
	// frequency — so StopTerms=1 must stop-list exactly it.
	docs := [][]int{
		{0, 0, 1, 2},
		{0, 2, 3},
		{0, 0, 0, 3},
	}
	idx := BuildIndex(docs, IndexConfig{StopTerms: 1})
	if !idx.IsStopWord(0) {
		t.Fatal("term 0 not stop-listed")
	}
	if idx.Postings(0) != nil {
		t.Fatal("stop word has postings")
	}
	// Stopped terms are dropped from queries: {0, 3} behaves as {3}.
	if got := idx.Search([]int{0, 3}); !equalIDs(got, []uint32{1, 2}) {
		t.Fatalf("search(stop,3)=%v", got)
	}
	// All-stop query matches nothing.
	if got := idx.Search([]int{0}); got != nil {
		t.Fatalf("search(stop)=%v", got)
	}
}

func TestIndexSearchMatchesNaiveOnCorpus(t *testing.T) {
	corpus := dataset.NewDocCorpus(dataset.DocCorpusConfig{
		Docs: 300, VocabSize: 800, MeanDocLen: 60, Seed: 4,
	})
	idx := BuildIndex(corpus.Docs, IndexConfig{StopTerms: 10})
	queries := corpus.Queries(100, 5, 5)
	for qi, q := range queries {
		// Reference: filter stop words, then scan documents.
		var live []int
		for _, term := range q {
			if !idx.IsStopWord(term) {
				live = append(live, term)
			}
		}
		var want []uint32
		if len(live) > 0 {
			for docID, words := range corpus.Docs {
				has := make(map[int]bool)
				for _, w := range words {
					has[w] = true
				}
				all := true
				for _, term := range live {
					if !has[term] {
						all = false
						break
					}
				}
				if all {
					want = append(want, uint32(docID))
				}
			}
		}
		got := idx.Search(q)
		if !equalIDs(got, want) {
			t.Fatalf("query %d (%v): got %v want %v", qi, q, got, want)
		}
	}
}

// denseIndex indexes a corpus whose posting lists are long against its 3 000
// documents, so that intersections take the bitset kernel as well as the skip
// walk.
func denseIndex() (*dataset.DocCorpus, *Index) {
	corpus := dataset.NewDocCorpus(dataset.DocCorpusConfig{
		Docs: 3000, VocabSize: 120, MeanDocLen: 30, Seed: 9,
	})
	return corpus, BuildIndex(corpus.Docs, IndexConfig{StopTerms: 5})
}

// TestSearchIntoMatchesPairwiseIntersect: the search on caller scratch — no
// PostingList for an intermediate result, in place from the second step on,
// one scratch reused across every query — returns what folding the two-list
// linear merge over the query's posting lists returns, for 1 to 10 terms with
// stop-listed, unindexed and repeated ones among them; Search, the wrapper on
// fresh scratch, agrees; and the index's own lists are never written.
func TestSearchIntoMatchesPairwiseIntersect(t *testing.T) {
	corpus, idx := denseIndex()
	before := slices.Clone(idx.ids)
	var sc IntersectScratch
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		terms := make([]int, 1+r.Intn(10))
		for i := range terms {
			// 120 indexed or stop-listed terms, then a few no document has.
			terms[i] = r.Intn(corpus.VocabSize + 4)
		}
		var want *PostingList
		for _, term := range terms {
			if idx.IsStopWord(term) {
				continue
			}
			p := idx.Postings(term)
			if p == nil {
				p = New(nil)
			}
			if want == nil {
				want = p
			} else {
				want = Intersect2(want, p)
			}
		}
		var wantIDs []uint32
		if want != nil {
			wantIDs = want.IDs()
		}
		return equalIDs(idx.SearchInto(&sc, terms), wantIDs) && equalIDs(idx.Search(terms), wantIDs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(idx.ids, before) {
		t.Fatal("the index's posting lists were written to")
	}
	// Both kernels ran: the corpus is dense enough for the bitmaps, and rare
	// terms against common ones gallop.
	if len(sc.words) == 0 {
		t.Error("no query took the bitset kernel")
	}
}

// TestSearchIntoSteadyStateAllocatesNothing: a search on warmed scratch
// allocates nothing, whichever kernels its steps take.
func TestSearchIntoSteadyStateAllocatesNothing(t *testing.T) {
	corpus, idx := denseIndex()
	queries := corpus.Queries(64, 10, 10)
	var sc IntersectScratch
	run := func() {
		for _, q := range queries {
			idx.SearchInto(&sc, q)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("%v allocations per %d searches on warmed scratch", allocs, len(queries))
	}
}

func BenchmarkIntersect2Linear(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	mk := func(n int) *PostingList {
		raw := make([]uint32, n)
		for i := range raw {
			raw[i] = uint32(rng.Intn(n * 4))
		}
		return New(raw)
	}
	a, c := mk(10000), mk(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Intersect2(a, c)
	}
}

func BenchmarkIntersect2SkipAsymmetric(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	small := make([]uint32, 100)
	for i := range small {
		small[i] = uint32(rng.Intn(400000))
	}
	big := make([]uint32, 100000)
	for i := range big {
		big[i] = uint32(rng.Intn(400000))
	}
	a, c := New(small), New(big)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Intersect2Skip(a, c)
	}
}

func BenchmarkIndexSearch(b *testing.B) {
	corpus := dataset.NewDocCorpus(dataset.DocCorpusConfig{
		Docs: 2000, VocabSize: 5000, MeanDocLen: 100, Seed: 7,
	})
	idx := BuildIndex(corpus.Docs, IndexConfig{StopTerms: 25})
	queries := corpus.Queries(256, 6, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search(queries[i%len(queries)])
	}
}
