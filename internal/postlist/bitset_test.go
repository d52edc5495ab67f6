package postlist

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// randList builds a sorted, deduplicated random ID list whose density the
// caller controls through the ID range.
func randList(r *rand.Rand, n int, idRange uint32) []uint32 {
	if n > int(idRange) {
		n = int(idRange)
	}
	seen := make(map[uint32]bool, n)
	for len(seen) < n {
		seen[uint32(r.Intn(int(idRange)))] = true
	}
	out := make([]uint32, 0, n)
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestIntersectBitsetEquivalence: the dense-range bitset kernel returns
// exactly what the linear reference intersection returns, dense or sparse,
// whether or not the heuristic would have picked it.
func TestIntersectBitsetEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Mix densities: sometimes dense (bitset-friendly), sometimes not.
		rangeA := uint32(1 + r.Intn(4096))
		rangeB := uint32(1 + r.Intn(4096))
		na := 1 + r.Intn(int(rangeA))
		nb := 1 + r.Intn(int(rangeB))
		a := New(randList(r, na, rangeA))
		b := New(randList(r, nb, rangeB))
		got := Intersect2Bitset(a, b).IDs()
		want := Intersect2(a, b).IDs()
		if len(got) == 0 && len(want) == 0 {
			return true
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestIntersectBitsetEmpty: degenerate shapes don't panic and return empty.
func TestIntersectBitsetEmpty(t *testing.T) {
	empty := New(nil)
	one := New([]uint32{5})
	far := New([]uint32{1000000})
	for _, pair := range [][2]*PostingList{{empty, one}, {one, empty}, {one, far}} {
		if got := Intersect2Bitset(pair[0], pair[1]); got.Len() != 0 {
			t.Fatalf("expected empty, got %v", got.IDs())
		}
	}
	if useBitset(empty.ids, one.ids) || useBitset(one.ids, far.ids) {
		t.Fatal("heuristic selected bitset for empty/disjoint lists")
	}
}

// TestIntersectBitsetHeuristic: dense overlaps take the bitset path, sparse
// huge spans don't.
func TestIntersectBitsetHeuristic(t *testing.T) {
	dense := New([]uint32{0, 1, 2, 3, 4, 5, 6, 7})
	if !useBitset(dense.ids, dense.ids) {
		t.Fatal("dense overlap rejected")
	}
	sparse := New([]uint32{0, 1 << 30})
	if useBitset(sparse.ids, sparse.ids) {
		t.Fatal("sparse span accepted")
	}
}

// TestUnionEquivalence: MergeSortedInto, and each of its two unions forced on
// inputs from either side of the crossover, returns the sorted, compacted
// concatenation of its segments — for 1 to 8 segments with empty and nil ones
// among them, IDs shared between segments, a single ID, dense spans and IDs
// spread over all of uint32, spans that end at math.MaxUint32 (the span
// arithmetic must not wrap), and a dst that already holds something.
func TestUnionEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// IDs are drawn from [anchor, anchor+window].
		var window, anchor uint32
		switch r.Intn(4) {
		case 0: // dense: MergeSortedInto takes the bitmap
			window = uint32(1 + r.Intn(4000))
			anchor = uint32(r.Int63n(math.MaxUint32 - 4000))
		case 1: // dense, ending at the last uint32
			window = uint32(1 + r.Intn(4000))
			anchor = math.MaxUint32 - window
		case 2: // past the crossover, ending at the last uint32, a bitmap still affordable
			window = 1 << 20
			anchor = math.MaxUint32 - window
		case 3: // all of uint32
			window, anchor = math.MaxUint32, 0
		}
		segs := make([][]uint32, 1+r.Intn(8))
		for s := range segs {
			switch r.Intn(6) {
			case 0: // leave a nil segment
			case 1:
				segs[s] = []uint32{}
			case 2:
				segs[s] = []uint32{anchor + window} // a single ID, shared by every such segment
			default:
				for _, id := range randList(r, 1+r.Intn(200), window) {
					segs[s] = append(segs[s], anchor+id)
				}
				if r.Intn(2) == 0 {
					segs[s] = append(segs[s], anchor+window)
				}
			}
		}
		prefix := []uint32{7, 7, 3}[:r.Intn(4)] // live, and not to be merged with
		want := append(slices.Clone(prefix), naiveUnion(segs...)...)

		var runs [][]uint32
		total, lo, hi := 0, uint32(math.MaxUint32), uint32(0)
		for _, seg := range segs {
			if len(seg) > 0 {
				runs = append(runs, seg)
				total += len(seg)
				lo, hi = min(lo, seg[0]), max(hi, seg[len(seg)-1])
			}
		}
		ok := slices.Equal(MergeSortedInto(slices.Clone(prefix), segs), want)
		// Forcing the bitmap on a 2³²-ID span would take a 512 MB bitmap: the
		// sparse draw is the tournament's, and MergeSortedInto's above.
		if len(runs) >= 2 && window != math.MaxUint32 {
			ok = ok && slices.Equal(unionBitmap(slices.Clone(prefix), runs, lo, int(hi-lo)+1, total), want)
		}
		if len(runs) >= 2 {
			ok = ok && slices.Equal(unionTournament(slices.Clone(prefix), runs, total), want)
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestUnionCrossover: which union runs is decided by the input's density, at
// unionSpanFactor exactly, and a span that covers all of uint32 is not mistaken
// for an empty one.
func TestUnionCrossover(t *testing.T) {
	if !useBitmap(10, 10+4*unionSpanFactor-1, 4) {
		t.Error("span = factor × IDs did not take the bitmap")
	}
	if useBitmap(10, 10+4*unionSpanFactor, 4) {
		t.Error("span = factor × IDs + 1 took the bitmap")
	}
	if useBitmap(0, math.MaxUint32, 2) {
		t.Error("a span of 2³² took the bitmap")
	}
}

// TestMergeSortedIntoSteadyStateAllocatesNothing: once dst has grown to hold
// the merge — and, for dense segments, the pooled bitmap exists — merging into
// it again allocates nothing, whichever union the segments take.
func TestMergeSortedIntoSteadyStateAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for name, idRange := range map[string]uint32{"dense": 4000, "sparse": 1 << 30} {
		segs := make([][]uint32, 4)
		for s := range segs {
			segs[s] = randList(r, 500, idRange)
		}
		dst := MergeSortedInto(nil, segs)
		if allocs := testing.AllocsPerRun(20, func() { dst = MergeSortedInto(dst[:0], segs) }); allocs != 0 {
			t.Errorf("%s: %v allocations per merge into a warmed dst", name, allocs)
		}
	}
}

// TestMergeSortedIntoReusesDst: the merge appends into the provided slice.
func TestMergeSortedIntoReusesDst(t *testing.T) {
	dst := make([]uint32, 0, 64)
	out := MergeSortedInto(dst, [][]uint32{{1, 3}, {2, 3, 4}})
	if !reflect.DeepEqual(out, []uint32{1, 2, 3, 4}) {
		t.Fatalf("got %v", out)
	}
	if &out[0] != &dst[:1][0] {
		t.Fatal("merge did not reuse dst's backing array")
	}
}

// roundRobinSegs deals perSeg random IDs to each of k segments from a span of
// docs IDs split round-robin (ID ≡ segment mod k): the shape of the leaf
// replies a Set Algebra mid-tier unions.
func roundRobinSegs(r *rand.Rand, k, perSeg, docs int) [][]uint32 {
	segs := make([][]uint32, k)
	for s := range segs {
		for _, local := range randList(r, perSeg, uint32(docs/k)) {
			segs[s] = append(segs[s], local*uint32(k)+uint32(s))
		}
	}
	return segs
}

// BenchmarkUnionIDs times both unions on 4 round-robin segments, in ns per
// input ID.  The first ten shapes are setalgebra_fanout's — a 20 000-document
// span, from its median reply (2 IDs a shard) to its p99 (2 500) — where the
// bitmap is 2.5 KB and wins up to a span of ~500 × the IDs.  The rest are
// span/IDs ratios from 512 down to 8 over 2²⁴ documents, where the bitmap is
// 2 MB and no longer cache-resident: they are what fixes unionSpanFactor, since
// the rule must hold for any input (DESIGN §5.5.2 has the table).
func BenchmarkUnionIDs(b *testing.B) {
	const k = 4
	for _, shape := range []struct{ docs, perSeg int }{
		{20000, 2}, {20000, 5}, {20000, 10}, {20000, 20}, {20000, 40}, {20000, 80}, {20000, 160}, {20000, 250}, {20000, 1250}, {20000, 2500},
		{1 << 24, 1 << 13}, {1 << 24, 1 << 14}, {1 << 24, 1 << 15}, {1 << 24, 1 << 16}, {1 << 24, 1 << 17}, {1 << 24, 1 << 19},
	} {
		docs, perSeg := shape.docs, shape.perSeg
		segs := roundRobinSegs(rand.New(rand.NewSource(int64(perSeg))), k, perSeg, docs)
		var dst []uint32
		report := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k*perSeg), "ns/ID")
		}
		name := fmt.Sprintf("docs=%d/perSeg=%d/ratio=%d", docs, perSeg, docs/(k*perSeg))
		b.Run(name+"/tournament", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// The tournament reuses the run list it is handed.
				dst = unionTournament(dst[:0], append(make([][]uint32, 0, k), segs...), k*perSeg)
			}
			report(b)
		})
		b.Run(name+"/bitmap", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst = unionBitmap(dst[:0], segs, 0, docs, k*perSeg)
			}
			report(b)
		})
	}
}

// BenchmarkIntersectBitset times the dense-range bitset intersection against
// the galloping kernel on two lists covering half of a 64k-document range —
// the shape the span heuristic routes to the bitset.
func BenchmarkIntersectBitset(b *testing.B) {
	r := rand.New(rand.NewSource(13))
	build := func() *PostingList {
		ids := make([]uint32, 0, 32_000)
		for id := uint32(0); id < 64_000; id++ {
			if r.Intn(2) == 0 {
				ids = append(ids, id)
			}
		}
		return New(ids)
	}
	pa, pb := build(), build()
	b.Run("bitset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := Intersect2Bitset(pa, pb); got.Len() == 0 {
				b.Fatal("empty intersection")
			}
		}
	})
	b.Run("skip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := Intersect2Skip(pa, pb); got.Len() == 0 {
				b.Fatal("empty intersection")
			}
		}
	})
}
