package postlist

import (
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
	if useBitset(empty, one) || useBitset(one, far) {
		t.Fatal("heuristic selected bitset for empty/disjoint lists")
	}
}

// TestIntersectBitsetHeuristic: dense overlaps take the bitset path, sparse
// huge spans don't.
func TestIntersectBitsetHeuristic(t *testing.T) {
	dense := New([]uint32{0, 1, 2, 3, 4, 5, 6, 7})
	if !useBitset(dense, dense) {
		t.Fatal("dense overlap rejected")
	}
	sparse := New([]uint32{0, 1 << 30})
	if useBitset(sparse, sparse) {
		t.Fatal("sparse span accepted")
	}
}

// mergeSortedScan is the k-way merge MergeSortedInto used to be — one pass
// over all k cursors to find the minimal head and another to advance every
// segment sitting on it, per output ID — kept as the oracle.
func mergeSortedScan(dst []uint32, segs [][]uint32) []uint32 {
	pos := make([]int, len(segs))
	for {
		best := -1
		var bestID uint32
		for s, seg := range segs {
			if pos[s] >= len(seg) {
				continue
			}
			if id := seg[pos[s]]; best == -1 || id < bestID {
				best, bestID = s, id
			}
		}
		if best == -1 {
			return dst
		}
		if len(dst) == 0 || dst[len(dst)-1] != bestID {
			dst = append(dst, bestID)
		}
		for s, seg := range segs {
			if pos[s] < len(seg) && seg[pos[s]] == bestID {
				pos[s]++
			}
		}
	}
}

// TestMergeSortedEquivalence: the tournament merge returns what the scan
// merge returns, for 0 to 9 segments, empty and nil ones among them, with
// IDs drawn from a range small enough that segments share many — and it
// appends after whatever dst already held.
func TestMergeSortedEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		segs := make([][]uint32, r.Intn(10))
		for s := range segs {
			switch r.Intn(6) {
			case 0: // leave a nil segment
			case 1:
				segs[s] = []uint32{}
			default:
				segs[s] = randList(r, 1+r.Intn(200), uint32(1+r.Intn(1000)))
			}
		}
		prefix := make([]uint32, r.Intn(3), 8)
		for i := range prefix {
			prefix[i] = math.MaxUint32 // no ID: the scan merge would dedupe against it
		}
		want := mergeSortedScan(slices.Clone(prefix), segs)
		got := MergeSortedInto(prefix, segs)
		if len(want) == 0 {
			return len(got) == 0
		}
		return slices.Equal(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeSortedIntoSteadyStateAllocatesNothing: once dst has grown to hold
// the merge's two regions, merging into it again allocates nothing.
func TestMergeSortedIntoSteadyStateAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	segs := make([][]uint32, 4)
	for s := range segs {
		segs[s] = randList(r, 500, 4000)
	}
	dst := MergeSortedInto(nil, segs)
	if allocs := testing.AllocsPerRun(20, func() { dst = MergeSortedInto(dst[:0], segs) }); allocs != 0 {
		t.Fatalf("%v allocations per merge into a warmed dst", allocs)
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
