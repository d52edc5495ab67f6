package kernel

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"testing/quick"
	"unsafe"

	"musuite/internal/telemetry"
)

// randStore builds a deterministic random store.  A few rows are exact
// copies of earlier rows so distance ties are exercised, not just possible.
func randStore(r *rand.Rand, n, dim int) *Store {
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = float32(r.NormFloat64())
	}
	for c := 0; c < n/16; c++ {
		src, dst := r.Intn(n), r.Intn(n)
		copy(data[dst*dim:(dst+1)*dim], data[src*dim:(src+1)*dim])
	}
	s, err := FromFlat(data, dim)
	if err != nil {
		panic(err)
	}
	return s
}

func randQuery(r *rand.Rand, dim int) []float32 {
	q := make([]float32, dim)
	for i := range q {
		q[i] = float32(r.NormFloat64())
	}
	return q
}

func neighborsEqual(a, b []Neighbor) bool {
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

// nearRef reports whether got is the diff-squared reference's want within
// the documented bound, rank by rank: cancellation in ‖q‖²+‖p‖²−2·q·p is
// proportional to the norms' magnitude, not the distance's.  IDs may swap
// across near-ties; distances may not drift, from the reference's or from
// the reported row's own diff-squared distance.
func nearRef(t *testing.T, s *Store, q []float32, got, want []Neighbor) bool {
	if len(got) != len(want) {
		t.Logf("%d neighbours, reference %d", len(got), len(want))
		return false
	}
	qn := dot8(q, q)
	for i := range got {
		tol := 1e-4 * (qn + s.Norm2(int(got[i].ID)) + 1)
		if diff := got[i].Distance - want[i].Distance; diff > tol || diff < -tol {
			t.Logf("rank %d: engine %v reference %v tol %v", i, got[i], want[i], tol)
			return false
		}
		ref := SquaredEuclidean(q, s.Row(int(got[i].ID)))
		if diff := got[i].Distance - ref; diff > tol || diff < -tol {
			t.Logf("rank %d: reported %v recomputed %v", i, got[i].Distance, ref)
			return false
		}
	}
	return true
}

// TestTopKMatchesSelect: the streaming bounded heap selects exactly what a
// full sort selects, including its tie order — bit for bit — for every k from
// nothing to more than there are candidates.
func TestTopKMatchesSelect(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(500)
		k := r.Intn(22)
		cands := make([]Neighbor, n)
		for i := range cands {
			// Coarse quantization manufactures duplicate distances.
			cands[i] = Neighbor{
				ID:       uint32(r.Intn(n)),
				Distance: float32(r.Intn(32)) / 4,
			}
		}
		top := NewTopK(k)
		for _, c := range cands {
			top.Consider(c.ID, c.Distance)
		}
		return neighborsEqual(top.AppendSorted(nil), refSelect(cands, k))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKReset: a recycled heap behaves like a fresh one.
func TestTopKReset(t *testing.T) {
	top := NewTopK(3)
	for i := 0; i < 10; i++ {
		top.Consider(uint32(i), float32(10-i))
	}
	top.Reset(2)
	if top.Len() != 0 {
		t.Fatalf("Len after Reset = %d", top.Len())
	}
	top.Consider(7, 2)
	top.Consider(8, 1)
	top.Consider(9, 3)
	got := top.AppendSorted(nil)
	want := []Neighbor{{ID: 8, Distance: 1}, {ID: 7, Distance: 2}}
	if !neighborsEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// TestTopKBoundedAtNothing: k ≤ 0 is reachable from the wire (a leaf request
// may name it, and a scan clamps k to an empty candidate list); such a heap
// admits nothing and its threshold says so instead of reading an empty heap.
func TestTopKBoundedAtNothing(t *testing.T) {
	for _, k := range []int{0, -5} {
		top := NewTopK(k)
		if thr := top.Threshold(); thr >= 0 {
			t.Fatalf("k=%d: threshold %v would admit a distance", k, thr)
		}
		top.Consider(1, 0)
		if got := top.AppendSorted(nil); len(got) != 0 {
			t.Fatalf("k=%d: kept %v", k, got)
		}
	}
	eng := New(Config{})
	s := randStore(rand.New(rand.NewSource(3)), 50, 64)
	for _, ids := range [][]uint32{nil, {1, 2, 3}} {
		got, err := eng.ScanSubset(s, s.Row(0), ids, 0, nil)
		if err != nil || len(got) != 0 {
			t.Fatalf("ScanSubset(k=0, %v) = %v, %v", ids, got, err)
		}
	}
	if got, err := eng.ScanSubset(s, s.Row(0), nil, 5, nil); err != nil || len(got) != 0 {
		t.Fatalf("ScanSubset over no candidates = %v, %v", got, err)
	}
}

// TestScanEquivalenceScalar: the norm-trick engine agrees with the scalar
// diff-squared reference within float32 cancellation tolerance (nearRef).
func TestScanEquivalenceScalar(t *testing.T) {
	tuned := New(Config{})
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 200 + r.Intn(800)
		dim := 1 + r.Intn(64)
		k := 1 + r.Intn(10)
		s := randStore(r, n, dim)
		q := randQuery(r, dim)
		got, err := tuned.Scan(s, q, k, nil)
		if err != nil || !nearRef(t, s, q, got, refScan(s, q, k)) {
			t.Logf("seed %d", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestScanSubsetEquivalence: the subset scan matches the diff-squared
// reference within nearRef's bound.  IDs include duplicates and out-of-range
// entries.
func TestScanSubsetEquivalence(t *testing.T) {
	eng := New(Config{})
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 300 + r.Intn(300)
		dim := 1 + r.Intn(32)
		k := 1 + r.Intn(10)
		s := randStore(r, n, dim)
		q := randQuery(r, dim)
		ids := make([]uint32, 4096+r.Intn(1024))
		for i := range ids {
			ids[i] = uint32(r.Intn(n + n/8)) // some out of range
		}
		a, err := eng.ScanSubset(s, q, ids, k, nil)
		if err != nil {
			return false
		}
		return nearRef(t, s, q, a, refScanSubset(s, q, ids, k))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestCosineEquivalence: the tuned float32 cosine path stays within tolerance
// of the float64 reference arithmetic.
func TestCosineEquivalence(t *testing.T) {
	eng := New(Config{})
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 100 + r.Intn(200)
		dim := 1 + r.Intn(16)
		k := 1 + r.Intn(10)
		s := randStore(r, n, dim)
		include := make([]bool, n)
		for i := range include {
			include[i] = r.Intn(8) != 0
		}
		rows := make([]int, 2+r.Intn(4))
		for i := range rows {
			rows[i] = r.Intn(n)
		}
		for _, row := range rows {
			single, err := eng.CosineNeighbors(s, row, include, k, nil)
			if err != nil {
				return false
			}
			ref := refCosineNeighbors(s, row, include, k)
			if len(single) != len(ref) {
				return false
			}
			for i := range single {
				const tol = 1e-4
				if diff := single[i].Distance - ref[i].Distance; diff > tol || diff < -tol {
					t.Logf("seed %d row %d rank %d: tuned %v ref %v", seed, row, i, single[i], ref[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelScanCoversEveryIndex: ParallelFor visits each index exactly
// once whatever the parallelism and size.
func TestParallelScanCoversEveryIndex(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, chunkPoints - 1, minParallelPoints, minParallelPoints + 3*chunkPoints + 17} {
			visits := make([]atomic.Int32, n)
			ParallelFor(par, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
				}
			})
			for i := range visits {
				if c := visits[i].Load(); c != 1 {
					t.Fatalf("par=%d n=%d: index %d visited %d times", par, n, i, c)
				}
			}
		}
	}
}

// TestParallelScanStress hammers one engine from many goroutines at once —
// run under -race this checks the scratch pooling and the shared counter
// table, and every result must still equal the one-goroutine answer.
func TestParallelScanStress(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	const n, dim, k = 8192, 24, 8
	s := randStore(r, n, dim)
	queries := make([][]float32, 8)
	for i := range queries {
		queries[i] = randQuery(r, dim)
	}
	want := make([][]Neighbor, len(queries))
	for i, q := range queries {
		var err error
		want[i], err = Default().Scan(s, q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	tab := telemetry.NewTable(nil)
	eng := New(Config{}).WithCounters(tab)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []Neighbor
			for iter := 0; iter < 50; iter++ {
				qi := (g + iter) % len(queries)
				var err error
				dst, err = eng.Scan(s, queries[qi], k, dst[:0])
				if err != nil {
					errs <- err
					return
				}
				if !neighborsEqual(dst, want[qi]) {
					t.Errorf("goroutine %d iter %d: result diverged", g, iter)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// 8 goroutines × iters scans of all n rows, each booked exactly once.
	if scans := tab.Load(telemetry.KernelScans); scans == 0 || tab.Load(telemetry.KernelPoints) != scans*n {
		t.Fatalf("engine counters not accounted: %d scans, %d points (n=%d)", scans, tab.Load(telemetry.KernelPoints), n)
	}
}

// TestStoreValidation: ragged builds are rejected; conversions round-trip.
func TestStoreValidation(t *testing.T) {
	if _, err := BuildStore([][]float32{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged corpus accepted")
	}
	if _, err := FromFlat(make([]float32, 7), 2); err == nil {
		t.Fatal("non-multiple flat length accepted")
	}
	s, err := FromFloat64([]float64{1, 2, 3, 4, 5, 6}, 3)
	if err != nil || s.Len() != 2 || s.Dim() != 3 {
		t.Fatalf("FromFloat64: %v len=%d dim=%d", err, s.Len(), s.Dim())
	}
	if got := s.Row(1); !reflect.DeepEqual(got, []float32{4, 5, 6}) {
		t.Fatalf("Row(1) = %v", got)
	}
	q := []float32{1, 2} // wrong dim
	if _, err := New(Config{}).Scan(s, q, 1, nil); err != ErrDimensionMismatch {
		t.Fatalf("dim mismatch not rejected: %v", err)
	}
}

// --- the gather kernel ---

// gatherDims are row widths on both sides of every dispatch edge in distRows
// and dotRows: exactly one 32-block, a 32-block plus an 8-block, whole
// 32-blocks only, and (200) a width whose rows never sit on a cache-line
// boundary.  All are ≥ 32 and multiples of 8, so on an AVX2 host they take
// the assembly; elsewhere the same tests pin the portable loop.
var gatherDims = []int{32, 40, 64, 96, 128, 200}

// gatherIDs is n row IDs of an rows-row store that include the first row, the
// last row and repeats — the edges an address computation gets wrong.
func gatherIDs(r *rand.Rand, n, rows int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		switch r.Intn(8) {
		case 0:
			ids[i] = 0
		case 1:
			ids[i] = uint32(rows - 1)
		case 2:
			if i > 0 {
				ids[i] = ids[i-1]
				break
			}
			fallthrough
		default:
			ids[i] = uint32(r.Intn(rows))
		}
	}
	return ids
}

// TestDotRowsEquivalence: the gather primitive computes, for every listed
// row, the very float dot8 computes — same accumulator order, so the same
// bits — whatever the width, the block length or the rows' order; and so the
// distances distRows derives from it are normDist's.
func TestDotRowsEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const rows = 300
	for _, dim := range gatherDims {
		s := randStore(r, rows, dim)
		q := randQuery(r, dim)
		qn := dot8(q, q)
		for _, n := range []int{0, 1, 7, 255, 256, 257, 5000} {
			ids := gatherIDs(r, n, rows)
			got := make([]float32, n)
			distRows(s, q, qn, ids, got)
			for i, id := range ids {
				if want := normDist(q, qn, s.Row(int(id)), s.norms[id]); math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Fatalf("dim %d n %d: distRows[%d] (row %d) = %x, normDist = %x", dim, n, i, id, math.Float32bits(got[i]), math.Float32bits(want))
				}
			}
			if !useSIMD || n == 0 {
				continue
			}
			dotRows(&s.data[0], dim, &ids[0], n, &q[0], &got[0])
			for i, id := range ids {
				if want := dot8(q, s.Row(int(id))); math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Fatalf("dim %d n %d: dotRows[%d] (row %d) = %x, dot8 = %x", dim, n, i, id, math.Float32bits(got[i]), math.Float32bits(want))
				}
			}
		}
	}
}

// TestProjectEquivalence: Project writes, plane for plane, Dot's bits — at
// widths below, on and off the vector kernel's blocks, for blocks of planes
// that are and are not whole groups of eight, from any first plane, and for
// a v holding NaN, ±Inf, zeros of both signs and magnitudes whose products
// overflow (the planes' values are finite, as random hyperplanes are).
func TestProjectEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	odd := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)), 3e38, -3e38, 1e-40}
	for _, dim := range []int{1, 7, 8, 16, 31, 32, 36, 40, 64, 72, 96, 100, 128, 136} {
		planes := randStore(r, 120, dim)
		for trial := 0; trial < 4; trial++ {
			v := randQuery(r, dim)
			switch trial {
			case 1:
				v[r.Intn(dim)] = odd[r.Intn(len(odd))]
			case 2:
				clear(v)
			case 3:
				for i := range v {
					v[i] *= 1e37
				}
			}
			for _, n := range []int{0, 1, 7, 8, 9, 12, 16, 17, 96, 120} {
				first := r.Intn(120 - n + 1)
				out := make([]float32, n+1)
				out[n] = 42 // past the block: untouched
				Project(planes, first, v, out[:n])
				for i := 0; i < n; i++ {
					if got, want := math.Float32bits(out[i]), math.Float32bits(Dot(planes.Row(first+i), v)); got != want {
						t.Fatalf("dim %d trial %d: %d planes from %d: plane %d projects to %08x, Dot %08x", dim, trial, n, first, i, got, want)
					}
				}
				if out[n] != 42 {
					t.Fatalf("dim %d: %d planes: wrote past the block", dim, n)
				}
			}
		}
	}
}

// TestNonNegative: the sign pattern is x[i] >= 0's, bit for bit, at every
// length to 64, for signed zeros, NaNs of both signs and infinities too.
func TestNonNegative(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	odd := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), math.Float32frombits(0xFFC00001),
		float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(1), math.Float32frombits(0x80000001)}
	for n := 0; n <= 64; n++ {
		for trial := 0; trial < 20; trial++ {
			x := make([]float32, n)
			var want uint64
			for i := range x {
				if x[i] = float32(r.NormFloat64()); r.Intn(3) == 0 {
					x[i] = odd[r.Intn(len(odd))]
				}
				if x[i] >= 0 {
					want |= 1 << i
				}
			}
			if got := NonNegative(x); got != want {
				t.Fatalf("%d values %v: %x, want %x", n, x, got, want)
			}
		}
	}
}

// TestDotRowsEquivalenceAtGuardPage: the look-ahead reads ids[i+rowsAhead]
// only after comparing that index with n.  The ID list here ends on the last
// bytes of a mapped page and the next page is PROT_NONE, so a kernel that
// read ids[n] — to prefetch a row it will never reduce — would fault rather
// than pass.  Lengths run from one ID to past a full subset block.
func TestDotRowsEquivalenceAtGuardPage(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	onPage := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), page/4)
	r := rand.New(rand.NewSource(8))
	const rows, dim = 300, 64
	s := randStore(r, rows, dim)
	q := randQuery(r, dim)
	qn := dot8(q, q)
	for _, n := range []int{1, 2, 7, 12, 13, 255, 256, 257, page / 4} {
		ids := onPage[len(onPage)-n:]
		copy(ids, gatherIDs(r, n, rows))
		got := make([]float32, n)
		distRows(s, q, qn, ids, got)
		for i, id := range ids {
			if want := normDist(q, qn, s.Row(int(id)), s.norms[id]); got[i] != want {
				t.Fatalf("n %d: distRows[%d] = %v, normDist = %v", n, i, got[i], want)
			}
		}
	}
}

// TestDistManyEquivalence: DistMany appends, pair for pair, what DistAt
// returns, after whatever dst already held.
func TestDistManyEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := gatherDims[r.Intn(len(gatherDims))]
		if r.Intn(4) == 0 {
			dim = 1 + r.Intn(70) // ragged and short widths: the portable loop
		}
		rows := 1 + r.Intn(200)
		s := randStore(r, rows, dim)
		q := randQuery(r, dim)
		qn := dot8(q, q)
		ids := gatherIDs(r, r.Intn(70), rows)
		dst := DistMany(s, q, qn, ids, []float32{-1, -2})
		if len(dst) != 2+len(ids) || dst[0] != -1 || dst[1] != -2 {
			return false
		}
		for i, id := range ids {
			if math.Float32bits(dst[2+i]) != math.Float32bits(DistAt(s, q, qn, int(id))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestScanSubsetScanEquivalence: a subset scan returns exactly the full
// scan's ranking restricted to the subset — the gather and the streaming loop
// agree bit for bit — with out-of-range IDs mixed into the blocks and
// skipped, at widths that take the assembly.
func TestScanSubsetScanEquivalence(t *testing.T) {
	eng := New(Config{})
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := gatherDims[r.Intn(len(gatherDims))]
		rows := 200 + r.Intn(1200)
		k := 1 + r.Intn(12)
		s := randStore(r, rows, dim)
		q := randQuery(r, dim)
		in := make(map[uint32]bool)
		var ids []uint32
		for id := 0; id < rows; id++ {
			if r.Intn(3) == 0 {
				ids = append(ids, uint32(id))
				in[uint32(id)] = true
			}
			if r.Intn(9) == 0 {
				ids = append(ids, uint32(rows+r.Intn(1<<20)))
			}
		}
		got, err := eng.ScanSubset(s, q, ids, k, nil)
		if err != nil {
			return false
		}
		all, err := eng.Scan(s, q, rows, nil)
		if err != nil {
			return false
		}
		var want []Neighbor
		for _, nb := range all {
			if in[nb.ID] && len(want) < k {
				want = append(want, nb)
			}
		}
		return neighborsEqual(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestScanSubsetBoundsK: k arrives off the wire and sizes the heap, so a
// request naming 2⁴⁰ neighbours gets every candidate, sorted, from a heap no
// larger than the candidate list — not an 8 TB make.  A full scan is bounded
// by the store's rows the same way.
func TestScanSubsetBoundsK(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	s := randStore(r, 500, 64)
	q := randQuery(r, 64)
	ids := []uint32{3, 77, 78, 400, 499, 9999}
	eng := New(Config{})
	got, err := eng.ScanSubset(s, q, ids, 1<<40, nil)
	if err != nil || !neighborsEqual(got, refSelect(got, len(got))) {
		t.Fatalf("ScanSubset: %v, %v", got, err)
	}
	if len(got) != len(ids)-1 {
		t.Fatalf("k = 1<<40 over %d in-range candidates returned %d", len(ids)-1, len(got))
	}
	all, err := eng.Scan(s, q, 1<<40, nil)
	if err != nil || len(all) != s.Len() || !neighborsEqual(all, refSelect(all, len(all))) {
		t.Fatalf("Scan with k = 1<<40 over %d rows: %d neighbours, %v", s.Len(), len(all), err)
	}
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

// allocInputs are the candidate shapes the allocation pins scan: every third
// row of 3 000, and 12 288 rows together.
var allocInputs = []struct{ rows, step int }{{3000, 3}, {12288, 1}}

// TestScanSubsetAllocs: a steady-state subset scan allocates nothing — the
// ID block and its distances are on the stack, the heap pooled — on small
// candidate lists and large ones alike.
func TestScanSubsetAllocs(t *testing.T) {
	if !poolsKeepPuts() {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	for _, c := range allocInputs {
		r := rand.New(rand.NewSource(10))
		s := randStore(r, c.rows, 64)
		q := randQuery(r, 64)
		var ids []uint32
		for id := 0; id < c.rows; id += c.step {
			ids = append(ids, uint32(id))
		}
		eng := New(Config{})
		dst := make([]Neighbor, 0, 16)
		scan := func() { dst, _ = eng.ScanSubset(s, q, ids, 10, dst[:0]) }
		scan()
		if a := testing.AllocsPerRun(100, scan); a != 0 {
			t.Fatalf("%d candidates: steady-state ScanSubset allocates %v per scan", len(ids), a)
		}
	}
}

// --- row sets ---

// packRowSet is the set a list names.
func packRowSet(ids []uint32) RowSet {
	var set RowSet
	set.Add(ids...)
	return set
}

// TestRowSetForm: Add packs a list in any order, with repeats, into the one
// set it names — words strictly ascending, no zero mask — AppendIDs is its
// inverse on ascending lists, and Collect reads the same set off a dense
// bitmap, leaving it zero.
func TestRowSetForm(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(5000)
		var want []uint32
		dense := make([]uint64, (rows+63)/64)
		for id := 0; id < rows; id++ {
			if r.Intn(1+r.Intn(40)) == 0 {
				want = append(want, uint32(id))
				dense[id>>6] |= 1 << (id & 63)
			}
		}
		shuffled := append(slices.Clone(want), want[:len(want)/2]...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		inOrder, anyOrder := packRowSet(want), packRowSet(shuffled)
		collected := RowSet{Words: []uint32{9, 3}, Masks: []uint64{0}} // stale, malformed: Collect resets
		collected.Collect(dense)
		for _, w := range dense {
			if w != 0 {
				return false
			}
		}
		for _, set := range []RowSet{inOrder, anyOrder, collected} {
			if len(set.Words) != len(set.Masks) || set.Count() != len(want) || !slices.Equal(set.AppendIDs(nil), want) {
				return false
			}
			for i, w := range set.Words {
				if set.Masks[i] == 0 || (i > 0 && w <= set.Words[i-1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestScanRowSetEqualsScanSubset: scan(pack(ids)) ≡ ScanSubset(ids), bit for
// bit — on sets of up to ~12 000 rows, at dims that take the assembly and
// dims that do not, with n not a multiple of 64 and with words and bits past
// the store — and the row-set reference within nearRef's bound.
func TestScanRowSetEqualsScanSubset(t *testing.T) {
	eng := New(Config{})
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(31) // the per-row loop; else a width on the assembly's edges
		if i := r.Intn(len(gatherDims) + 1); i < len(gatherDims) {
			dim = gatherDims[i]
		}
		rows := 1 + r.Intn(12288)
		if r.Intn(4) == 0 {
			rows = 1 + r.Intn(200)
		}
		k := 1 + r.Intn(12)
		s := randStore(r, rows, dim)
		q := randQuery(r, dim)
		var ids []uint32
		density := 1 + r.Intn(12)
		for id := 0; id < rows+200; id++ { // the last 200 are past the store
			if r.Intn(density) == 0 {
				ids = append(ids, uint32(id))
			}
		}
		ids = append(ids, uint32(rows+1<<20))
		set := packRowSet(ids)
		got, err := eng.ScanRowSet(s, q, set, k, nil)
		want, err2 := eng.ScanSubset(s, q, ids, k, nil)
		if err != nil || err2 != nil || !neighborsEqual(got, want) {
			t.Logf("seed %d: %d rows × %d, %d ids: got %v (%v), want %v (%v)", seed, rows, dim, len(ids), got, err, want, err2)
			return false
		}
		return nearRef(t, s, q, got, refScanRowSet(s, q, set, k))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestScanRowSetContract: unequal word and mask counts are an error, k is
// clamped to the set's count (2⁴⁰ is not an 8 TB make), k ≤ 0 and an empty or
// all-zero set answer nothing — a set that ends on a full block and an empty
// store, asked with a query of any length, included — and the counters see
// the rows scored, not the rows a set names past the store.  One contract,
// both forms of the rows.
func TestScanRowSetContract(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	s := randStore(r, 500, 64) // words 0–7, the last 52 rows wide
	q := randQuery(r, 64)
	// over scans the store, or an empty one, in the form under test.
	for name, over := range map[string]func(*Store) func(*Engine, []float32, RowSet, int) ([]Neighbor, error){
		"fp32": func(s *Store) func(*Engine, []float32, RowSet, int) ([]Neighbor, error) {
			return func(e *Engine, q []float32, set RowSet, k int) ([]Neighbor, error) {
				return e.ScanRowSet(s, q, set, k, nil)
			}
		},
		"split": func(s *Store) func(*Engine, []float32, RowSet, int) ([]Neighbor, error) {
			sp := Split(s)
			return func(e *Engine, q []float32, set RowSet, k int) ([]Neighbor, error) {
				return e.ScanRowSetSplit(sp, q, set, k, nil)
			}
		},
	} {
		scan, scanEmpty := over(s), over(&Store{dim: 64})
		tab := telemetry.NewTable(nil)
		eng := New(Config{}).WithCounters(tab)
		if _, err := scan(eng, q, RowSet{Words: []uint32{1, 2}, Masks: []uint64{1}}, 3); !errors.Is(err, ErrRowSetShape) {
			t.Fatalf("%s: 2 words, 1 mask: err %v", name, err)
		}
		if _, err := scan(eng, q[:5], RowSet{}, 3); !errors.Is(err, ErrDimensionMismatch) {
			t.Fatalf("%s: short query: err %v", name, err)
		}
		ids := []uint32{3, 77, 78, 400, 499}
		got, err := scan(eng, q, packRowSet(append(ids, 500, 511, 9999)), 1<<40)
		if err != nil || len(got) != len(ids) {
			t.Fatalf("%s: k = 1<<40 over %d rows of the store returned %d, %v", name, len(ids), len(got), err)
		}
		if points := tab.Load(telemetry.KernelPoints); points != uint64(len(ids)) {
			t.Fatalf("%s: accounted %d points for the %d rows of the set the store has", name, points, len(ids))
		}
		full := ^uint64(0)
		for _, c := range []struct {
			set RowSet
			k   int
		}{
			{packRowSet(ids), 0}, {packRowSet(ids), -4}, {RowSet{}, 5}, {RowSet{Words: []uint32{0, 7}, Masks: []uint64{0, 0}}, 5},
			{RowSet{Words: []uint32{0, 1, 2, 3}, Masks: []uint64{full, full, full, full}}, -1}, // ends on a full block
		} {
			if got, err := scan(eng, q, c.set, c.k); err != nil || len(got) != 0 {
				t.Fatalf("%s(%v, k=%d) = %v, %v", name, c.set, c.k, got, err)
			}
		}
		// An empty store takes a query of any length: no row holds it to one.
		for _, q := range [][]float32{nil, q[:8], q[:15], q} {
			if got, err := scanEmpty(eng, q, packRowSet(ids), 3); err != nil || len(got) != 0 {
				t.Fatalf("%s over an empty store, %d-float query: %v, %v", name, len(q), got, err)
			}
		}
	}
}

// TestScanRowSetAllocs: as TestScanSubsetAllocs — the expansion block is on
// the stack too.
func TestScanRowSetAllocs(t *testing.T) {
	if !poolsKeepPuts() {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	for _, c := range allocInputs {
		r := rand.New(rand.NewSource(10))
		s := randStore(r, c.rows, 64)
		q := randQuery(r, 64)
		var set RowSet
		for id := 0; id < c.rows; id += c.step {
			set.Add(uint32(id))
		}
		eng := New(Config{})
		dst := make([]Neighbor, 0, 16)
		scan := func() { dst, _ = eng.ScanRowSet(s, q, set, 10, dst[:0]) }
		scan()
		if a := testing.AllocsPerRun(100, scan); a != 0 {
			t.Fatalf("%d rows: steady-state ScanRowSet allocates %v per scan", set.Count(), a)
		}
	}
}

// --- the scoring hop's located microbenchmark ---

// gatherBench is hdsearch_lsh's leaf-side shape: four shard stores of
// 25 000 × 64 (25 MB of rows together, past L2 and most of L3) and 512
// candidate lists per store of ~2 200 strictly ascending IDs each, so
// consecutive requests touch different rows and L2 cannot hold them.
type gatherBench struct {
	stores  []*Store
	planes  []*SplitStore
	queries [][]float32
	ids     [][][]uint32 // [set][store] → ascending local IDs
	sets    [][]RowSet   // the same candidates, packed
}

var (
	gatherOnce sync.Once
	gather     gatherBench
)

func gatherFixture() *gatherBench {
	gatherOnce.Do(func() {
		const stores, rows, dim, sets, density = 4, 25000, 64, 512, 0.088
		r := rand.New(rand.NewSource(21))
		for s := 0; s < stores; s++ {
			st := randStore(r, rows, dim)
			gather.stores, gather.planes = append(gather.stores, st), append(gather.planes, Split(st))
		}
		for i := 0; i < sets; i++ {
			gather.queries = append(gather.queries, randQuery(r, dim))
			perStore := make([][]uint32, stores)
			for s := range perStore {
				for id := 0; id < rows; id++ {
					if r.Float64() < density {
						perStore[s] = append(perStore[s], uint32(id))
					}
				}
			}
			gather.ids = append(gather.ids, perStore)
			packed := make([]RowSet, stores)
			for s, ids := range perStore {
				packed[s] = packRowSet(ids)
			}
			gather.sets = append(gather.sets, packed)
		}
	})
	return &gather
}

// BenchmarkScanSubsetGather reports, as ns/point, the numbers the scoring hop
// is judged by: "gather" is ScanSubset at the workload's shape; "rowset" is
// ScanRowSet over the same candidates packed — uniformly scattered here, ~5.6
// rows a word, so mask expansion at its least amortised (the service's sets
// are ~30 a word; hdsearch's "ordered-rowset" shape has those); "split" is
// ScanRowSetSplit over the same sets and the stores' planes, with the rows a
// scan (one store) read exactly — few even here, where rows are independent
// Gaussians: the bound is ~0.1 wide and their distances spread over tens
// (hdsearch's "ordered-split" shape has the service's rows); "stream" is a
// sequential Scan of the same stores, the rate this host delivers 256 B rows
// from beyond L2 — the floor a gather can approach but not beat; "resident"
// is a Scan of a 2 000-row store that stays in L2, the compute floor under
// both.  One op is one request: all four stores.
func BenchmarkScanSubsetGather(b *testing.B) {
	f := gatherFixture()
	eng := New(Config{})
	const k = 10
	var dst []Neighbor
	b.Run("gather", func(b *testing.B) {
		points := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			set := i % len(f.ids)
			for s, st := range f.stores {
				dst, _ = eng.ScanSubset(st, f.queries[set], f.ids[set][s], k, dst[:0])
				points += len(f.ids[set][s])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
	})
	b.Run("rowset", func(b *testing.B) {
		points := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			set := i % len(f.sets)
			for s, st := range f.stores {
				dst, _ = eng.ScanRowSet(st, f.queries[set], f.sets[set][s], k, dst[:0])
				points += len(f.ids[set][s])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
	})
	b.Run("split", func(b *testing.B) {
		tab := telemetry.NewTable(nil)
		eng := eng.WithCounters(tab)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			set := i % len(f.sets)
			for s, sp := range f.planes {
				dst, _ = eng.ScanRowSetSplit(sp, f.queries[set], f.sets[set][s], k, dst[:0])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tab.Load(telemetry.KernelPoints)), "ns/point")
		b.ReportMetric(float64(tab.Load(telemetry.KernelRefined))/float64(tab.Load(telemetry.KernelScans)), "re-reads/scan")
	})
	b.Run("stream", func(b *testing.B) {
		points := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, st := range f.stores {
				dst, _ = eng.Scan(st, f.queries[i%len(f.queries)], k, dst[:0])
				points += st.Len()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
	})
	b.Run("resident", func(b *testing.B) {
		small := randStore(rand.New(rand.NewSource(22)), 2000, 64)
		points := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst, _ = eng.Scan(small, f.queries[i%len(f.queries)], k, dst[:0])
			points += small.Len()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
	})
}
