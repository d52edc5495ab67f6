package kernel

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"musuite/internal/knn"
	"musuite/internal/telemetry"
	"musuite/internal/vec"
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

func neighborsEqual(a, b []knn.Neighbor) bool {
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

// TestTopKMatchesSelect: the streaming bounded heap selects exactly what the
// reference knn.Select selects, including its tie order — bit for bit.
func TestTopKMatchesSelect(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(500)
		k := 1 + r.Intn(20)
		cands := make([]knn.Neighbor, n)
		for i := range cands {
			// Coarse quantization manufactures duplicate distances.
			cands[i] = knn.Neighbor{
				ID:       uint32(r.Intn(n)),
				Distance: float32(r.Intn(32)) / 4,
			}
		}
		top := NewTopK(k)
		for _, c := range cands {
			top.Consider(c.ID, c.Distance)
		}
		got := top.AppendSorted(nil)
		want := knn.Select(cands, k)
		return neighborsEqual(got, want)
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
	want := []knn.Neighbor{{ID: 8, Distance: 1}, {ID: 7, Distance: 2}}
	if !neighborsEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// TestScanEquivalenceParallelSerial: chunked parallel scans return the exact
// neighbors of a serial scan — the shared per-pair arithmetic and total
// (distance, ID) order make the result independent of chunking.
func TestScanEquivalenceParallelSerial(t *testing.T) {
	serial := New(Config{Parallelism: 1})
	par := New(Config{Parallelism: 8})
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Past minParallelPoints so parallelFor actually chunks.
		n := minParallelPoints + r.Intn(3*chunkPoints)
		dim := 1 + r.Intn(40)
		k := 1 + r.Intn(16)
		s := randStore(r, n, dim)
		q := randQuery(r, dim)
		a, err1 := serial.Scan(s, q, k, nil)
		b, err2 := par.Scan(s, q, k, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		return neighborsEqual(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestScanEquivalenceScalar: the norm-trick engine agrees with the scalar
// diff-squared reference within float32 cancellation tolerance, rank by rank
// (IDs may swap across near-ties, distances may not drift).
func TestScanEquivalenceScalar(t *testing.T) {
	tuned := New(Config{Parallelism: 4})
	scalar := New(Config{ForceScalar: true})
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 200 + r.Intn(800)
		dim := 1 + r.Intn(64)
		k := 1 + r.Intn(10)
		s := randStore(r, n, dim)
		q := randQuery(r, dim)
		a, err1 := tuned.Scan(s, q, k, nil)
		b, err2 := scalar.Scan(s, q, k, nil)
		if err1 != nil || err2 != nil || len(a) != len(b) {
			return false
		}
		qn := dot8(q, q)
		for i := range a {
			// The documented bound: cancellation in ‖q‖²+‖p‖²−2·q·p is
			// proportional to the norms' magnitude, not the distance's.
			tol := 1e-4 * (qn + s.Norm2(int(a[i].ID)) + 1)
			if diff := a[i].Distance - b[i].Distance; diff > tol || diff < -tol {
				t.Logf("seed %d rank %d: tuned %v scalar %v tol %v", seed, i, a[i], b[i], tol)
				return false
			}
			ref := vec.SquaredEuclidean(q, s.Row(int(a[i].ID)))
			if diff := a[i].Distance - ref; diff > tol || diff < -tol {
				t.Logf("seed %d rank %d: reported %v recomputed %v", seed, i, a[i].Distance, ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestScanSubsetEquivalence: the subset scan matches both the serial engine
// and (via the scalar engine) the pre-engine knn.Subset reference bit for
// bit.  IDs include duplicates and out-of-range entries.
func TestScanSubsetEquivalence(t *testing.T) {
	serial := New(Config{Parallelism: 1})
	par := New(Config{Parallelism: 8})
	scalar := New(Config{ForceScalar: true})
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 300 + r.Intn(300)
		dim := 1 + r.Intn(32)
		k := 1 + r.Intn(10)
		s := randStore(r, n, dim)
		q := randQuery(r, dim)
		ids := make([]uint32, minParallelPoints+r.Intn(chunkPoints))
		for i := range ids {
			ids[i] = uint32(r.Intn(n + n/8)) // some out of range
		}
		a, err1 := serial.ScanSubset(s, q, ids, k, nil)
		b, err2 := par.ScanSubset(s, q, ids, k, nil)
		if err1 != nil || err2 != nil || !neighborsEqual(a, b) {
			return false
		}
		// Scalar engine == knn.Subset: same distances, same total order.
		vecs := make([]vec.Vector, n)
		for i := range vecs {
			vecs[i] = vec.Vector(s.Row(i))
		}
		c, err3 := scalar.ScanSubset(s, q, ids, k, nil)
		if err3 != nil {
			return false
		}
		return neighborsEqual(c, knn.Subset(q, vecs, ids, k))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestScanMultiEquivalence: the multi-query tile kernel returns exactly what
// per-query scans return.
func TestScanMultiEquivalence(t *testing.T) {
	eng := New(Config{Parallelism: 4})
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := minParallelPoints + r.Intn(chunkPoints)
		dim := 1 + r.Intn(24)
		k := 1 + r.Intn(8)
		nq := 1 + r.Intn(5)
		s := randStore(r, n, dim)
		queries := make([][]float32, nq)
		for i := range queries {
			queries[i] = randQuery(r, dim)
		}
		multi, err := eng.ScanMulti(s, queries, k)
		if err != nil {
			return false
		}
		for qi, q := range queries {
			single, err := eng.Scan(s, q, k, nil)
			if err != nil || !neighborsEqual(multi[qi], single) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestCosineEquivalence: the tile cosine kernel matches per-row scans bit
// for bit, and the tuned float32 path stays within tolerance of the float64
// reference arithmetic.
func TestCosineEquivalence(t *testing.T) {
	eng := New(Config{Parallelism: 4})
	scalar := New(Config{ForceScalar: true})
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
		multi, err := eng.CosineNeighborsMulti(s, rows, include, k)
		if err != nil {
			return false
		}
		for qi, row := range rows {
			single, err := eng.CosineNeighbors(s, row, include, k, nil)
			if err != nil || !neighborsEqual(multi[qi], single) {
				return false
			}
			ref, err := scalar.CosineNeighbors(s, row, include, k, nil)
			if err != nil || len(single) != len(ref) {
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

// TestParallelScanCoversEveryIndex: parallelFor visits each index exactly
// once whatever the parallelism and size.
func TestParallelScanCoversEveryIndex(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, chunkPoints - 1, minParallelPoints, minParallelPoints + 3*chunkPoints + 17} {
			visits := make([]atomic.Int32, n)
			parallelFor(par, n, func(_, lo, hi int) {
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

// TestParallelScanStress hammers one engine from many goroutines — run
// under -race this checks the scratch pooling and the helper pool, and every
// result must still equal the serial answer.
func TestParallelScanStress(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	const n, dim, k = 2 * minParallelPoints, 24, 8
	s := randStore(r, n, dim)
	queries := make([][]float32, 8)
	for i := range queries {
		queries[i] = randQuery(r, dim)
	}
	serial := New(Config{Parallelism: 1})
	want := make([][]knn.Neighbor, len(queries))
	for i, q := range queries {
		var err error
		want[i], err = serial.Scan(s, q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	tab := telemetry.NewTable(nil)
	eng := New(Config{Parallelism: 8}).WithCounters(tab)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []knn.Neighbor
			for iter := 0; iter < 50; iter++ {
				qi := (g + iter) % len(queries)
				var err error
				dst, err = eng.Scan(s, queries[qi], k, dst[:0])
				if err != nil {
					errs <- err
					return
				}
				if !neighborsEqual(dst, want[qi]) {
					t.Errorf("goroutine %d iter %d: parallel result diverged", g, iter)
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
	if _, err := BuildStore([]vec.Vector{{1, 2}, {3}}); err == nil {
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
	if _, err := New(Config{}).Scan(s, q, 1, nil); err != vec.ErrDimensionMismatch {
		t.Fatalf("dim mismatch not rejected: %v", err)
	}
}
