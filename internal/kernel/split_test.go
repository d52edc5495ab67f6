package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"musuite/internal/telemetry"
)

// neighborsBitEqual is neighborsEqual on the distances' bit patterns, so a
// NaN equals itself and −0 does not equal +0.
func neighborsBitEqual(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float32bits(a[i].Distance) != math.Float32bits(b[i].Distance) {
			return false
		}
	}
	return true
}

// clusteredStore draws rows around a few centres, hdsearch's corpus in
// small: distances to a query spread over orders of magnitude, which is
// what gives a filter something to rule out (randStore's do not).
func clusteredStore(r *rand.Rand, n, dim, clusters int) (*Store, [][]float32) {
	centres := make([][]float32, clusters)
	for c := range centres {
		centres[c] = randQuery(r, dim)
	}
	data := make([]float32, 0, n*dim)
	for i := 0; i < n; i++ {
		for _, x := range centres[r.Intn(clusters)] {
			data = append(data, x+0.15*float32(r.NormFloat64()))
		}
	}
	s, err := FromFlat(data, dim)
	if err != nil {
		panic(err)
	}
	return s, centres
}

// TestSplitRoundTrip: (hi − lo>>15)<<16 | lo restores the element, for every
// upper half — each sign, exponent (zero, denormal, the largest finite, Inf,
// NaN) and top mantissa bits — against lower halves on both sides of the
// rounding point, where the carry runs into the exponent, the sign, or off
// the top.  Row reassembles in Go; where the assembly runs, dotRowsSplit must
// agree with dotSIMD over the fp32 row on every one of them, one pattern a
// row so that nothing masks it, in each of the 32 accumulator lanes.
func TestSplitRoundTrip(t *testing.T) {
	const dim = 32
	los := []uint32{0, 1, 0x7FFF, 0x8000, 0x8001, 0xFFFF, 0x1234, 0xBEEF}
	ones := make([]float32, dim)
	for i := range ones {
		ones[i] = 1
	}
	row := make([]float32, dim)
	const chunk = 1 << 10 // upper halves a store
	for base := uint32(0); base < 1<<16; base += chunk {
		data := make([]float32, chunk*len(los)*dim)
		for i := 0; i < chunk*len(los); i++ {
			bits := (base+uint32(i/len(los)))<<16 | los[i%len(los)]
			data[i*dim+i%dim] = math.Float32frombits(bits)
		}
		s, err := FromFlat(data, dim)
		if err != nil {
			t.Fatal(err)
		}
		sp := Split(s)
		if sp.Len() != s.Len() || sp.Dim() != dim || sp.Bytes() < s.Bytes() || sp.Bytes() > s.Bytes()+8*(s.Len()/64+1) {
			t.Fatalf("%d × %d split: %d × %d, %d bytes against %d", s.Len(), dim, sp.Len(), sp.Dim(), sp.Bytes(), s.Bytes())
		}
		ids := make([]uint32, s.Len())
		for i := range ids {
			ids[i] = uint32(i)
			for j, x := range sp.Row(i, row) {
				if want := s.Row(i)[j]; math.Float32bits(x) != math.Float32bits(want) {
					t.Fatalf("row %d element %d: %08x reassembled as %08x", i, j, math.Float32bits(want), math.Float32bits(x))
				}
			}
		}
		if !useSIMD {
			continue
		}
		// Batches of every length up to the look-ahead and past it.
		got := make([]float32, len(ids))
		for at, n := 0, 1; at < len(ids); at, n = at+n, n%11+1 {
			n = min(n, len(ids)-at)
			dotRowsSplit(&sp.hi[0], &sp.lo[0], dim, &ids[at], n, &ones[0], &got[at])
		}
		for i := range ids {
			if want := dotSIMD(&ones[0], &s.Row(i)[0], dim); math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("row %d (%08x in lane %d): dotRowsSplit %08x, dotSIMD %08x",
					i, math.Float32bits(s.Row(i)[i%dim]), i%dim, math.Float32bits(got[i]), math.Float32bits(want))
			}
		}
	}
}

// TestSplitIdenticalAtAnyWidth: planes, residuals and slack are the same bits
// however many participants lay the rows out (the store is large enough that
// ParallelFor really splits it, and ends mid-word), and each word's residual
// is the one summed from float64 differences — the float32 difference the
// layout takes is exact — on rows that include oddRows' values.
func TestSplitIdenticalAtAnyWidth(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s, _ := clusteredStore(r, 20001, 40, 6)
	oddRows(r, s)
	serial := split(s, 1)
	for w := range serial.resid {
		var resid float64
		for i := w * 64; i < min(w*64+64, s.n); i++ {
			var r2 float64
			for j, x := range s.Row(i) {
				e := float64(x) - float64(math.Float32frombits(uint32(serial.hi[i*s.dim+j])<<16))
				r2 += e * e
			}
			resid = max(resid, roundUp(math.Sqrt(r2)))
		}
		if got, want := math.Float32bits(serial.resid[w]), math.Float32bits(float32(resid)); got != want {
			t.Fatalf("word %d: residual %08x, from float64 differences %08x", w, got, want)
		}
	}
	for _, par := range []int{2, 8} {
		sp := split(s, par)
		if !slices.Equal(sp.hi, serial.hi) || !slices.Equal(sp.lo, serial.lo) {
			t.Fatalf("width %d: planes differ from the serial layout", par)
		}
		for w := range sp.resid {
			if math.Float32bits(sp.resid[w]) != math.Float32bits(serial.resid[w]) || math.Float32bits(sp.slack[w]) != math.Float32bits(serial.slack[w]) {
				t.Fatalf("width %d: word %d bounds (%v, %v), serial (%v, %v)", par, w, sp.resid[w], sp.slack[w], serial.resid[w], serial.slack[w])
			}
		}
	}
}

// TestSplitDotsEquivalence: over ordinary rows, at the widths on the
// assembly's edges and the ones that take the portable loop, the exact pass
// gives dot8's bits and the filter pass, its margins zeroed, bounds a row at
// (‖q‖² + ‖p‖²) − 2·q·p̂ — p̂ rebuilt here from the rounding rule — to within
// the float slack the bound allows for.
func TestSplitDotsEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	const rows = 300
	for _, dim := range append([]int{1, 7, 8, 31, 50, 72}, gatherDims...) {
		s := randStore(r, rows, dim)
		sp := Split(s)
		flat := *sp
		flat.resid, flat.slack = make([]float32, len(sp.resid)), make([]float32, len(sp.slack))
		q := randQuery(r, dim)
		f := newSplitScan(&flat, q, flat.hiQuery(q, make([]float32, dim))).f
		f.qs, f.qe = 0, 0
		row := make([]float32, dim)
		for _, n := range []int{1, 7, 8, 9, 255, 256} {
			ids := gatherIDs(r, n, rows)
			exact := make([]float32, n)
			for at := 0; at < n; at += refineBatch {
				sp.dots(q, ids[at:min(at+refineBatch, n)], exact[at:], row)
			}
			for i, id := range ids {
				if want := dot8(q, s.Row(int(id))); math.Float32bits(exact[i]) != math.Float32bits(want) {
					t.Fatalf("dim %d n %d: dots[%d] (row %d) = %x, dot8 = %x", dim, n, i, id, math.Float32bits(exact[i]), math.Float32bits(want))
				}
			}
			set := packRowSet(ids)
			kept, bound := filterAll(f, set, float32(math.Inf(1)), n)
			if !slices.Equal(kept, set.AppendIDs(nil)) {
				t.Fatalf("dim %d n %d: under +Inf the filter kept %v of %v", dim, n, kept, set.AppendIDs(nil))
			}
			for i, id := range kept {
				var dot, scale float64
				for j, x := range s.Row(int(id)) {
					rounded := math.Float32frombits((math.Float32bits(x) + 0x8000) &^ 0xFFFF)
					dot += float64(q[j]) * float64(rounded)
					scale += math.Abs(float64(q[j]) * float64(rounded))
				}
				sum := float64(f.qn) + float64(s.norms[id])
				if want := sum - 2*dot; math.Abs(float64(bound[i])-want) > (2*float64(2*dim+8)*scale+4*(sum+2*scale))*0x1p-24 {
					t.Fatalf("dim %d n %d: row %d bounded at %v, (‖q‖² + ‖p‖²) − 2·q·p̂ = %v", dim, n, id, bound[i], want)
				}
			}
		}
	}
}

// filterAll runs f's pass over set under thr, room rows a call, and returns
// what it kept.  f's kernel is whichever useSIMD picks.
func filterAll(f hiFilter, set RowSet, thr float32, room int) (kept []uint32, bound []float32) {
	f.words, f.masks, f.thr = set.Words, set.Masks, thr
	for {
		f.keep, f.bound, f.kept = make([]uint32, room), make([]float32, room), 0
		f.filter()
		kept, bound = append(kept, f.keep[:f.kept]...), append(bound, f.bound[:f.kept]...)
		if f.kept < room {
			return kept, bound
		}
	}
}

// TestSplitFilterContract: the filter pass's contract, held by the assembly
// and by its Go twin (useSIMD off), over random, clustered and oddRows
// stores at the assembly's edge widths and the paper's 2048, over sets that
// run past the store and have zero masks, with keep 1–8 rows or the whole
// set long and thresholds anywhere:
//
//	(i)   under +Inf each kernel keeps every row of the set the store has,
//	      once each, in order, and no finite bound is above its row's exact
//	      distance;
//	(ii)  under any threshold each kernel keeps exactly the rows whose bound
//	      it wrote under +Inf is not above it — so every row whose exact
//	      distance is within the threshold, or NaN — in order; a call that
//	      keeps fewer than keep's length has spent the set, and none writes
//	      past keep;
//	(iii) the two kernels' bounds fall on the same side of the threshold
//	      wherever they are farther from it than their rounding can move
//	      them;
//	(iv)  a pass that switches kernel at random from call to call — each
//	      resuming the other's cursor — keeps every row both keep, only rows
//	      one keeps, in order.
func TestSplitFilterContract(t *testing.T) {
	simd := useSIMD
	t.Cleanup(func() { useSIMD = simd })
	dims := []int{32, 40, 64, 72, 128, 2048}
	const sentinel = -12345
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := dims[r.Intn(len(dims))]
		rows := 1 + r.Intn(600*64/dim+10)
		var s *Store
		q := randQuery(r, dim)
		switch r.Intn(3) {
		case 0:
			s = randStore(r, rows, dim)
		case 1:
			var centres [][]float32
			s, centres = clusteredStore(r, rows, dim, 1+r.Intn(6))
			q = centres[0]
		default:
			s = randStore(r, rows, dim)
			oddRows(r, s)
			if r.Intn(3) == 0 {
				q = append([]float32(nil), s.Row(r.Intn(rows))...)
			}
		}
		sp := Split(s)
		var set RowSet
		density := 1 + r.Intn(8)
		for id := 0; id < rows+130; id++ { // past the store's last word too
			if r.Intn(density) == 0 {
				set.Add(uint32(id))
			}
		}
		for i := range set.Masks {
			if r.Intn(8) == 0 {
				set.Masks[i] = 0
			}
		}
		var want []uint32 // the set's rows the store has
		for _, id := range set.AppendIDs(nil) {
			if int(id) < rows {
				want = append(want, id)
			}
		}
		qn := dot8(q, q)
		exact := make([]float32, rows)
		for i := range exact {
			exact[i] = normFinish(qn, s.norms[i], dot8(q, s.Row(i)))
		}
		// Each kernel's pass, with the query in the order it multiplies.
		var twins [2]hiFilter
		for side, asm := range []bool{true, false} {
			useSIMD = asm && simd
			twins[side] = newSplitScan(sp, q, sp.hiQuery(q, make([]float32, dim))).f
			twins[side].words, twins[side].masks = set.Words, set.Masks
		}
		useSIMD = simd
		fail := func(format string, args ...any) bool {
			t.Logf("seed %d, %d × %d, %d rows of the set: %s", seed, rows, dim, len(want), fmt.Sprintf(format, args...))
			return false
		}
		// call runs one call of a kernel's pass under thr from the cursor
		// (next, m), with room rows of keep, and reports whether it wrote
		// past them.
		call := func(asm bool, thr float32, next int, m uint64, room int) (hiFilter, bool) {
			f := twins[0]
			if !asm {
				f = twins[1]
			}
			keep, bound := make([]uint32, room+1), make([]float32, room+1)
			keep[room], bound[room] = math.MaxUint32, sentinel
			f.thr, f.next, f.m, f.keep, f.bound, f.kept = thr, next, m, keep[:room], bound[:room], 0
			useSIMD = asm && simd
			f.filter()
			useSIMD = simd
			return f, keep[room] == math.MaxUint32 && bound[room] == sentinel
		}
		// pass runs a pass over the whole set, each call on the assembly
		// when asm says so.
		pass := func(thr float32, room int, asm func() bool) (kept []uint32, bound []float32, ok bool) {
			var f hiFilter
			for {
				var clean bool
				if f, clean = call(asm(), thr, f.next, f.m, room); !clean {
					return nil, nil, fail("wrote past keep")
				}
				kept, bound = append(kept, f.keep[:f.kept]...), append(bound, f.bound[:f.kept]...)
				if f.kept == room {
					continue
				}
				if f.next != len(f.words) || f.m != 0 {
					return nil, nil, fail("kept %d of %d and stopped at word %d, mask %x", f.kept, room, f.next, f.m)
				}
				return kept, bound, true
			}
		}
		always := func(b bool) func() bool { return func() bool { return b } }
		var bounds [2][]float32 // under +Inf: the assembly's, the twin's
		for side, asm := range []bool{true, false} {
			kept, bound, ok := pass(float32(math.Inf(1)), 1+r.Intn(refineBatch), always(asm))
			if !ok {
				return false
			}
			if !slices.Equal(kept, want) {
				return fail("assembly %v kept %v under +Inf", asm, kept)
			}
			for i, id := range kept {
				if b, e := bound[i], exact[id]; !math.IsNaN(float64(b)) && !math.IsInf(float64(b), 0) && e == e && b > e {
					return fail("assembly %v: row %d bounded at %v, above its exact distance %v", asm, id, b, e)
				}
			}
			bounds[side] = bound
		}
		for trial := 0; trial < 6; trial++ {
			var thr float32
			switch r.Intn(7) {
			case 0:
				thr = float32(math.NaN())
			case 1:
				thr = -1
			case 2:
				thr = maxFloat32
			case 3: // a bound itself: the row it bounds is kept
				if len(want) > 0 {
					thr = bounds[r.Intn(2)][r.Intn(len(want))]
				}
			default:
				if len(want) > 0 {
					thr = exact[want[r.Intn(len(want))]] * (1 + float32(r.NormFloat64())*0x1p-20)
				}
			}
			room := 1 + r.Intn(refineBatch)
			if r.Intn(4) == 0 {
				room = len(want) + 1
			}
			var keptBy [2]map[uint32]bool
			for side, asm := range []bool{true, false} {
				kept, _, ok := pass(thr, room, always(asm))
				if !ok {
					return false
				}
				var within []uint32
				for i, id := range want {
					if !(bounds[side][i] > thr) {
						within = append(within, id)
					} else if e := exact[id]; e <= thr || e != e {
						return fail("assembly %v: row %d (exact %v) bounded past %v at %v", asm, id, e, thr, bounds[side][i])
					}
				}
				if !slices.Equal(kept, within) {
					return fail("assembly %v under %v kept %v, the bounds say %v", asm, thr, kept, within)
				}
				keptBy[side] = map[uint32]bool{}
				for _, id := range kept {
					keptBy[side][id] = true
				}
			}
			for i, id := range want {
				ba, bg := float64(bounds[0][i]), float64(bounds[1][i])
				slack := float64(slackPerNorm(dim))*(float64(qn)+float64(s.norms[id])) + 0x1p-22*math.Abs(ba) + 0x1p-120
				if math.IsInf(slack, 0) || math.IsNaN(slack) || math.IsInf(ba, 0) || math.IsNaN(ba) || math.Abs(ba-float64(thr)) <= slack {
					continue
				}
				if (ba > float64(thr)) != (bg > float64(thr)) {
					return fail("row %d bounded at %v by the assembly and %v by Go, threshold %v, slack %v", id, ba, bg, thr, slack)
				}
			}
			mixed, _, ok := pass(thr, room, func() bool { return r.Intn(2) == 0 })
			if !ok {
				return false
			}
			at := 0
			for _, id := range want {
				both, either := keptBy[0][id] && keptBy[1][id], keptBy[0][id] || keptBy[1][id]
				if at < len(mixed) && mixed[at] == id {
					if !either {
						return fail("switching kernels kept row %d, which neither keeps", id)
					}
					at++
				} else if both {
					return fail("switching kernels dropped row %d, which both keep", id)
				}
			}
			if at != len(mixed) {
				return fail("switching kernels kept %v, not in row order", mixed)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestScanRowSetSplitEqualsScanRowSet: the scan over the planes answers what
// the scan over the fp32 block answers, bit for bit — IDs, distances, order —
// on sets of up to ~12 000 rows; at dims 32 / 64 / 128, 72 (an 8-element tail
// after the 32-element blocks) and widths that take the portable loop; with n not a multiple of 64 and words
// and bits past the store; k = 1, 5, 50 and more than there are candidates;
// over uniform stores, where nearly every row survives the filter, and
// clustered ones, where nearly none does.
func TestScanRowSetSplitEqualsScanRowSet(t *testing.T) {
	eng := New(Config{})
	dims := []int{32, 64, 72, 128, 50, 5}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := dims[r.Intn(len(dims))]
		rows := 1 + r.Intn(12288)
		if r.Intn(4) == 0 {
			rows = 1 + r.Intn(200)
		}
		var s *Store
		var q []float32
		if r.Intn(2) == 0 {
			s, q = randStore(r, rows, dim), randQuery(r, dim)
		} else {
			var centres [][]float32
			s, centres = clusteredStore(r, rows, dim, 1+r.Intn(6))
			q = centres[0]
			for i := 0; i < rows/16; i++ { // exact copies: distance ties
				copy(s.data[r.Intn(rows)*dim:][:dim], s.Row(r.Intn(rows)))
			}
			s.fillNorms()
		}
		sp := Split(s)
		var set RowSet
		density := 1 + r.Intn(12)
		for id := 0; id < rows+200; id++ { // the last 200 are past the store
			if r.Intn(density) == 0 {
				set.Add(uint32(id))
			}
		}
		set.Add(uint32(rows + 1<<20))
		for _, k := range []int{1, 5, 50, set.Count() + 3} {
			got, err := eng.ScanRowSetSplit(sp, q, set, k, nil)
			want, err2 := eng.ScanRowSet(s, q, set, k, nil)
			if err != nil || err2 != nil || !neighborsBitEqual(got, want) {
				t.Logf("seed %d: %d rows × %d, %d candidates, k %d: got %v (%v), want %v (%v)", seed, rows, dim, set.Count(), k, got, err, want, err2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// oddRows overwrites some rows of a store with the values a bound is most
// easily wrong about: signed zeros, denormals, alternating signs that cancel,
// norms that overflow, the largest finite value (whose rounding carries into
// the Inf exponent), and NaN and ±Inf themselves.
func oddRows(r *rand.Rand, s *Store) {
	tiny := math.Float32frombits(1)
	odd := [][]float32{
		{0, float32(math.Copysign(0, -1))},
		{tiny, -tiny, math.Float32frombits(0x007FFFFF), math.Float32frombits(0x00008000)},
		{3, -3, 1e-3, -1e-3},
		{1e19, -1e19, 2e19},
		{math.MaxFloat32, -math.MaxFloat32, math.Float32frombits(0x7F7F8000), 1},
		{float32(math.NaN()), 1, 2},
		{float32(math.Inf(1)), float32(math.Inf(-1)), 0.5},
		{1e-20, 1e20},
	}
	for c := 0; c < s.n/4+1; c++ {
		vals := odd[r.Intn(len(odd))]
		row := s.data[r.Intn(s.n)*s.dim:][:s.dim]
		for j := range row {
			if r.Intn(3) > 0 {
				row[j] = vals[r.Intn(len(vals))]
			}
		}
	}
	s.fillNorms()
}

// TestScanRowSetSplitOddValues: the same equality when a quarter of the rows
// are oddRows' and the query may be one too.  Where the bound cannot be
// trusted it is +Inf or NaN and the row is read exactly; a row whose exact
// distance is NaN or Inf is kept out of the answer by the same test that
// keeps it out of the fp32 scan's.
func TestScanRowSetSplitOddValues(t *testing.T) {
	eng := New(Config{})
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := []int{32, 64, 72, 50, 4}[r.Intn(5)]
		rows := 1 + r.Intn(600)
		s := randStore(r, rows, dim)
		oddRows(r, s)
		sp := Split(s)
		q := randQuery(r, dim)
		if r.Intn(3) == 0 {
			q = append([]float32(nil), s.Row(r.Intn(rows))...)
		}
		var set RowSet
		for id := 0; id < rows; id++ {
			if r.Intn(3) > 0 {
				set.Add(uint32(id))
			}
		}
		for _, k := range []int{1, 5, 50, rows + 1} {
			got, err := eng.ScanRowSetSplit(sp, q, set, k, nil)
			want, err2 := eng.ScanRowSet(s, q, set, k, nil)
			if err != nil || err2 != nil || !neighborsBitEqual(got, want) {
				t.Logf("seed %d: %d rows × %d, k %d: got %v (%v), want %v (%v)", seed, rows, dim, k, got, err, want, err2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestScanRowSetSplitFilters: on rows with structure the filter does its
// job — the exact pass reads a small part of what the scan scores — and the
// counters say so: kernel.points is the rows the store has (not the set's
// popcount: this set names rows past the store), kernel.refined the rows read
// twice.  One outlier row, or one that is not finite, costs its own word and
// no more.
func TestScanRowSetSplitFilters(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const rows, dim = 6000, 64
	s, centres := clusteredStore(r, rows, dim, 8)
	for j := range s.Row(100) {
		s.data[100*dim+j] = 1e6 * float32(r.NormFloat64())
		s.data[4000*dim+j] = float32(math.NaN())
	}
	s.fillNorms()
	sp := Split(s)
	var set RowSet
	for id := 0; id < rows+640; id++ {
		set.Add(uint32(id))
	}
	tab := telemetry.NewTable(nil)
	eng := New(Config{}).WithCounters(tab)
	q := centres[3]
	got, err := eng.ScanRowSetSplit(sp, q, set, 5, nil)
	want, _ := eng.ScanRowSet(s, q, set, 5, nil)
	if err != nil || !neighborsBitEqual(got, want) {
		t.Fatalf("got %v (%v), want %v", got, err, want)
	}
	points, refined := tab.Load(telemetry.KernelPoints), tab.Load(telemetry.KernelRefined)
	if points != 2*rows {
		t.Fatalf("%d points booked for two scans of the store's %d rows", points, rows)
	}
	if refined < 5 || refined > rows/10 {
		t.Fatalf("%d of %d rows read exactly", refined, rows)
	}
}

// TestScanRowSetSplitAllocs: as TestScanRowSetAllocs — the block, its bounds,
// the seed heap and the exact pass's batch live on the stack, the reordered
// query and the portable path's row in the pooled scratch — at every width:
// the assembly's (32, 64, 128, 256: past any fixed buffer) and the portable
// loop's (36), on a 1 000-row set and a 12 288-row one.
func TestScanRowSetSplitAllocs(t *testing.T) {
	if !poolsKeepPuts() {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	for _, c := range allocInputs {
		for _, dim := range []int{32, 36, 64, 128, 256} {
			r := rand.New(rand.NewSource(10))
			s, centres := clusteredStore(r, c.rows, dim, 4)
			sp := Split(s)
			var set RowSet
			for id := 0; id < c.rows; id += c.step {
				set.Add(uint32(id))
			}
			eng := New(Config{})
			dst := make([]Neighbor, 0, 16)
			scan := func() { dst, _ = eng.ScanRowSetSplit(sp, centres[1], set, 10, dst[:0]) }
			scan()
			if a := testing.AllocsPerRun(100, scan); a != 0 {
				t.Fatalf("dim %d, %d rows: steady-state ScanRowSetSplit allocates %v per scan", dim, set.Count(), a)
			}
		}
	}
}
