package kernel

import (
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"musuite/internal/knn"
	"musuite/internal/telemetry"
	"musuite/internal/vec"
)

// SplitStore is a Store's rows as two 16-bit planes (DESIGN §5.5 "Row
// bytes").  Plane hi holds each element's upper half rounded to nearest — a
// bfloat16, p̂ — and plane lo the element's own lower half, so
//
//	bits(p) = (hi − lo>>15)<<16 | lo
//
// restores every bit pattern and the two planes together are the fp32
// block's bytes, not a copy beside it.  A scan streams hi alone — half the
// bytes a row — for d̃ = ‖q‖²+‖p‖²−2·q·p̂ and reads lo only for rows that
//
//	d̃ − 2·‖q‖·‖p − p̂‖ − (float slack) ≤ (the heap's k-th distance)
//
// cannot rule out: |d − d̃| = 2·|q·(p − p̂)| ≤ 2·‖q‖·‖p − p̂‖ by
// Cauchy–Schwarz, so a row the test skips has an exact distance past the
// heap's.  The residual norm is kept per 64-row word, so one outlier row
// loosens its own word and not the store.
type SplitStore struct {
	hi, lo []uint16
	norms  []float32 // the Store's: ‖row‖² of the fp32 row
	// Per 64-row word: the largest ‖p − p̂‖ among its rows, and the float
	// slack's store-side term, slackPerNorm·max‖p‖².  Both are rounded up,
	// and +Inf where a row or its residual is not finite — such a word's
	// rows are always read exactly.
	resid, slack []float32
	n, dim       int
}

// slackPerNorm(dim)·(‖q‖²+‖p‖²) bounds, twice over, what float32 rounding
// adds to |d − d̃|.  With u = 2⁻²⁴: each dot is off by at most
// (dim+8)·u·‖q‖·‖p‖ (no element passes through more roundings than that in
// any kernel here), which the distance doubles; fl(‖q‖²+‖p‖²) − 2·dot rounds
// once on each side, and the filter's own subtraction once more, all at
// magnitudes of at most 2·(‖q‖²+‖p‖²); with 2·‖q‖·‖p‖ ≤ ‖q‖²+‖p‖² that sums
// below (2·dim+23)·u·(‖q‖²+‖p‖²).
func slackPerNorm(dim int) float32 { return float32(4*dim+48) * 0x1p-24 }

// Split lays a store's rows out as planes.  The result shares the store's
// norms and nothing else: once the caller drops the store, the fp32 block is
// garbage.
func Split(s *Store) *SplitStore {
	words := (s.n + 63) / 64
	sp := &SplitStore{
		hi:    make([]uint16, len(s.data)),
		lo:    make([]uint16, len(s.data)),
		norms: s.norms,
		resid: make([]float32, words),
		slack: make([]float32, words),
		n:     s.n,
		dim:   s.dim,
	}
	perNorm := float64(slackPerNorm(s.dim))
	parallelFor(runtime.NumCPU(), words, func(_, from, to int) {
		for w := from; w < to; w++ {
			var resid, norm float64
			for i := w * 64; i < min(w*64+64, s.n); i++ {
				var r2 float64
				for j := i * s.dim; j < (i+1)*s.dim; j++ {
					b := math.Float32bits(s.data[j])
					// Half up on the magnitude: hi − lo>>15 is then the
					// upper half again, whatever the carry did.
					h := uint16((b + 0x8000) >> 16)
					sp.hi[j], sp.lo[j] = h, uint16(b)
					e := float64(s.data[j]) - float64(math.Float32frombits(uint32(h)<<16))
					r2 += e * e
				}
				resid = max(resid, roundUp(math.Sqrt(r2)))
				norm = max(norm, roundUp(float64(s.norms[i])))
			}
			// A residual is not finite when an element is not, or when
			// rounding carried a finite element into the Inf exponent.
			sp.resid[w], sp.slack[w] = float32(resid), float32(roundUp(perNorm*norm))
		}
	})
	return sp
}

// roundUp widens a non-negative bound past what float64 accumulation and the
// conversion to float32 can lose; anything not finite becomes +Inf (max
// would drop a NaN).
func roundUp(x float64) float64 {
	if !(x <= math.MaxFloat32) {
		return math.Inf(1)
	}
	return x * (1 + 0x1p-20)
}

// Len reports the number of rows.
func (sp *SplitStore) Len() int { return sp.n }

// Dim reports the row dimensionality.
func (sp *SplitStore) Dim() int { return sp.dim }

// Bytes reports the resident size: both planes, the norms and the per-word
// bounds.
func (sp *SplitStore) Bytes() int {
	return 2*(len(sp.hi)+len(sp.lo)) + 4*(len(sp.norms)+len(sp.resid)+len(sp.slack))
}

// Row reassembles row i, bit for bit, into dst[:Dim()] and returns it.
func (sp *SplitStore) Row(i int, dst []float32) []float32 {
	dst = dst[:sp.dim]
	hi, lo := sp.hi[i*sp.dim:][:sp.dim], sp.lo[i*sp.dim:][:sp.dim]
	for j := range dst {
		dst[j] = math.Float32frombits(uint32(hi[j]-lo[j]>>15)<<16 | uint32(lo[j]))
	}
	return dst
}

// wide reports whether rows go through the assembly kernels — the condition
// under which distRows takes dotRows.
func (sp *SplitStore) wide() bool { return useSIMD && sp.dim >= 32 && sp.dim%8 == 0 }

// hiQuery returns the query in the order the filter pass multiplies it: as
// it is for the portable loop; for filterHi, written into buf (Dim() long)
// with each 16 elements as the eight even ones then the eight odd ones — one
// 32-byte load of plane hi is sixteen halves, a shift and a mask part them
// into those two vectors, and which element meets which is all that has to
// match.  An 8-element tail stays in order.
func (sp *SplitStore) hiQuery(q, buf []float32) []float32 {
	if !sp.wide() {
		return q
	}
	buf = buf[:sp.dim]
	g := 0
	for ; g+16 <= sp.dim; g += 16 {
		for i := 0; i < 8; i++ {
			buf[g+i], buf[g+8+i] = q[g+2*i], q[g+2*i+1]
		}
	}
	copy(buf[g:], q[g:])
	return buf
}

// hiFilter is the filter pass over plane hi, resumable.  From the cursor on,
// in row order, it bounds each row at
//
//	((‖q‖² + ‖p‖²) − 2·q·p̂) − (qs·resid[w] + (slack[w] + qe)),  w the row's word,
//
// and appends the row and its bound to keep and bound unless the bound is
// above thr (a NaN bound is not), returning after the row that fills keep,
// the cursor just past it, or at the set's end.  filterHi (dot_amd64.s) runs
// it in the assembly's widths, filterGo in the others.
type hiFilter struct {
	sp         *SplitStore
	qh         []float32 // hiQuery's
	qn, qs, qe float32   // ‖q‖², and a margin's query-side terms
	thr        float32
	words      []uint32
	masks      []uint64
	next       int // the cursor: rows m (storeMask'd) of words[next−1], then words[next:]
	m          uint64
	keep       []uint32
	bound      []float32
	kept       int
}

func (f *hiFilter) filter() {
	if f.sp.wide() {
		filterHi(f)
	} else {
		f.filterGo()
	}
}

// filterGo is filterHi a row at a time, multiplying in order.
func (f *hiFilter) filterGo() {
	sp := f.sp
	for f.kept < len(f.keep) {
		for ; f.m == 0; f.next++ {
			if f.next == len(f.words) {
				return
			}
			f.m = storeMask(sp.n, f.words[f.next], f.masks[f.next])
		}
		w := f.words[f.next-1]
		id := w<<6 | uint32(bits.TrailingZeros64(f.m))
		f.m &= f.m - 1
		var s float32
		for j, h := range sp.hi[int(id)*sp.dim:][:sp.dim] {
			s += f.qh[j] * math.Float32frombits(uint32(h)<<16)
		}
		if b := f.qn + sp.norms[id] - 2*s - (f.qs*sp.resid[w] + (sp.slack[w] + f.qe)); !(b > f.thr) {
			f.keep[f.kept], f.bound[f.kept] = id, b
			f.kept++
		}
	}
}

// dots writes q·p for each listed row into out, each bit-identical to dot8
// over the fp32 row: the assembly reassembles in registers and reduces in
// dotSIMD's order; anywhere else the row is reassembled into row (Dim() long)
// and handed to dot8.
func (sp *SplitStore) dots(q []float32, ids []uint32, out, row []float32) {
	if sp.wide() {
		dotRowsSplit(&sp.hi[0], &sp.lo[0], sp.dim, &ids[0], len(ids), &q[0], &out[0])
		return
	}
	for i, id := range ids {
		out[i] = dot8(q, sp.Row(int(id), row))
	}
}

// --- the scan ---

// ScanRowSetSplit is ScanRowSet over a split store, with ScanRowSet's
// contract and its answer bit for bit — IDs, distances, order — from about
// half the bytes: an exact filter-and-refine, the filter on plane hi, the
// refine through both.  It books the rows it re-read as kernel.refined.
func (e *Engine) ScanRowSetSplit(sp *SplitStore, q []float32, set RowSet, k int, dst []knn.Neighbor) ([]knn.Neighbor, error) {
	e = e.orDefault()
	if len(q) != sp.dim && sp.n > 0 {
		return dst, vec.ErrDimensionMismatch
	}
	if len(set.Words) != len(set.Masks) {
		return dst, ErrRowSetShape
	}
	start := time.Now()
	points := set.countIn(sp.n)
	if points == 0 {
		// Nothing to score, and q need not be a row's length.
		e.account(0, start)
		return dst, nil
	}
	k = min(k, points)
	sc := getScratch(e.par, k)
	// The reordered query (the scalar path's row), then each worker's row
	// for the portable exact pass.
	stride := 0
	if !sp.wide() {
		stride = sp.dim
	}
	if cap(sc.buf) < sp.dim+e.par*stride {
		sc.buf = make([]float32, sp.dim+e.par*stride)
	}
	buf := sc.buf[:cap(sc.buf)]
	refined := 0
	switch {
	case e.scalar:
		top := &sc.heaps[0]
		for i, w := range set.Words {
			base := w << 6
			for m := storeMask(sp.n, w, set.Masks[i]); m != 0; m &= m - 1 {
				id := base + uint32(bits.TrailingZeros64(m))
				top.Consider(id, vec.SquaredEuclidean(q, sp.Row(int(id), buf)))
			}
		}
		refined = points
	case staysOnCaller(e.par, points):
		refined = newSplitScan(sp, q, sp.hiQuery(q, buf)).run(set, &sc.heaps[0], buf[sp.dim:][:stride])
	default:
		qh := sp.hiQuery(q, buf)
		var sum atomic.Int64
		forkJoin(e.par, len(set.Words), chunkPoints/64, func(w, lo, hi int) {
			sum.Add(int64(newSplitScan(sp, q, qh).run(RowSet{set.Words[lo:hi], set.Masks[lo:hi]}, &sc.heaps[w], buf[sp.dim+w*stride:][:stride])))
		})
		refined = int(sum.Load())
	}
	dst = mergeAppend(sc.heaps, dst)
	scanScratches.Put(sc)
	e.account(points, start)
	e.counters.Add(telemetry.KernelRefined, uint64(refined))
	return dst, nil
}

// refineBatch is how many surviving rows one exact pass reads: enough that
// their plane-lo lines are in flight together, few enough that the heap's
// threshold tightens several times inside a block.
const refineBatch = 8

// splitScan is one worker's filter-and-refine over a range of a set.
type splitScan struct {
	f   hiFilter
	q   []float32
	row []float32 // where the portable exact pass reassembles a row
	top *TopK

	pend    [refineBatch]uint32 // rows the filter could not rule out
	np      int
	refined int
}

// newSplitScan prepares a scan of sp for q, qh = sp.hiQuery(q).
func newSplitScan(sp *SplitStore, q, qh []float32) splitScan {
	qn := dot8(q, q)
	return splitScan{q: q, f: hiFilter{sp: sp, qh: qh, qn: qn,
		// 2·‖q‖, rounded up past what qn's own rounding hides, multiplies a
		// word's residual; the float slack's query-side term has a floor for
		// products that underflow, where rounding error stops being relative.
		qs: float32(2 * math.Sqrt(float64(qn)) * (1 + 0x1p-12 + float64(sp.dim)*0x1p-24)),
		qe: slackPerNorm(sp.dim)*qn + 0x1p-120,
	}}
}

// run scores a set's rows into top and reports how many it read exactly;
// row is its own.  While the heap is short of k the set is filled a block at
// a time — scanRowSetRange's blocks — and the rest is one filter pass, which
// stops only to hand the exact pass a full batch.
func (sc splitScan) run(set RowSet, top *TopK, row []float32) int {
	sc.top, sc.row = top, row
	f := sc.f // this worker's pass: its cursor and keep point into this frame
	var blk [subsetBlock]uint32
	var bound [subsetBlock]float32
	i := 0
	for i < len(set.Words) && top.Len() < top.k {
		j, n := i, 0
		for ; j < len(set.Words) && n <= subsetBlock-64; j++ {
			n += bits.OnesCount64(storeMask(f.sp.n, set.Words[j], set.Masks[j]))
		}
		// No bound is above +Inf: the pass keeps every row of the block.
		f.words, f.masks, f.next, f.m = set.Words[i:j], set.Masks[i:j], 0, 0
		f.thr, f.keep, f.bound, f.kept = float32(math.Inf(1)), blk[:n], bound[:n], 0
		f.filter()
		sc.fill(blk[:f.kept], bound[:f.kept])
		i = j
	}
	f.words, f.masks, f.next, f.m = set.Words[i:], set.Masks[i:], 0, 0
	f.keep, f.bound = sc.pend[:], bound[:refineBatch]
	for {
		f.thr, f.kept = top.Threshold(), sc.np
		f.filter()
		if sc.np = f.kept; sc.np < refineBatch {
			break
		}
		sc.refine()
	}
	sc.refine()
	return sc.refined
}

// fill filters one block of rows and their bounds while the heap is short of
// k.  The heap is filled from the least bounds first, so the rest of the
// block already meets a threshold worth the name — or, with room for the
// whole block, from every row.
func (sc *splitScan) fill(blk []uint32, bound []float32) {
	need := sc.top.k - sc.top.Len()
	if need >= len(blk) {
		for _, id := range blk {
			sc.push(id)
		}
		sc.refine()
		return
	}
	// least[:m] indexes the m least bounds so far, ascending: an insertion
	// sort that stops taking rows past the need-th.
	var least [subsetBlock]uint16
	m := 0
	for i, b := range bound {
		if m == need && !(b < bound[least[m-1]]) {
			continue
		}
		if m < need {
			m++
		}
		j := m - 1
		for ; j > 0 && b < bound[least[j-1]]; j-- {
			least[j] = least[j-1]
		}
		least[j] = uint16(i)
	}
	for _, i := range least[:m] {
		sc.push(blk[i])
		bound[i] = float32(math.Inf(1)) // past any threshold: not again below
	}
	sc.refine()
	thr := sc.top.Threshold()
	for i, b := range bound {
		// A NaN bound is not past anything: the row is read exactly, and
		// the exact path decides as the fp32 scan does.
		if b > thr {
			continue
		}
		if sc.push(blk[i]) {
			thr = sc.top.Threshold()
		}
	}
}

// push queues a row for the exact pass and runs the pass when the batch is
// full, reporting whether it ran.
func (sc *splitScan) push(id uint32) bool {
	sc.pend[sc.np] = id
	sc.np++
	if sc.np < len(sc.pend) {
		return false
	}
	sc.refine()
	return true
}

// refine reads the queued rows through both planes and offers each to the
// heap with the distance, and under the test, the fp32 scan gives it.
func (sc *splitScan) refine() {
	if sc.np == 0 {
		return
	}
	var dots [refineBatch]float32
	ids := sc.pend[:sc.np]
	sc.f.sp.dots(sc.q, ids, dots[:], sc.row)
	thr := sc.top.Threshold()
	for i, id := range ids {
		// ≤ for the same reason as scanRange.
		if d := normFinish(sc.f.qn, sc.f.sp.norms[id], dots[i]); d <= thr {
			sc.top.Consider(id, d)
			thr = sc.top.Threshold()
		}
	}
	sc.refined += sc.np
	sc.np = 0
}
