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
// it is for the portable loop; for dotRowsHi, each 16 elements as the eight
// even ones then the eight odd ones — one 32-byte load of plane hi is sixteen
// halves, a shift and a mask part them into those two vectors, and which
// element meets which is all that has to match.  An 8-element tail stays in
// order.  buf is used when it is long enough.
func (sp *SplitStore) hiQuery(q, buf []float32) []float32 {
	if !sp.wide() {
		return q
	}
	if len(buf) < sp.dim {
		buf = make([]float32, sp.dim)
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

// hiDots writes q·p̂ for each listed row into out; qh is hiQuery's.
func (sp *SplitStore) hiDots(qh []float32, ids []uint32, out []float32) {
	if sp.wide() {
		dotRowsHi(&sp.hi[0], sp.dim, &ids[0], len(ids), &qh[0], &out[0])
		return
	}
	for i, id := range ids {
		var s float32
		for j, h := range sp.hi[int(id)*sp.dim:][:sp.dim] {
			s += qh[j] * math.Float32frombits(uint32(h)<<16)
		}
		out[i] = s
	}
}

// dots writes q·p for each listed row into out, each bit-identical to dot8
// over the fp32 row: the assembly reassembles in registers and reduces in
// dotSIMD's order; anywhere else the row is reassembled and handed to dot8.
func (sp *SplitStore) dots(q []float32, ids []uint32, out []float32) {
	if sp.wide() {
		dotRowsSplit(&sp.hi[0], &sp.lo[0], sp.dim, &ids[0], len(ids), &q[0], &out[0])
		return
	}
	var buf [64]float32
	row := buf[:]
	if sp.dim > len(buf) {
		row = make([]float32, sp.dim)
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
	k = min(k, points)
	sc := getScratch(e.par, k)
	refined := 0
	switch {
	case e.scalar:
		top := &sc.heaps[0]
		row := make([]float32, sp.dim)
		for i, w := range set.Words {
			base := w << 6
			for m := storeMask(sp.n, w, set.Masks[i]); m != 0; m &= m - 1 {
				id := base + uint32(bits.TrailingZeros64(m))
				top.Consider(id, vec.SquaredEuclidean(q, sp.Row(int(id), row)))
			}
		}
		refined = points
	case staysOnCaller(e.par, points):
		refined = scanSplitRange(sp, q, set, &sc.heaps[0])
	default:
		var sum atomic.Int64
		forkJoin(e.par, len(set.Words), chunkPoints/64, func(w, lo, hi int) {
			sum.Add(int64(scanSplitRange(sp, q, RowSet{set.Words[lo:hi], set.Masks[lo:hi]}, &sc.heaps[w])))
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
	sp  *SplitStore
	q   []float32
	qh  []float32 // q as hiDots wants it
	qn  float32   // ‖q‖²
	top *TopK

	pend    [refineBatch]uint32 // rows the filter could not rule out
	np      int
	refined int
}

// scanSplitRange scores a set's rows into top and reports how many it read
// exactly.  The blocks are scanRowSetRange's, with each row's margin — what
// its d̃ may overstate its distance by, a property of its word — beside it.
func scanSplitRange(sp *SplitStore, q []float32, set RowSet, top *TopK) int {
	var qbuf [128]float32
	qn := dot8(q, q)
	sc := splitScan{sp: sp, q: q, qh: sp.hiQuery(q, qbuf[:]), qn: qn, top: top}
	// 2·‖q‖, rounded up past what qn's own rounding hides, multiplies a
	// word's residual; the float slack's query-side term has a floor for
	// products that underflow, where rounding error stops being relative.
	qs := float32(2 * math.Sqrt(float64(qn)) * (1 + 0x1p-12 + float64(sp.dim)*0x1p-24))
	qe := slackPerNorm(sp.dim)*qn + 0x1p-120
	var (
		blk    [subsetBlock]uint32
		margin [subsetBlock]float32
		bound  [subsetBlock]float32
	)
	n := 0
	for i, w := range set.Words {
		m := storeMask(sp.n, w, set.Masks[i])
		if m == 0 {
			continue
		}
		base, mw := w<<6, qs*sp.resid[w]+(sp.slack[w]+qe)
		for ; m != 0; m &= m - 1 {
			blk[n], margin[n] = base+uint32(bits.TrailingZeros64(m)), mw
			n++
		}
		if n > subsetBlock-64 {
			sc.block(blk[:n], margin[:n], bound[:n])
			n = 0
		}
	}
	sc.block(blk[:n], margin[:n], bound[:n])
	sc.refine()
	return sc.refined
}

// block filters one block of valid rows: bound[i] becomes a proved lower
// bound on row blk[i]'s exact distance, and a row goes on to the exact pass
// unless its bound is already past the heap's threshold.  That threshold is
// always an exact distance; while the heap is short of k — the first block
// of a scan — it is filled from the rows with the least bounds first, so the
// rest of the block already meets a threshold worth the name.
func (sc *splitScan) block(blk []uint32, margin, bound []float32) {
	if len(blk) == 0 {
		return
	}
	need := sc.top.k - sc.top.Len()
	if need >= len(blk) {
		// The heap has room for every row: nothing to filter.
		for _, id := range blk {
			sc.push(id)
		}
		sc.refine()
		return
	}
	sc.sp.hiDots(sc.qh, blk, bound)
	norms, qn := sc.sp.norms, sc.qn
	margin = margin[:len(bound)]
	for i, id := range blk[:len(bound)] {
		// normFinish's sum without its clamp: a bound may be negative.
		bound[i] = qn + norms[id] - 2*bound[i] - margin[i]
	}
	if need > 0 {
		// least[:m] indexes the m least bounds so far, ascending: an
		// insertion sort that stops taking rows past the need-th.
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
	}
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
	sc.sp.dots(sc.q, ids, dots[:])
	thr := sc.top.Threshold()
	for i, id := range ids {
		// ≤ for the same reason as scanRange.
		if d := normFinish(sc.qn, sc.sp.norms[id], dots[i]); d <= thr {
			sc.top.Consider(id, d)
			thr = sc.top.Threshold()
		}
	}
	sc.refined += sc.np
	sc.np = 0
}
