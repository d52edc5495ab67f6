package kernel

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"musuite/internal/telemetry"
)

// Config is what New takes.  It has no fields: a scan runs on the goroutine
// that calls it, so there is nothing left to tune.
type Config struct{}

// Engine executes leaf scans on the calling goroutine — a query's
// parallelism comes from its shards, each leaf scanning its own — and books
// each scan into a counter table.  It is that counter sink alone, so every
// leaf owns one (making its TierStats counters per-leaf) at no cost.
type Engine struct {
	// counters receives the kernel.* counters — the owning leaf's table,
	// bound by WithCounters; nil (a freshly built engine) counts nothing.
	counters *telemetry.Table
}

// New builds an engine that counts nothing.
func New(Config) *Engine { return new(Engine) }

var uncounted Engine

// Default returns the process-wide engine that counts nothing — for scans
// outside a serving leaf.
func Default() *Engine { return &uncounted }

// WithCounters returns an engine that counts into t — how a leaf gets its
// own engine.
func (*Engine) WithCounters(t *telemetry.Table) *Engine { return &Engine{counters: t} }

// account books one scan that scored points rows and read refined of them a
// second time; a nil engine counts nothing.
func (e *Engine) account(points, refined int, start time.Time) {
	if e == nil {
		return
	}
	e.counters.Add(telemetry.KernelScans, 1)
	e.counters.Add(telemetry.KernelPoints, uint64(points))
	if refined != 0 {
		e.counters.Add(telemetry.KernelRefined, uint64(refined))
	}
	e.counters.Add(telemetry.KernelNanos, uint64(time.Since(start)))
}

// --- inner kernels ---

// useSIMD is set by per-arch init when the CPU has a vector dot kernel
// (AVX2+FMA on amd64).  All tuned engine paths go through the same dot8.
var useSIMD bool

// dot8 is the one inner loop every tuned distance reduces to under the norm
// trick ‖q−p‖² = ‖q‖²+‖p‖²−2·q·p: the vector kernel when the CPU has one,
// else the 8-way unrolled scalar loop.  Short vectors skip the SIMD call —
// the call overhead exceeds the win below ~4 blocks.
func dot8(a, b []float32) float32 {
	n := len(a)
	b = b[:n] // one bounds check; the unrolled body elides the rest
	if useSIMD && n >= 32 {
		n8 := n &^ 7
		s := dotSIMD(&a[0], &b[0], n8)
		for i := n8; i < n; i++ {
			s += a[i] * b[i]
		}
		return s
	}
	return dotGeneric(a, b)
}

// Dot exposes the engine's inner dot product — the vector kernel when the
// CPU has one — to engine-adjacent packages (the ann index builders score
// centroids with it).  Equal-length slices are the caller's contract, as
// with every kernel in this package.
func Dot(a, b []float32) float32 { return dot8(a, b) }

// Project writes v's dot product with each of len(out) consecutive rows of
// planes from row first: out[i] = Dot(planes.Row(first+i), v), bit for bit
// (a NaN's payload aside where a plane and v both hold one), in one call —
// how a sign pattern against random hyperplanes is formed.  Where Dot takes
// the vector kernel, each eight planes go through project8, which shares
// v's loads and the horizontal sums across them; the rest, and v's scalar
// tail, take Dot's own path.  len(v) must be planes.Dim().
func Project(planes *Store, first int, v, out []float32) {
	if len(out) == 0 {
		return
	}
	dim := planes.dim
	rows := planes.data[first*dim : (first+len(out))*dim]
	v = v[:dim]
	if !useSIMD || dim < 32 {
		for i := range out {
			out[i] = dotGeneric(rows[i*dim:(i+1)*dim], v)
		}
		return
	}
	n8 := dim &^ 7
	groups := len(out) / 8
	if groups > 0 {
		project8(&rows[0], dim, n8, groups, &v[0], &out[0])
	}
	for i := 8 * groups; i < len(out); i++ {
		out[i] = dotSIMD(&rows[i*dim], &v[0], n8)
	}
	if n8 < dim {
		for i := range out {
			row, s := rows[i*dim:(i+1)*dim], out[i]
			for j := n8; j < dim; j++ {
				s += row[j] * v[j]
			}
			out[i] = s
		}
	}
}

// NonNegative is the sign pattern of up to 64 projections: bit i is set
// when x[i] ≥ 0 (−0 included, a NaN not).
func NonNegative(x []float32) uint64 {
	if len(x) > 64 {
		panic("kernel: NonNegative over more than 64 values")
	}
	var bits uint64
	n8 := 0
	if useSIMD && len(x) >= 8 {
		n8 = len(x) &^ 7
		bits = nonNegative8(&x[0], n8)
	}
	for i := n8; i < len(x); i++ {
		if x[i] >= 0 {
			bits |= 1 << i
		}
	}
	return bits
}

// DistAt exposes the engine's per-(query, point) norm-trick distance for a
// single store row — the subset-distance helper the ann graph traversals
// (HNSW neighbor expansions) evaluate point by point.  qn is ‖q‖², computed
// once per query with Dot(q, q).  The result is bit-identical to what Scan
// and ScanSubset compute for the same pair.
func DistAt(s *Store, q []float32, qn float32, i int) float32 {
	return normDist(q, qn, s.Row(i), s.norms[i])
}

// RowDist is the norm-trick squared distance between two rows of the same
// store — the pairwise term the ann neighbor-selection heuristic scores on
// the SIMD dot kernel with both norms precomputed.
func RowDist(s *Store, i, j int) float32 {
	return normDist(s.Row(i), s.norms[i], s.Row(j), s.norms[j])
}

// DistMany appends the norm-trick distance from q to each listed row — the
// gather primitive under ScanSubset and the HNSW beam expansion.  A listed
// row is scattered, so touching it first inside its own reduction exposes a
// full cache-miss latency per row; distRows instead prefetches a fixed number
// of rows ahead of the one it reduces, and a subset scan then runs at the
// rate memory delivers rows rather than one miss at a time.  Each distance is
// bit-identical to DistAt for the same pair.  An out-of-range id panics, as
// Row would.
func DistMany(s *Store, q []float32, qn float32, ids []uint32, dst []float32) []float32 {
	for _, id := range ids {
		if int(id) >= s.n {
			panic("kernel: DistMany id out of range")
		}
	}
	base := len(dst)
	dst = slices.Grow(dst, len(ids))[:base+len(ids)]
	distRows(s, q, qn, ids, dst[base:])
	return dst
}

// distRows writes the norm-trick distance from q to row ids[i] into out[i].
// Every id must be a valid row and out at least len(ids) long.  Where dot8
// would take the vector kernel with no scalar tail, the rows go through
// dotRows in one call; otherwise (no AVX2, short or ragged dim) each row is a
// normDist, the same dispatch dot8 makes.  Both reduce a row in dot8's order,
// so which one ran never shows in the result.
func distRows(s *Store, q []float32, qn float32, ids []uint32, out []float32) {
	if len(ids) == 0 {
		return
	}
	out = out[:len(ids)]
	if useSIMD && s.dim >= 32 && s.dim%8 == 0 {
		q = q[:s.dim]
		dotRows(&s.data[0], s.dim, &ids[0], len(ids), &q[0], &out[0])
		for i, id := range ids {
			out[i] = normFinish(qn, s.norms[id], out[i])
		}
		return
	}
	for i, id := range ids {
		out[i] = normDist(q, qn, s.Row(int(id)), s.norms[id])
	}
}

// dotGeneric is the portable 8-way unrolled dot product.
func dotGeneric(a, b []float32) float32 {
	n := len(a)
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
		s4 += a[i+4] * b[i+4]
		s5 += a[i+5] * b[i+5]
		s6 += a[i+6] * b[i+6]
		s7 += a[i+7] * b[i+7]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// normDist is the per-(query, point) distance every engine path shares, so
// every scan scores a pair to the same bits.
// The clamp absorbs the small negative results cancellation can produce for
// near-duplicate points.
func normDist(q []float32, qn float32, row []float32, rowNorm float32) float32 {
	return normFinish(qn, rowNorm, dot8(q, row))
}

// normFinish turns q·p into ‖q−p‖² given both squared norms.
func normFinish(qn, rowNorm, dot float32) float32 {
	d := qn + rowNorm - 2*dot
	if d < 0 {
		return 0
	}
	return d
}

// --- scratch pooling ---

// scanScratch recycles one scan's heap and buffer across requests.
type scanScratch struct {
	top TopK
	buf []float32 // a split scan's reordered query and row
}

var scanScratches = sync.Pool{New: func() any { return new(scanScratch) }}

func getScratch(k int) *scanScratch {
	sc := scanScratches.Get().(*scanScratch)
	sc.top.Reset(k)
	return sc
}

// finish drains the scan's heap sorted into dst and returns the scratch.
func (sc *scanScratch) finish(dst []Neighbor) []Neighbor {
	dst = sc.top.AppendSorted(dst)
	scanScratches.Put(sc)
	return dst
}

// --- full-store scan ---

// Scan scores the query against every store row and appends the k nearest
// (by squared Euclidean distance, ties by ID) to dst.
func (e *Engine) Scan(s *Store, q []float32, k int, dst []Neighbor) ([]Neighbor, error) {
	if len(q) != s.dim && s.n > 0 {
		return dst, ErrDimensionMismatch
	}
	start := time.Now()
	// As in ScanSubset: k comes off the wire and sizes the heap.
	sc := getScratch(min(k, s.n))
	scanStore(s, q, dot8(q, q), &sc.top)
	dst = sc.finish(dst)
	e.account(s.n, 0, start)
	return dst, nil
}

// scanStore is the tuned full-store loop: stream rows, norm-trick distance,
// threshold test before touching the heap.
func scanStore(s *Store, q []float32, qn float32, top *TopK) {
	thr := top.Threshold()
	for i := 0; i < s.n; i++ {
		d := normDist(q, qn, s.Row(i), s.norms[i])
		// ≤ keeps equal-distance smaller-ID candidates eligible, so the
		// result matches the reference selection exactly.
		if d <= thr {
			top.Consider(uint32(i), d)
			thr = top.Threshold()
		}
	}
}

// --- subset scan ---

// ScanSubset scores the query against the rows named by ids (out-of-range
// IDs are skipped, mirroring the wire contract) and appends the k nearest to
// dst — the HDSearch leaf's per-request computation.
func (e *Engine) ScanSubset(s *Store, q []float32, ids []uint32, k int, dst []Neighbor) ([]Neighbor, error) {
	if len(q) != s.dim && s.n > 0 {
		return dst, ErrDimensionMismatch
	}
	start := time.Now()
	// k sizes the heap, and callers take it off the wire: a scan cannot keep
	// more neighbours than it was given candidates.
	sc := getScratch(min(k, len(ids)))
	scanSubsetRange(s, q, dot8(q, q), ids, &sc.top)
	dst = sc.finish(dst)
	e.account(len(ids), 0, start)
	return dst, nil
}

// subsetBlock is how many candidate IDs one distRows call scores: enough that
// the prefetch warm-up at a block's head is amortised over hundreds of rows,
// small enough that the ID and distance buffers (2 KB) live on the stack.
const subsetBlock = 256

// scanSubsetRange is the tuned subset loop: range-check a block of IDs
// (out-of-range ones are dropped here, so distRows sees only valid rows) and
// score it.
func scanSubsetRange(s *Store, q []float32, qn float32, ids []uint32, top *TopK) {
	var (
		blk  [subsetBlock]uint32
		dist [subsetBlock]float32
	)
	for len(ids) > 0 {
		m := 0
		take := min(len(ids), subsetBlock)
		for _, id := range ids[:take] {
			if int(id) < s.n {
				blk[m] = id
				m++
			}
		}
		ids = ids[take:]
		scoreBlock(s, q, qn, blk[:m], dist[:m], top)
	}
}

// scoreBlock is the body every subset scan shares: score a block of valid
// rows in one gather call, then threshold-test into the heap.
func scoreBlock(s *Store, q []float32, qn float32, blk []uint32, dist []float32, top *TopK) {
	distRows(s, q, qn, blk, dist)
	thr := top.Threshold()
	for i, d := range dist[:len(blk)] {
		// ≤ for the same reason as scanStore.
		if d <= thr {
			top.Consider(blk[i], d)
			thr = top.Threshold()
		}
	}
}

// --- row-set scan ---

// ScanRowSet is ScanSubset over a sparse bitmap of rows — the HDSearch leaf's
// per-request computation, on the form its candidates arrive in.  A word past
// the store is skipped and bits past the last row are masked off (the wire
// contract ScanSubset's skipped IDs kept), k is clamped to the rows that
// leaves — the rows scored, and the number booked as kernel.points — and the
// answer is bit-identical to ScanSubset over the same rows as IDs:
// the masks expand into the same ID block in front of the same scoreBlock.
func (e *Engine) ScanRowSet(s *Store, q []float32, set RowSet, k int, dst []Neighbor) ([]Neighbor, error) {
	if len(q) != s.dim && s.n > 0 {
		return dst, ErrDimensionMismatch
	}
	if len(set.Words) != len(set.Masks) {
		return dst, ErrRowSetShape
	}
	start := time.Now()
	points := set.countIn(s.n)
	sc := getScratch(min(k, points))
	scanRowSetRange(s, q, dot8(q, q), set, &sc.top)
	dst = sc.finish(dst)
	e.account(points, 0, start)
	return dst, nil
}

// storeMask cuts word w's mask down to the rows an n-row store has.
func storeMask(n int, w uint32, m uint64) uint64 {
	last := (n - 1) >> 6 // −1 for an empty store: every word is past it
	switch {
	case int(w) > last:
		return 0
	case int(w) == last:
		return m & (^uint64(0) >> (63 - uint(n-1)&63))
	}
	return m
}

// countIn reports how many of the set's rows an n-row store has.
func (r RowSet) countIn(n int) int {
	c := 0
	for i, w := range r.Words {
		c += bits.OnesCount64(storeMask(n, w, r.Masks[i]))
	}
	return c
}

// scanRowSetRange is scanSubsetRange with the block filled from masks: a word
// is expanded whole, so a block is scored once fewer than 64 slots are left.
func scanRowSetRange(s *Store, q []float32, qn float32, set RowSet, top *TopK) {
	var (
		blk  [subsetBlock]uint32
		dist [subsetBlock]float32
	)
	n := 0
	for i, w := range set.Words {
		base := w << 6
		for m := storeMask(s.n, w, set.Masks[i]); m != 0; m &= m - 1 {
			blk[n] = base + uint32(bits.TrailingZeros64(m))
			n++
		}
		if n > subsetBlock-64 {
			scoreBlock(s, q, qn, blk[:n], dist[:n], top)
			n = 0
		}
	}
	scoreBlock(s, q, qn, blk[:n], dist[:n], top)
}

// --- cosine neighborhoods (Recommend) ---

// cosineDist returns 1 − cosine similarity in the engine's float32 path;
// zero-norm rows score distance 1 (similarity 0).
func cosineDist(q []float32, qn float32, row []float32, rn float32) float32 {
	if qn == 0 || rn == 0 {
		return 1
	}
	return 1 - dot8(q, row)/float32(math.Sqrt(float64(qn)*float64(rn)))
}

// CosineNeighbors finds the k rows most cosine-similar to row `row`,
// excluding the row itself and any row whose include mask entry is false
// (nil includes all) — Recommend's user-neighborhood scan over its
// latent-factor store, with the exclusion applied inline instead of through
// a per-request exclusion map.
func (e *Engine) CosineNeighbors(s *Store, row int, include []bool, k int, dst []Neighbor) ([]Neighbor, error) {
	if row < 0 || row >= s.n {
		return dst, ErrDimensionMismatch
	}
	start := time.Now()
	q := s.Row(row)
	qn := s.norms[row]
	sc := getScratch(k)
	top := &sc.top
	thr := top.Threshold()
	for i := 0; i < s.n; i++ {
		if i == row || (include != nil && !include[i]) {
			continue
		}
		d := cosineDist(q, qn, s.Row(i), s.norms[i])
		if d <= thr {
			top.Consider(uint32(i), d)
			thr = top.Threshold()
		}
	}
	dst = sc.finish(dst)
	e.account(s.n, 0, start)
	return dst, nil
}
