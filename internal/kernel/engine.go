package kernel

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"

	"musuite/internal/knn"
	"musuite/internal/telemetry"
	"musuite/internal/vec"
)

// Config tunes an Engine.
type Config struct {
	// Parallelism caps how many cores one request's scan may use
	// (0 = NumCPU; 1 = serial).  The -leaf-parallelism flag lands here.
	Parallelism int
	// ForceScalar switches every scan to the scalar reference kernels
	// (diff-squared distance, no tiling, no parallelism) — the
	// -scalar-kernels flag, kept so equivalence is testable end to end.
	ForceScalar bool
}

// Engine executes leaf scans.  It is a thin config plus a counter sink — the
// helper goroutines live in one process-global pool — so every leaf can own
// an engine (making its TierStats counters per-leaf) without goroutine cost.
type Engine struct {
	par    int
	scalar bool
	// counters receives the kernel.* counters — the owning leaf's table,
	// bound by WithCounters; nil (a freshly built engine) counts nothing.
	counters *telemetry.Table
}

// New builds an engine.
func New(cfg Config) *Engine {
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	return &Engine{par: par, scalar: cfg.ForceScalar}
}

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the process-wide default engine (NumCPU parallelism,
// tuned kernels) — the fallback for components constructed without one.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEngine = New(Config{}) })
	return defaultEngine
}

func (e *Engine) orDefault() *Engine {
	if e == nil {
		return Default()
	}
	return e
}

// Parallelism reports the engine's per-scan worker cap, so callers running
// their own ParallelFor loops (the ann compressed-store scans) match the
// engine's configured core budget.
func (e *Engine) Parallelism() int { return e.orDefault().par }

// WithCounters returns a copy of the engine (same parallelism and kernel
// selection; nil means the default engine) that counts into t — how one
// configured engine becomes a per-leaf engine.
func (e *Engine) WithCounters(t *telemetry.Table) *Engine {
	c := *e.orDefault()
	c.counters = t
	return &c
}

func (e *Engine) account(points int, start time.Time) {
	e.counters.Add(telemetry.KernelScans, 1)
	e.counters.Add(telemetry.KernelPoints, uint64(points))
	e.counters.Add(telemetry.KernelNanos, uint64(time.Since(start)))
}

// --- inner kernels ---

// useSIMD is set by per-arch init when the CPU has a vector dot kernel
// (AVX2+FMA on amd64).  All tuned engine paths go through the same dot8, so
// which kernel runs never affects serial/parallel equivalence.
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

// normDist is the per-(query, point) distance every engine path shares —
// serial and parallel scans therefore produce bit-identical floats.
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

// scanScratch recycles the per-worker heaps of one scan.  heaps is sized
// par and reused across requests.
type scanScratch struct {
	heaps []TopK
	buf   []float32 // a split scan's reordered query and rows
}

var scanScratches = sync.Pool{New: func() any { return new(scanScratch) }}

func getScratch(heaps, k int) *scanScratch {
	sc := scanScratches.Get().(*scanScratch)
	if cap(sc.heaps) < heaps {
		sc.heaps = make([]TopK, heaps)
	} else {
		sc.heaps = sc.heaps[:heaps]
	}
	for i := range sc.heaps {
		sc.heaps[i].Reset(k)
	}
	return sc
}

// mergeAppend folds heaps[1:] into heaps[0] and drains it sorted into dst.
func mergeAppend(heaps []TopK, dst []knn.Neighbor) []knn.Neighbor {
	for i := 1; i < len(heaps); i++ {
		heaps[0].Merge(&heaps[i])
	}
	return heaps[0].AppendSorted(dst)
}

// --- full-store scan ---

// Scan scores the query against every store row and appends the k nearest
// (by squared Euclidean distance, ties by ID) to dst.
func (e *Engine) Scan(s *Store, q []float32, k int, dst []knn.Neighbor) ([]knn.Neighbor, error) {
	e = e.orDefault()
	if len(q) != s.dim && s.n > 0 {
		return dst, vec.ErrDimensionMismatch
	}
	start := time.Now()
	sc := getScratch(e.par, k)
	if e.scalar {
		scanScalarRange(s, q, 0, s.n, &sc.heaps[0])
	} else {
		qn := dot8(q, q)
		parallelFor(e.par, s.n, func(w, lo, hi int) {
			scanRange(s, q, qn, lo, hi, &sc.heaps[w])
		})
	}
	dst = mergeAppend(sc.heaps, dst)
	scanScratches.Put(sc)
	e.account(s.n, start)
	return dst, nil
}

// scanRange is the tuned per-chunk loop: stream rows, norm-trick distance,
// threshold test before touching the heap.
func scanRange(s *Store, q []float32, qn float32, lo, hi int, top *TopK) {
	thr := top.Threshold()
	for i := lo; i < hi; i++ {
		d := normDist(q, qn, s.Row(i), s.norms[i])
		// ≤ keeps equal-distance smaller-ID candidates eligible, so the
		// result matches the reference selection exactly.
		if d <= thr {
			top.Consider(uint32(i), d)
			thr = top.Threshold()
		}
	}
}

// scanScalarRange is the reference: per-point diff-squared distance (the
// pre-engine vec kernel), same selection.
func scanScalarRange(s *Store, q []float32, lo, hi int, top *TopK) {
	for i := lo; i < hi; i++ {
		top.Consider(uint32(i), vec.SquaredEuclidean(q, s.Row(i)))
	}
}

// --- subset scan ---

// ScanSubset scores the query against the rows named by ids (out-of-range
// IDs are skipped, mirroring the wire contract) and appends the k nearest to
// dst — the HDSearch leaf's per-request computation.
func (e *Engine) ScanSubset(s *Store, q []float32, ids []uint32, k int, dst []knn.Neighbor) ([]knn.Neighbor, error) {
	e = e.orDefault()
	if len(q) != s.dim && s.n > 0 {
		return dst, vec.ErrDimensionMismatch
	}
	start := time.Now()
	// k sizes every worker's heap, and callers take it off the wire: a scan
	// cannot keep more neighbours than it was given candidates.
	k = min(k, len(ids))
	sc := getScratch(e.par, k)
	if e.scalar {
		top := &sc.heaps[0]
		for _, id := range ids {
			if int(id) >= s.n {
				continue
			}
			top.Consider(id, vec.SquaredEuclidean(q, s.Row(int(id))))
		}
	} else {
		qn := dot8(q, q)
		if staysOnCaller(e.par, len(ids)) {
			scanSubsetRange(s, q, qn, ids, &sc.heaps[0])
		} else {
			parallelFor(e.par, len(ids), func(w, lo, hi int) {
				scanSubsetRange(s, q, qn, ids[lo:hi], &sc.heaps[w])
			})
		}
	}
	dst = mergeAppend(sc.heaps, dst)
	scanScratches.Put(sc)
	e.account(len(ids), start)
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
		// ≤ for the same reason as scanRange.
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
func (e *Engine) ScanRowSet(s *Store, q []float32, set RowSet, k int, dst []knn.Neighbor) ([]knn.Neighbor, error) {
	e = e.orDefault()
	if len(q) != s.dim && s.n > 0 {
		return dst, vec.ErrDimensionMismatch
	}
	if len(set.Words) != len(set.Masks) {
		return dst, ErrRowSetShape
	}
	start := time.Now()
	points := set.countIn(s.n)
	k = min(k, points)
	sc := getScratch(e.par, k)
	if e.scalar {
		top := &sc.heaps[0]
		for i, w := range set.Words {
			base := w << 6
			for m := storeMask(s.n, w, set.Masks[i]); m != 0; m &= m - 1 {
				id := base + uint32(bits.TrailingZeros64(m))
				top.Consider(id, vec.SquaredEuclidean(q, s.Row(int(id))))
			}
		}
	} else {
		qn := dot8(q, q)
		// The split rule is ScanSubset's, on the same number — candidates —
		// and a claim is at most as many rows: chunkPoints/64 words.
		if staysOnCaller(e.par, points) {
			scanRowSetRange(s, q, qn, set, &sc.heaps[0])
		} else {
			forkJoin(e.par, len(set.Words), chunkPoints/64, func(w, lo, hi int) {
				scanRowSetRange(s, q, qn, RowSet{set.Words[lo:hi], set.Masks[lo:hi]}, &sc.heaps[w])
			})
		}
	}
	dst = mergeAppend(sc.heaps, dst)
	scanScratches.Put(sc)
	e.account(points, start)
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
// zero-norm rows score distance 1 (similarity 0), matching the reference.
func cosineDist(q []float32, qn float32, row []float32, rn float32) float32 {
	if qn == 0 || rn == 0 {
		return 1
	}
	return 1 - dot8(q, row)/float32(math.Sqrt(float64(qn)*float64(rn)))
}

// cosineDistScalar is the reference: float64 accumulation with per-pair
// norms, the pre-engine knn.CosineMetric arithmetic.
func cosineDistScalar(q, row []float32) float32 {
	var dot, na, nb float64
	for i := range q {
		a, b := float64(q[i]), float64(row[i])
		dot += a * b
		na += a * a
		nb += b * b
	}
	if na == 0 || nb == 0 {
		return 1
	}
	return float32(1 - dot/(math.Sqrt(na)*math.Sqrt(nb)))
}

// CosineNeighbors finds the k rows most cosine-similar to row `row`,
// excluding the row itself and any row whose include mask entry is false
// (nil includes all) — Recommend's user-neighborhood scan over its
// latent-factor store, with the exclusion applied inline instead of through
// a per-request exclusion map.
func (e *Engine) CosineNeighbors(s *Store, row int, include []bool, k int, dst []knn.Neighbor) ([]knn.Neighbor, error) {
	e = e.orDefault()
	if row < 0 || row >= s.n {
		return dst, vec.ErrDimensionMismatch
	}
	start := time.Now()
	q := s.Row(row)
	qn := s.norms[row]
	sc := getScratch(e.par, k)
	if e.scalar {
		top := &sc.heaps[0]
		for i := 0; i < s.n; i++ {
			if i == row || (include != nil && !include[i]) {
				continue
			}
			top.Consider(uint32(i), cosineDistScalar(q, s.Row(i)))
		}
	} else {
		parallelFor(e.par, s.n, func(w, lo, hi int) {
			top := &sc.heaps[w]
			thr := top.Threshold()
			for i := lo; i < hi; i++ {
				if i == row || (include != nil && !include[i]) {
					continue
				}
				d := cosineDist(q, qn, s.Row(i), s.norms[i])
				if d <= thr {
					top.Consider(uint32(i), d)
					thr = top.Threshold()
				}
			}
		})
	}
	dst = mergeAppend(sc.heaps, dst)
	scanScratches.Put(sc)
	e.account(s.n, start)
	return dst, nil
}
