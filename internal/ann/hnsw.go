package ann

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"musuite/internal/kernel"
	"musuite/internal/knn"
	"musuite/internal/vec"
)

// HNSW is a hierarchical navigable-small-world graph over one leaf shard's
// kernel.Store — the graph half of the sub-linear leaf-index layer.  Where
// IVF prunes by coarse clusters (O(n·nprobe/nlist) candidates per query),
// HNSW descends a layered proximity graph: a greedy walk through sparse
// upper layers lands near the query, then a bounded-candidate beam search
// (efSearch) over the dense base layer collects the neighborhood.  Per-query
// work scales ~O(ef·degree·log n) distance evaluations, independent of the
// shard size — the regime that matters at the 10M+-vectors-per-leaf target,
// where IVF's recall/latency frontier flattens out.
//
// Every distance evaluated anywhere in the index — build-time beam searches,
// the neighbor-selection heuristic, query traversals, and the final top-k —
// routes through the kernel engine's norm-trick dot kernels (AVX2+FMA where
// the CPU has them) with streaming TopK threshold rejection.  The index
// stores no vectors: it references the SoA store it was built over.
//
// Adjacency lives in flat arena-allocated arrays (one []uint32 block per
// layer band, no per-node slices on the hot path): the base layer is a
// dense n×Mmax0 arena, and the sparse upper layers pack each node's bands
// contiguously via a prefix-sum offset table.  A search therefore chases no
// pointers — neighbor expansion is one bounds-checked slice of a flat block.
//
// Builds are parallel and deterministic; searches after Build are read-only
// and lock-free, so a drained leaf can keep serving during a warm handoff
// while its replacement builds.  See BuildHNSW for the construction scheme.
type HNSW struct {
	store *kernel.Store

	m     int // per-node degree bound on upper layers
	mmax0 int // base-layer degree bound (2·m, per Malkov-Yashunin)
	efCon int // construction beam width
	defEF int // search beam width when the caller passes 0

	// levels[i] is node i's upper-layer count (0 = base layer only),
	// assigned from the seeded RNG before any insertion so the graph's
	// layer structure is independent of build order and parallelism.
	levels []int32

	// Base-layer arena: node i's neighbors are l0[i*mmax0 : i*mmax0+l0n[i]].
	l0  []uint32
	l0n []int32

	// Upper-layer arenas: node i's layer-L (1-based) band is
	// up[(upOff[i]+L-1)*m : ...+upN[...]].  upOff is the prefix sum of
	// levels, so only nodes that reach a layer pay for slots there.
	upOff []int32
	up    []uint32
	upN   []int32

	entry    int32 // highest-level node, the search entry point
	maxLevel int32 // entry's upper-layer count

	scratch sync.Pool // *hnswScratch, sized to this index

	// evals counts the distances searches have evaluated (DistanceEvals).
	evals atomic.Uint64
}

// --- deterministic level assignment ---

// splitmix64 is the level-assignment RNG: one independent, well-mixed
// 64-bit draw per (seed, node) pair, so levels are a pure function of the
// build spec — no RNG stream to advance in insertion order, which is what
// lets the parallel build stay reproducible.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// nodeLevel draws node i's upper-layer count: the geometric-like
// floor(-ln(U)·mL) of the paper, capped so a pathological draw cannot
// allocate an absurd tower.
func nodeLevel(seed int64, i int, mL float64) int32 {
	const maxTower = 30
	u := splitmix64(uint64(seed) ^ splitmix64(uint64(i)+0x51_7C_C1B7_2722_0A95))
	// 53 high bits → uniform in (0, 1]; the +1 excludes zero.
	f := (float64(u>>11) + 1) / (1 << 53)
	lvl := int32(-math.Log(f) * mL)
	if lvl > maxTower {
		lvl = maxTower
	}
	return lvl
}

// insertionOrder is the seeded permutation BuildHNSW inserts nodes in: a
// Fisher–Yates shuffle on the level towers' splitmix64 stream (another
// salt), a pure function of (seed, n).  Row order would tie graph quality to
// the store's layout: over rows sorted by locality (an HDSearch shard) the
// early nodes share one corner of the space and the base layer disconnects.
func insertionOrder(seed int64, n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := splitmix64(uint64(seed)^splitmix64(uint64(i)+0x2545_F491_4F6C_DD1D)) % uint64(i+1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// --- build ---

// spinLock is the per-node latch guarding a pending reciprocal-edge list
// during the parallel link phase.  Critical sections are a few appends, so
// spinning (with a Gosched backoff) beats parking a worker.
type spinLock struct{ v atomic.Uint32 }

func (l *spinLock) lock() {
	for !l.v.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}
func (l *spinLock) unlock() { l.v.Store(0) }

// pendEdge is one reciprocal edge discovered during a round's parallel
// search phase: src selected the owning node as a neighbor at layer.
type pendEdge struct {
	src   uint32
	layer int32
}

// pendList collects a node's incoming edges for the round under its own
// spinlock.
type pendList struct {
	lock  spinLock
	edges []pendEdge
}

// fillHNSW applies the HNSW config defaults.
func (cfg *Config) fillHNSW() error {
	if cfg.M <= 0 {
		cfg.M = 16
	}
	if cfg.M < 2 {
		return fmt.Errorf("ann: hnsw M %d < 2", cfg.M)
	}
	if cfg.EFConstruction <= 0 {
		cfg.EFConstruction = 200
	}
	if cfg.EFConstruction < cfg.M {
		cfg.EFConstruction = cfg.M
	}
	if cfg.EFSearch <= 0 {
		cfg.EFSearch = 64
	}
	return nil
}

// BuildHNSW constructs the graph over the store's rows.  The store is
// captured, not copied.
//
// Construction is round-synchronized so it is both parallel and
// deterministic: nodes join the graph in a seeded permutation of the rows
// (insertionOrder), in fixed-size rounds, and
// within a round every insertion's beam search runs against the frozen
// pre-round graph on the index-stealing parallel-for (the expensive part —
// all distance evaluations — is embarrassingly parallel).  Each insertion
// writes its own adjacency bands directly (nothing else touches them while
// the round's searches cannot reach in-round nodes) and records the
// reciprocal edges it owes its selected neighbors in per-node spinlocked
// pending lists.  A second parallel pass then folds each touched node's
// pending edges in — sorted by source ID, re-running the selection
// heuristic on overflow — so the final adjacency depends only on (corpus,
// config, seed), never on worker interleaving.  The level tower itself is
// drawn per node from the seeded splitmix64 stream before any insertion.
func BuildHNSW(store *kernel.Store, cfg Config) (*HNSW, error) {
	n := store.Len()
	if err := cfg.fillHNSW(); err != nil {
		return nil, err
	}
	h := &HNSW{
		store: store,
		m:     cfg.M,
		mmax0: 2 * cfg.M,
		efCon: cfg.EFConstruction,
		defEF: cfg.EFSearch,
		entry: -1,
	}
	h.scratch.New = func() any { return newHNSWScratch(n) }
	if n == 0 {
		return h, nil
	}

	// Levels first: a pure function of (seed, node), so the arena sizes and
	// the entry point are known before any insertion runs.
	mL := 1 / math.Log(float64(cfg.M))
	h.levels = make([]int32, n)
	h.upOff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		h.levels[i] = nodeLevel(cfg.Seed, i, mL)
		h.upOff[i+1] = h.upOff[i] + h.levels[i]
	}
	h.l0 = make([]uint32, n*h.mmax0)
	h.l0n = make([]int32, n)
	totUp := int(h.upOff[n])
	h.up = make([]uint32, totUp*h.m)
	h.upN = make([]int32, totUp)

	// The first node in insertion order seeds the graph; its tower sets the
	// initial entry point.
	order := insertionOrder(cfg.Seed, n)
	h.entry, h.maxLevel = order[0], h.levels[order[0]]

	pend := make([]pendList, n)
	par := kernel.Default().Parallelism()

	for done := 1; done < n; {
		// Round size: half the built prefix, capped.  In-round nodes cannot
		// select each other, so each round's blind spot is at most a third
		// of the graph it lands in — and the early rounds stay tiny (1, 1,
		// 2, 3, …) so the seed nodes cross-link densely, which is what
		// keeps the base layer connected.  The cap bounds the blind spot to
		// a sliver at corpus scale while still giving the parallel-for
		// thousands of independent beam searches per round.
		batch := done / 2
		if batch < 1 {
			batch = 1
		}
		if batch > hnswRoundCap {
			batch = hnswRoundCap
		}
		if batch > n-done {
			batch = n - done
		}

		// Phase A: every insertion in the round searches the frozen
		// pre-round graph and links itself outward.
		entry, maxLevel := h.entry, h.maxLevel
		kernel.ParallelFor(par, batch, func(_, lo, hi int) {
			sc := h.scratch.Get().(*hnswScratch)
			for idx := lo; idx < hi; idx++ {
				h.insert(int(order[done+idx]), entry, maxLevel, pend, sc)
			}
			h.scratch.Put(sc)
		})

		// Phase B: fold the round's reciprocal edges into their targets —
		// one worker per target, additions applied in sorted source order,
		// heuristic re-selection on overflow.  Deterministic because the
		// edge multiset is fixed by phase A and each target is processed
		// alone.
		kernel.ParallelFor(par, done+batch, func(_, lo, hi int) {
			sc := h.scratch.Get().(*hnswScratch)
			for _, i := range order[lo:hi] {
				if len(pend[i].edges) > 0 {
					h.applyPending(int(i), &pend[i], sc)
				}
			}
			h.scratch.Put(sc)
		})

		// Entry update: the tallest tower wins; ties keep the earliest
		// inserted node, so the entry point is deterministic too.
		for _, i := range order[done : done+batch] {
			if h.levels[i] > h.maxLevel {
				h.maxLevel = h.levels[i]
				h.entry = i
			}
		}
		done += batch
	}
	return h, nil
}

// hnswRoundCap bounds the in-round blind spot (nodes in the same round
// never select each other) to a sliver of the corpus at scale.
const hnswRoundCap = 4096

// insert runs one node's outward linking against the frozen graph: greedy
// descent through layers above its tower, then a beam search and heuristic
// selection per layer it occupies.  The node's own bands are written
// directly; the reciprocal edges are queued on the targets' spinlocked
// pending lists.
func (h *HNSW) insert(node int, entry int32, maxLevel int32, pend []pendList, sc *hnswScratch) {
	q := h.store.Row(node)
	qn := h.store.Norm2(node)

	ep := entry
	epD := kernel.DistAt(h.store, q, qn, int(ep))
	for L := maxLevel; L > h.levels[node]; L-- {
		ep, epD = h.greedy(q, qn, ep, epD, L, sc)
	}

	top := min32(h.levels[node], maxLevel)
	for L := top; L >= 0; L-- {
		cands := h.searchLayer(q, qn, ep, epD, h.efCon, L, sc)
		sel := h.selectNeighbors(node, cands, h.m, sc)
		if L == 0 {
			base := node * h.mmax0
			h.l0n[node] = int32(copy(h.l0[base:base+h.mmax0], sel))
		} else {
			off := (int(h.upOff[node]) + int(L) - 1) * h.m
			h.upN[int(h.upOff[node])+int(L)-1] = int32(copy(h.up[off:off+h.m], sel))
		}
		for _, j := range sel {
			p := &pend[j]
			p.lock.lock()
			p.edges = append(p.edges, pendEdge{src: uint32(node), layer: L})
			p.lock.unlock()
		}
		if len(cands) > 0 {
			ep, epD = int32(cands[0].ID), cands[0].Distance
		}
	}
}

// applyPending folds one node's round-accumulated incoming edges into its
// adjacency bands, deterministically: per layer, additions merge in
// ascending source order; on overflow the selection heuristic re-picks the
// band from the union.
func (h *HNSW) applyPending(node int, p *pendList, sc *hnswScratch) {
	edges := p.edges
	p.edges = edges[:0]
	// Sort by (layer, src) — insertion order varies with worker timing,
	// the sorted order does not.  Lists are short; insertion sort avoids
	// an interface-boxed sort call.
	for i := 1; i < len(edges); i++ {
		e := edges[i]
		j := i - 1
		for j >= 0 && (edges[j].layer > e.layer || (edges[j].layer == e.layer && edges[j].src > e.src)) {
			edges[j+1] = edges[j]
			j--
		}
		edges[j+1] = e
	}
	for lo := 0; lo < len(edges); {
		hi := lo
		L := edges[lo].layer
		for hi < len(edges) && edges[hi].layer == L {
			hi++
		}
		h.mergeBand(node, L, edges[lo:hi], sc)
		lo = hi
	}
}

// mergeBand merges the sorted same-layer additions into node's layer-L band.
func (h *HNSW) mergeBand(node int, L int32, adds []pendEdge, sc *hnswScratch) {
	var band []uint32
	var cnt *int32
	var cap_ int
	if L == 0 {
		band = h.l0[node*h.mmax0 : (node+1)*h.mmax0]
		cnt = &h.l0n[node]
		cap_ = h.mmax0
	} else {
		slot := int(h.upOff[node]) + int(L) - 1
		band = h.up[slot*h.m : (slot+1)*h.m]
		cnt = &h.upN[slot]
		cap_ = h.m
	}
	n := int(*cnt)
	for _, e := range adds {
		if n < cap_ {
			band[n] = e.src
			n++
			continue
		}
		// Overflow: re-select the band from current ∪ remaining additions
		// with the same diversity heuristic insertions use.  Gather the
		// union with exact distances to the owning node, sorted.
		union := sc.union[:0]
		row, rn := h.store.Row(node), h.store.Norm2(node)
		seen := func(id uint32, list []knn.Neighbor) bool {
			for _, u := range list {
				if u.ID == id {
					return true
				}
			}
			return false
		}
		for _, id := range band[:n] {
			union = append(union, knn.Neighbor{ID: id, Distance: kernel.DistAt(h.store, row, rn, int(id))})
		}
		for _, a := range adds {
			if !seen(a.src, union) {
				union = append(union, knn.Neighbor{ID: a.src, Distance: kernel.DistAt(h.store, row, rn, int(a.src))})
			}
		}
		sortNeighbors(union)
		sc.union = union
		sel := h.selectNeighbors(node, union, cap_, sc)
		n = copy(band, sel)
		*cnt = int32(n)
		return
	}
	*cnt = int32(n)
}

// sortNeighbors orders by (distance, id) ascending — the engine's total
// order — with an insertion sort (bands and candidate lists are short).
func sortNeighbors(ns []knn.Neighbor) {
	for i := 1; i < len(ns); i++ {
		e := ns[i]
		j := i - 1
		for j >= 0 && (ns[j].Distance > e.Distance || (ns[j].Distance == e.Distance && ns[j].ID > e.ID)) {
			ns[j+1] = ns[j]
			j--
		}
		ns[j+1] = e
	}
}

// selectNeighbors is the Malkov-Yashunin diversity heuristic (Algorithm 4):
// walk the candidates in ascending distance to the base node and keep one
// only if it is closer to the base than to every neighbor already kept —
// pruning candidates that a kept neighbor already covers, which is what
// keeps the graph navigable across cluster boundaries.  Pruned candidates
// backfill unused slots (the keepPrunedConnections variant), so a node never
// wastes degree budget.  Pairwise distances run on the store's SIMD row
// kernel.  Candidates must arrive sorted by (distance, id); the result is
// deterministic.
func (h *HNSW) selectNeighbors(node int, cands []knn.Neighbor, k int, sc *hnswScratch) []uint32 {
	sel := sc.sel[:0]
	pruned := sc.pruned[:0]
	for _, c := range cands {
		if len(sel) >= k {
			break
		}
		if int(c.ID) == node {
			continue
		}
		keep := true
		for _, s := range sel {
			if kernel.RowDist(h.store, int(c.ID), int(s)) < c.Distance {
				keep = false
				break
			}
		}
		if keep {
			sel = append(sel, c.ID)
		} else {
			pruned = append(pruned, c.ID)
		}
	}
	for _, id := range pruned {
		if len(sel) >= k {
			break
		}
		sel = append(sel, id)
	}
	sc.sel, sc.pruned = sel, pruned[:0]
	return sel
}

// neighbors returns node's layer-L band as a view of the flat arena.
func (h *HNSW) neighbors(node int, L int32) []uint32 {
	if L == 0 {
		base := node * h.mmax0
		return h.l0[base : base+int(h.l0n[node])]
	}
	slot := int(h.upOff[node]) + int(L) - 1
	return h.up[slot*h.m : slot*h.m+int(h.upN[slot])]
}

// greedy is the upper-layer descent: hop to the strictly closest neighbor
// until no neighbor improves — the ef=1 walk of the paper.
func (h *HNSW) greedy(q []float32, qn float32, ep int32, epD float32, L int32, sc *hnswScratch) (int32, float32) {
	for {
		improved := false
		band := h.neighbors(int(ep), L)
		sc.evals += len(band)
		for _, nb := range band {
			if d := kernel.DistAt(h.store, q, qn, int(nb)); d < epD {
				ep, epD = int32(nb), d
				improved = true
			}
		}
		if !improved {
			return ep, epD
		}
	}
}

// --- search scratch ---

// hnswScratch recycles one traversal's state: the visited bitmap, the
// candidate min-heap, the bounded result heap, and the band/selection
// buffers the build phases reuse.
type hnswScratch struct {
	// visited is one bit per node.  The bitmap costs an O(n/64) clear per
	// traversal (a 100k-node graph clears ~12.5 KB — noise next to one
	// beam's distance work), and in exchange the whole structure stays
	// cache-resident, so the per-neighbor membership probes on the beam's
	// hot path never contend with the vector rows for cache lines the way
	// a word-per-node epoch array does.
	visited []uint64
	cand    []knn.Neighbor // min-heap by (distance, id)
	top     kernel.TopK
	ids     []uint32
	union   []knn.Neighbor
	sel     []uint32
	pruned  []uint32
	nbrIDs  []uint32  // unvisited slice of the band being expanded
	nbrD    []float32 // their batched distances
	// evals counts the distances evaluated since a caller last zeroed it.
	evals int
}

func newHNSWScratch(n int) *hnswScratch {
	return &hnswScratch{visited: make([]uint64, (n+63)/64)}
}

// visit stamps node i, reporting whether it was already stamped.
func (sc *hnswScratch) visit(i uint32) bool {
	w, b := i>>6, uint64(1)<<(i&63)
	if sc.visited[w]&b != 0 {
		return true
	}
	sc.visited[w] |= b
	return false
}

// clearVisited resets the bitmap for a fresh traversal.
func (sc *hnswScratch) clearVisited() {
	for i := range sc.visited {
		sc.visited[i] = 0
	}
}

// candidate min-heap: nearest on top, ties by ID — the same total order as
// the engine's TopK, so traversal order (and with it the whole build) is
// deterministic.
func candLess(a, b knn.Neighbor) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.ID < b.ID
}

func (sc *hnswScratch) candPush(n knn.Neighbor) {
	sc.cand = append(sc.cand, n)
	h := sc.cand
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !candLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (sc *hnswScratch) candPop() knn.Neighbor {
	h := sc.cand
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	sc.cand = h[:last]
	h = sc.cand
	i := 0
	for {
		best := i
		if l := 2*i + 1; l < last && candLess(h[l], h[best]) {
			best = l
		}
		if r := 2*i + 2; r < last && candLess(h[r], h[best]) {
			best = r
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top
}

// searchLayer is the bounded-candidate beam search (Algorithm 2): expand the
// nearest unexpanded candidate until none can beat the worst of the ef best
// found so far.  Every neighbor evaluation is one norm-trick SIMD distance
// plus a streaming TopK threshold test; the visited set is a cache-resident
// bitmap.  Returns the ef nearest found, sorted ascending, in sc.union.
func (h *HNSW) searchLayer(q []float32, qn float32, ep int32, epD float32, ef int, L int32, sc *hnswScratch) []knn.Neighbor {
	sc.clearVisited()
	sc.cand = sc.cand[:0]
	sc.top.Reset(ef)

	sc.visit(uint32(ep))
	sc.top.Consider(uint32(ep), epD)
	sc.candPush(knn.Neighbor{ID: uint32(ep), Distance: epD})

	for len(sc.cand) > 0 {
		c := sc.candPop()
		if c.Distance > sc.top.Threshold() {
			break
		}
		// Two passes over the band: first gather the unvisited neighbors
		// and batch their distances through one DistMany call — scattered
		// rows, independent iterations, so the cache misses overlap — then
		// apply the threshold/heap updates in band order.  Same distances,
		// same order, same results as the fused loop; only the misses land
		// concurrently instead of back to back.
		sc.nbrIDs = sc.nbrIDs[:0]
		for _, nb := range h.neighbors(int(c.ID), L) {
			if !sc.visit(nb) {
				sc.nbrIDs = append(sc.nbrIDs, nb)
			}
		}
		sc.nbrD = kernel.DistMany(h.store, q, qn, sc.nbrIDs, sc.nbrD[:0])
		sc.evals += len(sc.nbrIDs)
		for i, nb := range sc.nbrIDs {
			// Threshold returns +max until the heap fills, so this one
			// test is both "still filling" and "beats the worst kept".
			if d := sc.nbrD[i]; d <= sc.top.Threshold() {
				sc.top.Consider(nb, d)
				sc.candPush(knn.Neighbor{ID: nb, Distance: d})
			}
		}
	}
	sc.union = sc.top.AppendSorted(sc.union[:0])
	return sc.union
}

// --- public surface ---

// Len reports the number of indexed rows.
func (h *HNSW) Len() int { return h.store.Len() }

// Dim reports the indexed dimensionality.
func (h *HNSW) Dim() int { return h.store.Dim() }

// CompressedBytes implements Searcher; HNSW keeps no compressed candidate
// store (all scoring is exact float32), so it reports 0.
func (h *HNSW) CompressedBytes() int { return 0 }

// Fingerprint folds the complete graph structure — levels, adjacency bands,
// and entry point — into one FNV-1a hash, so tests can assert two builds
// are byte-identical without exporting the arenas.
func (h *HNSW) Fingerprint() uint64 {
	f := fnvNew()
	f = fnvInt(f, uint64(h.m))
	f = fnvInt(f, uint64(uint32(h.entry)))
	f = fnvInt(f, uint64(uint32(h.maxLevel)))
	for i, lv := range h.levels {
		f = fnvInt(f, uint64(uint32(lv)))
		f = fnvInt(f, uint64(uint32(h.l0n[i])))
		for _, nb := range h.neighbors(i, 0) {
			f = fnvInt(f, uint64(nb))
		}
		for L := int32(1); L <= lv; L++ {
			for _, nb := range h.neighbors(i, L) {
				f = fnvInt(f, uint64(nb))
			}
		}
	}
	return f
}

// Search appends the k nearest rows to the query (squared Euclidean, ties by
// ID) found by the graph traversal.  ef is the layer-0 beam width — the
// efSearch knob; ≤ 0 takes the build default, and it is floored at k.  The
// rerank knob is accepted for wire compatibility with the IVF kinds and
// ignored: every beam evaluation is already an exact float32 kernel
// distance.  The ef survivors go through the engine's subset scan for final
// selection, so reported distances come from the same accounted kernel path
// as every other leaf scan.  Search takes no locks: after Build the graph
// is immutable, so any number of searches proceed concurrently.
func (h *HNSW) Search(eng *kernel.Engine, q []float32, k, ef, _ int, dst []knn.Neighbor) ([]knn.Neighbor, error) {
	if h.store.Len() == 0 {
		return dst, nil
	}
	if len(q) != h.store.Dim() {
		return dst, vec.ErrDimensionMismatch
	}
	if k <= 0 {
		return dst, nil
	}
	if ef <= 0 {
		ef = h.defEF
	}
	if ef < k {
		ef = k
	}

	sc := h.scratch.Get().(*hnswScratch)
	sc.evals = 1 // the entry point's, next
	qn := kernel.Dot(q, q)
	ep := h.entry
	epD := kernel.DistAt(h.store, q, qn, int(ep))
	for L := h.maxLevel; L >= 1; L-- {
		ep, epD = h.greedy(q, qn, ep, epD, L, sc)
	}
	found := h.searchLayer(q, qn, ep, epD, ef, 0, sc)
	sc.ids = sc.ids[:0]
	for _, n := range found {
		sc.ids = append(sc.ids, n.ID)
	}
	dst, err := eng.ScanSubset(h.store, q, sc.ids, k, dst)
	h.evals.Add(uint64(sc.evals + len(sc.ids)))
	h.scratch.Put(sc)
	return dst, err
}

// DistanceEvals reports how many (query, row) distances every Search so far
// has evaluated between them: the entry point's, the upper layers' greedy
// hops, the beam's expansions and the final selection over its survivors.  It
// is a pure function of the graph and the queries — the work a traversal does
// in the unit a full scan's n is in — so a gate can bound it where a latency
// ratio moves with the host and with the scan kernel it is measured against.
func (h *HNSW) DistanceEvals() uint64 { return h.evals.Load() }

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}
