// Package lsh implements the multi-table, multi-probe locality-sensitive
// hashing index that HDSearch's mid-tier uses to prune the k-NN search
// space, in the style of the FLANN LSH index the paper extends.
//
// Following the paper, the index does not store feature vectors: each table
// entry references a {leaf shard, point ID} tuple, and the vectors
// themselves live in the leaves.  A query hashes into every table, gathers
// candidate tuples (optionally probing adjacent buckets, ordered by
// hyperplane margin), and returns the candidates grouped by shard so the
// mid-tier can fan one RPC out to each leaf.
//
// The index lives on flat arrays (DESIGN §5.5.1).  The hyperplanes are one
// tables×bits-row kernel.Store, so a signature is one pass of the leaves'
// dot kernel over it; each table's buckets are CSR ranges into one array of
// local point IDs, grouped by shard when the index is built; and a query
// dedups its candidates in a pooled per-shard bitmap, so a lookup into
// caller-owned buffers allocates nothing.
//
// Signs are taken from kernel.Dot, which sums in a different order from the
// 4-way scalar vec.Dot the index used before (AVX2/FMA lanes against four
// scalar accumulators).  A point or query whose projection onto some plane
// is within float32 rounding of zero can therefore land in the neighbouring
// bucket of that one table; everything else hashes identically for the same
// seed, which the package tests pin against a map-based reference.
package lsh

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"musuite/internal/kernel"
	"musuite/internal/vec"
)

// Config parameterizes an index.  More tables and probes raise recall at the
// cost of more candidates (larger leaf point lists); more bits shrink
// buckets.  The defaults are tuned so recall@1 ≥ 93% on clustered corpora,
// the paper's accuracy floor.
type Config struct {
	// Tables is the number of independent hash tables (default 8).
	Tables int
	// Bits is the signature width per table (default 12, max 30).
	Bits int
	// Probes is the number of extra adjacent buckets probed per table, the
	// ones across the hyperplanes the query is closest to.  The zero value
	// probes the exact bucket only — multi-probe is opt-in, and every
	// committed configuration and number runs without it.
	Probes int
	// Seed makes hyperplane generation deterministic.
	Seed int64
}

// maxBits caps the signature width; it also sizes the per-table stack
// buffers a lookup uses.
const maxBits = 30

func (c Config) withDefaults() Config {
	if c.Tables <= 0 {
		c.Tables = 8
	}
	if c.Bits <= 0 {
		c.Bits = 12
	}
	if c.Bits > maxBits {
		c.Bits = maxBits
	}
	if c.Probes < 0 {
		c.Probes = 2
	}
	if c.Probes > c.Bits {
		c.Probes = c.Bits
	}
	return c
}

// Index is a multi-table LSH index over {shard, point} entries.  Build is
// the paper's offline index-construction step; LookupInto is the mid-tier's
// query-path operation.  An Index is immutable once built and safe for
// concurrent lookups.
type Index struct {
	cfg    Config
	dim    int
	shards int
	size   int
	// planes holds the hyperplane normals, row t·Bits+b for bit b of
	// table t.
	planes *kernel.Store
	// keys are each table's occupied signatures in ascending order, table
	// t's in keys[tableStart[t]:tableStart[t+1]]; a signature's position
	// in keys is its bucket ordinal.
	keys       []uint32
	tableStart []int
	// offs delimits ids per (bucket, shard): bucket ordinal b holds shard
	// s's points in ids[offs[b·shards+s]:offs[b·shards+s+1]], local IDs in
	// ascending order.  len(offs) = len(keys)·shards + 1.
	offs []uint32
	ids  []uint32
	// wordStart[s] is where shard s's dedup bitmap begins in a scratch's
	// words; wordStart[shards] is the total word count.
	wordStart []int
	scratch   sync.Pool
}

// lookupScratch is one lookup's dedup bitmap, one bit per indexed point.  It
// is all zero between lookups: the drain clears what the gather set.
type lookupScratch struct {
	words []uint64
}

// Build indexes every row of the given stores, one store per leaf shard;
// row i of stores[s] is indexed as {shard s, point i}.  The same seed yields
// the same planes and, for the same stores, a byte-identical index on any
// number of CPUs.
func Build(stores []*kernel.Store, cfg Config) (*Index, error) {
	return build(stores, cfg, runtime.NumCPU())
}

// build is Build at a given parallel width.
func build(stores []*kernel.Store, cfg Config, par int) (*Index, error) {
	if len(stores) == 0 {
		return nil, errors.New("lsh: no shards")
	}
	cfg = cfg.withDefaults()
	idx := &Index{cfg: cfg, shards: len(stores)}
	// rowStart[s] is shard s's first row in the build's shard-major order.
	rowStart := make([]int, len(stores)+1)
	idx.wordStart = make([]int, len(stores)+1)
	for s, st := range stores {
		if st.Len() > 0 {
			if idx.dim == 0 {
				idx.dim = st.Dim()
			} else if st.Dim() != idx.dim {
				return nil, fmt.Errorf("lsh: shard %d has dim %d, index dim %d", s, st.Dim(), idx.dim)
			}
		}
		rowStart[s+1] = rowStart[s] + st.Len()
		idx.wordStart[s+1] = idx.wordStart[s] + (st.Len()+63)/64
	}
	if idx.dim == 0 {
		return nil, errors.New("lsh: no vectors to index")
	}
	n := rowStart[len(stores)]
	if uint64(cfg.Tables)*uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("lsh: %d tables × %d points overflow the 32-bit entry offsets", cfg.Tables, n)
	}
	idx.size = n

	idx.planes = NewPlanes(cfg.Seed, cfg.Tables*cfg.Bits, idx.dim)

	// Every row's signatures, table-major.  Rows are independent, so the
	// result does not depend on how the range is split.
	sigs := make([]uint32, cfg.Tables*n)
	kernel.ParallelFor(par, n, func(_, lo, hi int) {
		s := 0
		for g := lo; g < hi; g++ {
			for g >= rowStart[s+1] {
				s++
			}
			row := stores[s].Row(g - rowStart[s])
			for t := 0; t < cfg.Tables; t++ {
				sigs[t*n+g] = idx.signature(t, row, nil)
			}
		}
	})

	// Counting sort per table into (bucket, shard) ranges.  Rows are
	// visited in shard-major, local-ascending order, so each range comes
	// out ascending.
	idx.tableStart = make([]int, cfg.Tables+1)
	idx.ids = make([]uint32, cfg.Tables*n)
	slot := make([]int, n) // each row's (bucket, shard) range in the current table
	var keys, counts []uint32
	for t := 0; t < cfg.Tables; t++ {
		tsigs := sigs[t*n : (t+1)*n]
		keys = append(keys[:0], tsigs...)
		slices.Sort(keys)
		keys = slices.Compact(keys)
		idx.keys = append(idx.keys, keys...)
		idx.tableStart[t+1] = len(idx.keys)

		counts = slices.Grow(counts[:0], len(keys)*idx.shards)[:len(keys)*idx.shards]
		clear(counts)
		for s := range stores {
			for g := rowStart[s]; g < rowStart[s+1]; g++ {
				b, _ := slices.BinarySearch(keys, tsigs[g])
				slot[g] = b*idx.shards + s
				counts[slot[g]]++
			}
		}
		// counts → start offsets into ids, appended to offs; then reused
		// as the fill cursors.
		next := uint32(t * n)
		for i, c := range counts {
			idx.offs = append(idx.offs, next)
			counts[i] = next
			next += c
		}
		for s := range stores {
			for g := rowStart[s]; g < rowStart[s+1]; g++ {
				idx.ids[counts[slot[g]]] = uint32(g - rowStart[s])
				counts[slot[g]]++
			}
		}
	}
	idx.offs = append(idx.offs, uint32(cfg.Tables*n))

	words := idx.wordStart[idx.shards]
	idx.scratch.New = func() any { return &lookupScratch{words: make([]uint64, words)} }
	return idx, nil
}

// Size reports the number of indexed entries.
func (idx *Index) Size() int { return idx.size }

// Dim reports the indexed vector dimensionality.
func (idx *Index) Dim() int { return idx.dim }

// Shards reports the number of leaf shards the index was built over.
func (idx *Index) Shards() int { return idx.shards }

// signature computes the table-t hash of v.  A non-nil proj receives the
// per-bit projections, whose magnitudes order the multi-probe flips.
func (idx *Index) signature(t int, v []float32, proj []float32) uint32 {
	return Signature(idx.planes, t*idx.cfg.Bits, idx.cfg.Bits, v, proj)
}

// NewPlanes draws n random hyperplane normals of dimension dim > 0 as one
// kernel.Store, row → dim from one seeded stream — the order the index's
// planes were always drawn in (table → bit → dim), so a seed keeps its planes.
func NewPlanes(seed int64, n, dim int) *kernel.Store {
	rng := rand.New(rand.NewSource(seed))
	flat := make([]float32, n*dim)
	for i := range flat {
		flat[i] = float32(rng.NormFloat64())
	}
	planes, err := kernel.FromFlat(flat, dim)
	if err != nil {
		panic("lsh: " + err.Error())
	}
	return planes
}

// Signature is the sign pattern of v against planes first … first+bits−1,
// bit b set when v is on the non-negative side of plane first+b — the hash
// under the index's tables and under an HDSearch leaf store's row order.  A
// non-nil proj receives the bits projections.
func Signature(planes *kernel.Store, first, bits int, v, proj []float32) uint32 {
	var sig uint32
	for b := 0; b < bits; b++ {
		p := kernel.Dot(planes.Row(first+b), v)
		if proj != nil {
			proj[b] = p
		}
		if p >= 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

// LookupInto gathers query q's candidates across all tables, with
// multi-probe expansion, and writes them grouped by shard: dst is resized
// to exactly Shards() lists — a longer dst, say one last used with an index
// over more shards, is cut to size — and list s is truncated and refilled
// with shard s's deduplicated candidate point IDs in ascending order.  The
// lists are the caller's; reusing dst across calls makes a steady-state
// lookup allocation-free.  len(q) must equal Dim().
func (idx *Index) LookupInto(q []float32, dst [][]uint32) [][]uint32 {
	dst = slices.Grow(dst[:0], idx.shards)[:idx.shards]
	sc := idx.scratch.Get().(*lookupScratch)
	idx.gather(sc.words, q)
	for s := range dst {
		dst[s] = idx.drain(sc.words, s, dst[s][:0])
	}
	idx.scratch.Put(sc)
	return dst
}

// LookupByShard returns LookupInto's candidates as a freshly allocated map,
// shard → point IDs, which the caller owns.  Shards with no candidates are
// absent.
func (idx *Index) LookupByShard(q vec.Vector) map[int32][]uint32 {
	out := make(map[int32][]uint32, idx.shards)
	var lists [8][]uint32 // stays on the stack for up to 8 shards
	for s, ids := range idx.LookupInto(q, lists[:0]) {
		if len(ids) > 0 {
			out[int32(s)] = ids
		}
	}
	return out
}

// gather sets, in an all-zero bitmap, the bit of every point sharing a
// bucket with q: the exact bucket of each table plus, with Probes > 0, the
// buckets across the Probes hyperplanes q lies closest to — the likeliest
// misclassifications.
func (idx *Index) gather(words []uint64, q []float32) {
	nbits, probes := idx.cfg.Bits, idx.cfg.Probes
	for t := 0; t < idx.cfg.Tables; t++ {
		var projBuf [maxBits]float32
		proj := projBuf[:nbits]
		sig := idx.signature(t, q, proj)
		idx.mark(words, t, sig)
		if probes == 0 {
			continue
		}
		// Insertion-select the bits with the smallest |projection| into
		// flip[:probes], nearest first; ties keep the lower bit first.
		var flip [maxBits]uint8
		for b := range proj {
			proj[b] = abs32(proj[b])
			i := min(b, probes)
			for ; i > 0 && proj[flip[i-1]] > proj[b]; i-- {
				if i < probes {
					flip[i] = flip[i-1]
				}
			}
			if i < probes {
				flip[i] = uint8(b)
			}
		}
		for _, b := range flip[:probes] {
			idx.mark(words, t, sig^(1<<b))
		}
	}
}

// mark sets the bitmap bit of every point in table t's bucket sig.
func (idx *Index) mark(words []uint64, t int, sig uint32) {
	first := idx.tableStart[t]
	b, ok := slices.BinarySearch(idx.keys[first:idx.tableStart[t+1]], sig)
	if !ok {
		return
	}
	base := (first + b) * idx.shards
	for s := 0; s < idx.shards; s++ {
		w := words[idx.wordStart[s]:idx.wordStart[s+1]]
		for _, id := range idx.ids[idx.offs[base+s]:idx.offs[base+s+1]] {
			w[id>>6] |= 1 << (id & 63)
		}
	}
}

// drain appends shard s's marked point IDs to dst and zeroes its part of the
// bitmap.  Each set bit is one candidate however many buckets marked it, and
// taking bits lowest-first yields ascending IDs.  dst grows at most once, to
// the exact count.
func (idx *Index) drain(words []uint64, s int, dst []uint32) []uint32 {
	words = words[idx.wordStart[s]:idx.wordStart[s+1]]
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return dst
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]uint32, 0, len(dst)+n), dst...)
	}
	for wi, w := range words {
		if w == 0 {
			continue
		}
		words[wi] = 0
		for ; w != 0; w &= w - 1 {
			dst = append(dst, uint32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

// Stats summarizes index shape for capacity planning.
type Stats struct {
	Tables        int
	Entries       int
	Buckets       int
	MaxBucketSize int
}

// Stats reports index occupancy.
func (idx *Index) Stats() Stats {
	s := Stats{Tables: idx.cfg.Tables, Entries: idx.size, Buckets: len(idx.keys)}
	for b := range idx.keys {
		if n := int(idx.offs[(b+1)*idx.shards] - idx.offs[b*idx.shards]); n > s.MaxBucketSize {
			s.MaxBucketSize = n
		}
	}
	return s
}
