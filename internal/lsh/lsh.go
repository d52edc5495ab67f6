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
// dot kernel over it; each table's buckets are CSR ranges, grouped by shard
// when the index is built, of (word, mask) entries — a bucket's members 64
// local point IDs at a time; and a query ORs its buckets into a pooled
// per-shard bitmap whose non-zero words are the answer as they stand
// (kernel.RowSet), so no candidate is handled as an integer and a lookup into
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
	// offs delimits the entries per (bucket, shard): bucket ordinal b holds
	// shard s's points in entries offs[b·shards+s] to offs[b·shards+s+1],
	// entry i being the points of 64-row word words[i] of the shard's local
	// IDs that fall in the bucket, as the bits of masks[i]; words ascend
	// within a range.  len(offs) = len(keys)·shards + 1.
	offs  []uint32
	words []uint32
	masks []uint64
	// wordStart[s] is where shard s's dedup bitmap begins in a scratch's
	// dense words; wordStart[shards] is the total word count.
	wordStart []int
	scratch   sync.Pool
}

// lookupScratch is one lookup's dedup bitmap, one bit per indexed point.  It
// is all zero between lookups: collecting the answer clears what the gather
// set.  sets is LookupByShard's answer before it is expanded.
type lookupScratch struct {
	dense []uint64
	sets  []kernel.RowSet
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
	// Entries are at most a point per table, a table's (bucket, shard)
	// ranges at most its points times the shards: both are numbered in 32 bits.
	if uint64(max(cfg.Tables, len(stores)))*uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("lsh: %d points in %d tables over %d shards overflow the 32-bit entry offsets", n, cfg.Tables, len(stores))
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

	// Counting sort per table into (bucket, shard) ranges of (word, mask)
	// entries.  Rows are visited in shard-major, local-ascending order, so
	// within a range a row either falls in the word of the row before it or
	// opens the next entry.  The first pass overwrites each signature with
	// its range and sizes the ranges; the second fills them.
	idx.tableStart = make([]int, cfg.Tables+1)
	var keys, last []uint32
	for t := 0; t < cfg.Tables; t++ {
		tsigs := sigs[t*n : (t+1)*n]
		keys = append(keys[:0], tsigs...)
		slices.Sort(keys)
		keys = slices.Compact(keys)
		idx.keys = append(idx.keys, keys...)
		idx.tableStart[t+1] = len(idx.keys)

		// offs holds each range's entry count until the prefix sum below;
		// last is the word of the range's newest entry.
		base := len(idx.offs)
		idx.offs = append(idx.offs, make([]uint32, len(keys)*idx.shards)...)
		counts := idx.offs[base:]
		last = slices.Grow(last[:0], len(counts))[:len(counts)]
		for i := range last {
			last[i] = math.MaxUint32
		}
		for s := range stores {
			for g := rowStart[s]; g < rowStart[s+1]; g++ {
				b, _ := slices.BinarySearch(keys, tsigs[g])
				slot := uint32(b*idx.shards + s)
				tsigs[g] = slot
				if w := uint32(g-rowStart[s]) >> 6; last[slot] != w {
					last[slot] = w
					counts[slot]++
				}
			}
		}
	}
	entries := uint32(0)
	for i, c := range idx.offs {
		idx.offs[i] = entries
		entries += c
	}
	idx.offs = append(idx.offs, entries)
	idx.words = make([]uint32, entries)
	idx.masks = make([]uint64, entries)
	var next []uint32 // each range's fill cursor in the current table
	for t := 0; t < cfg.Tables; t++ {
		slots := sigs[t*n : (t+1)*n]
		first := idx.tableStart[t] * idx.shards
		next = append(next[:0], idx.offs[first:idx.tableStart[t+1]*idx.shards]...)
		for s := range stores {
			for g := rowStart[s]; g < rowStart[s+1]; g++ {
				slot, local := slots[g], uint32(g-rowStart[s])
				at := next[slot]
				if at == idx.offs[first+int(slot)] || idx.words[at-1] != local>>6 {
					idx.words[at] = local >> 6
					at++
					next[slot] = at
				}
				idx.masks[at-1] |= 1 << (local & 63)
			}
		}
	}

	dense := idx.wordStart[idx.shards]
	idx.scratch.New = func() any { return &lookupScratch{dense: make([]uint64, dense)} }
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
// to exactly Shards() sets — a longer dst, say one last used with an index
// over more shards, is cut to size — and set s is emptied and refilled with
// shard s's candidate points, the non-zero words of the lookup's dedup
// bitmap.  The sets are the caller's; reusing dst across calls makes a
// steady-state lookup allocation-free.  len(q) must equal Dim().
func (idx *Index) LookupInto(q []float32, dst []kernel.RowSet) []kernel.RowSet {
	sc := idx.scratch.Get().(*lookupScratch)
	dst = idx.lookup(sc.dense, q, dst)
	idx.scratch.Put(sc)
	return dst
}

// lookup is LookupInto on a given all-zero bitmap, which it leaves all zero.
func (idx *Index) lookup(dense []uint64, q []float32, dst []kernel.RowSet) []kernel.RowSet {
	dst = slices.Grow(dst[:0], idx.shards)[:idx.shards]
	idx.gather(dense, q)
	for s := range dst {
		dst[s].Collect(dense[idx.wordStart[s]:idx.wordStart[s+1]])
	}
	return dst
}

// LookupByShard returns LookupInto's candidates as a freshly allocated map,
// shard → ascending point IDs, which the caller owns — the list view of the
// sets, for callers that hold IDs.  Shards with no candidates are absent.
func (idx *Index) LookupByShard(q vec.Vector) map[int32][]uint32 {
	out := make(map[int32][]uint32, idx.shards)
	sc := idx.scratch.Get().(*lookupScratch)
	sc.sets = idx.lookup(sc.dense, q, sc.sets)
	for s, set := range sc.sets {
		if n := set.Count(); n > 0 {
			out[int32(s)] = set.AppendIDs(make([]uint32, 0, n))
		}
	}
	idx.scratch.Put(sc)
	return out
}

// gather sets, in an all-zero bitmap, the bit of every point sharing a
// bucket with q: the exact bucket of each table plus, with Probes > 0, the
// buckets across the Probes hyperplanes q lies closest to — the likeliest
// misclassifications.
func (idx *Index) gather(dense []uint64, q []float32) {
	nbits, probes := idx.cfg.Bits, idx.cfg.Probes
	for t := 0; t < idx.cfg.Tables; t++ {
		var projBuf [maxBits]float32
		proj := projBuf[:nbits]
		sig := idx.signature(t, q, proj)
		idx.mark(dense, t, sig)
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
			idx.mark(dense, t, sig^(1<<b))
		}
	}
}

// mark ORs table t's bucket sig into the bitmap, a word of each shard's
// members at a time; a range's words are distinct, so its ORs are independent.
func (idx *Index) mark(dense []uint64, t int, sig uint32) {
	first := idx.tableStart[t]
	b, ok := slices.BinarySearch(idx.keys[first:idx.tableStart[t+1]], sig)
	if !ok {
		return
	}
	base := (first + b) * idx.shards
	for s := 0; s < idx.shards; s++ {
		w := dense[idx.wordStart[s]:idx.wordStart[s+1]]
		lo, hi := idx.offs[base+s], idx.offs[base+s+1]
		masks := idx.masks[lo:hi]
		for i, word := range idx.words[lo:hi] {
			w[word] |= masks[i]
		}
	}
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
		n := 0
		for _, m := range idx.masks[idx.offs[b*idx.shards]:idx.offs[(b+1)*idx.shards]] {
			n += bits.OnesCount64(m)
		}
		s.MaxBucketSize = max(s.MaxBucketSize, n)
	}
	return s
}
