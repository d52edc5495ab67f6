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
// tables×bits-row kernel.Store, so every table's signature of a vector is
// one kernel.Project call over it; each table's buckets are CSR ranges,
// placed by a radix sort on both cores when the index is built and grouped
// by shard, of (word, mask) entries — a bucket's members 64
// local point IDs at a time; and a query ORs its buckets into a pooled
// per-shard bitmap whose non-zero words are the answer as they stand
// (kernel.RowSet), so no candidate is handled as an integer and a lookup into
// caller-owned buffers allocates nothing.
//
// Signs are taken from kernel.Project, each product kernel.Dot's bits, whose
// summation order (AVX2/FMA lanes where the CPU has them) decides the sign
// of a projection within float32 rounding of zero: such a point or query may
// land in the neighbouring bucket of that one table under any other dot
// product.  The package tests pin the index against a map-based reference
// and its bytes to golden hashes.
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

// maxBits caps the signature width; it also sizes the stack buffer a
// lookup ranks a table's probe flips in.
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
// set.  proj receives the query's projections onto every plane; sets is
// LookupByShard's answer before it is expanded.
type lookupScratch struct {
	dense []uint64
	proj  []float32
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
	// ranges at most its points times the shards, and a row's position with
	// each shard starting on a word of its own (table.keys) under 64 a word:
	// all are numbered in 32 bits.
	if uint64(max(cfg.Tables, len(stores)))*uint64(n) > math.MaxUint32 || uint64(idx.wordStart[len(stores)])*64 > math.MaxUint32+1 {
		return nil, fmt.Errorf("lsh: %d points in %d tables over %d shards overflow the 32-bit entry offsets", n, cfg.Tables, len(stores))
	}
	idx.size = n

	idx.planes = NewPlanes(cfg.Seed, cfg.Tables*cfg.Bits, idx.dim)

	// Every row's signatures, table-major, from one projection per row onto
	// all the planes.  Rows are independent, so the result does not depend
	// on how the range is split.
	sigs := make([]uint32, cfg.Tables*n)
	kernel.ParallelFor(par, n, func(lo, hi int) {
		proj := make([]float32, cfg.Tables*cfg.Bits)
		pattern := make([]uint64, (len(proj)+63)/64) // proj's signs, bit b for plane b
		s := 0
		for g := lo; g < hi; g++ {
			for g >= rowStart[s+1] {
				s++
			}
			kernel.Project(idx.planes, 0, stores[s].Row(g-rowStart[s]), proj)
			for w := range pattern {
				pattern[w] = kernel.NonNegative(proj[w*64 : min(w*64+64, len(proj))])
			}
			for t := 0; t < cfg.Tables; t++ {
				// Table t's bits, which may straddle two words.
				at := uint(t * cfg.Bits)
				sig := pattern[at/64] >> (at % 64)
				if at%64+uint(cfg.Bits) > 64 {
					sig |= pattern[at/64+1] << (64 - at%64)
				}
				sigs[t*n+g] = uint32(sig) & (1<<cfg.Bits - 1)
			}
		}
	})

	// Each table's rows in bucket order, counted, then placed: tables are
	// independent, and where one's buckets and entries start in the shared
	// arrays is the sum of the sizes of those before it.
	tabs := make([]table, cfg.Tables)
	kernel.ParallelEach(par, cfg.Tables, func(t int) {
		tabs[t].sort(sigs[t*n:(t+1)*n], rowStart, idx.wordStart, cfg.Bits)
	})
	idx.tableStart = make([]int, cfg.Tables+1)
	entryStart := make([]int, cfg.Tables+1)
	for t, tab := range tabs {
		idx.tableStart[t+1] = idx.tableStart[t] + tab.buckets
		entryStart[t+1] = entryStart[t] + tab.entries
	}
	idx.keys = make([]uint32, idx.tableStart[cfg.Tables])
	idx.offs = make([]uint32, idx.tableStart[cfg.Tables]*idx.shards+1)
	idx.words = make([]uint32, entryStart[cfg.Tables])
	idx.masks = make([]uint64, entryStart[cfg.Tables])
	kernel.ParallelEach(par, cfg.Tables, func(t int) {
		tabs[t].place(idx, idx.tableStart[t], entryStart[t])
	})
	idx.offs[len(idx.offs)-1] = uint32(len(idx.words))

	dense := idx.wordStart[idx.shards]
	proj := cfg.Tables * cfg.Bits
	idx.scratch.New = func() any {
		return &lookupScratch{dense: make([]uint64, dense), proj: make([]float32, proj)}
	}
	return idx, nil
}

// table is one table's rows in bucket order, between the sort that finds
// its sizes and the pass that places it.  A row is keyed as
//
//	signature<<32 | wordStart[s]·64 + local
//
// for row local of shard s — its position with each shard's rows starting
// on a word of their own — so a key ascends with the signature, then the
// shard, then the row, and key>>6 names the entry the row belongs to.
type table struct {
	keys             []uint64
	buckets, entries int
}

// sort orders a table's rows by signature — stably, so a bucket's rows keep
// the shard-major, local-ascending order the keys are made in — and counts
// its buckets and entries.
func (tb *table) sort(sigs []uint32, rowStart, wordStart []int, bits int) {
	keys := make([]uint64, len(sigs))
	for s := 0; s+1 < len(rowStart); s++ {
		pos := uint64(wordStart[s]) * 64
		for g := rowStart[s]; g < rowStart[s+1]; g++ {
			keys[g] = uint64(sigs[g])<<32 | (pos + uint64(g-rowStart[s]))
		}
	}
	keys = SortBySignature(keys, bits)
	tb.keys = keys
	tb.buckets, tb.entries = 0, 0
	for i, k := range keys {
		if i == 0 || k>>32 != keys[i-1]>>32 {
			tb.buckets++
		}
		if i == 0 || k>>6 != keys[i-1]>>6 {
			tb.entries++
		}
	}
}

// SortBySignature sorts words of the form signature<<32 | payload by
// signature, each below 1<<bits, stably — words with one signature keep
// their order — and returns them, in words or in a new slice as long.  It is
// the LSD radix sort a table's rows are placed by: passes of at most 16
// bits, so one path serves every width up to 32, every pass's digits
// counted in one read before the first.
func SortBySignature(words []uint64, bits int) []uint64 {
	if bits <= 0 {
		return words
	}
	passes := (bits + 15) / 16
	width := uint(bits+passes-1) / uint(passes)
	digits, mask := 1<<width, uint64(1)<<width-1
	at := make([]uint32, passes*digits) // pass p's cursors from p·digits
	for _, w := range words {
		for p := 0; p < passes; p++ {
			at[p*digits+int(w>>(32+uint(p)*width)&mask)]++
		}
	}
	for p := 0; p < passes; p++ {
		cur, next := at[p*digits:(p+1)*digits], uint32(0)
		for d, c := range cur {
			cur[d] = next
			next += c
		}
	}
	src, dst := words, make([]uint64, len(words))
	for p := 0; p < passes; p++ {
		cur, shift := at[p*digits:(p+1)*digits], 32+uint(p)*width
		for _, w := range src {
			d := w >> shift & mask
			dst[cur[d]] = w
			cur[d]++
		}
		src, dst = dst, src
	}
	return src
}

// place writes the sorted table into idx, its buckets from ordinal bucket and
// its entries from entry on: each bucket's key, its (bucket, shard) range
// starts, and each range's (word, mask) entries.
func (tb *table) place(idx *Index, bucket, entry int) {
	shards, wordStart := idx.shards, idx.wordStart
	// next is the first range whose start is unwritten; a range starts
	// where the entries stand when its first row, or a later range's, comes.
	next, b, s := bucket*shards, bucket-1, 0
	e := entry
	for i, k := range tb.keys {
		if i == 0 || k>>32 != tb.keys[i-1]>>32 {
			b, s = b+1, 0
			idx.keys[b] = uint32(k >> 32)
		}
		pos := uint32(k)
		for pos>>6 >= uint32(wordStart[s+1]) {
			s++
		}
		for ; next <= b*shards+s; next++ {
			idx.offs[next] = uint32(e)
		}
		if i == 0 || k>>6 != tb.keys[i-1]>>6 {
			idx.words[e] = pos>>6 - uint32(wordStart[s])
			e++
		}
		idx.masks[e-1] |= 1 << (pos & 63)
	}
	for ; next < (bucket+tb.buckets)*shards; next++ {
		idx.offs[next] = uint32(e)
	}
}

// Dim reports the indexed vector dimensionality.
func (idx *Index) Dim() int { return idx.dim }

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
// non-nil proj receives the bits projections.  bits is at most 32.
func Signature(planes *kernel.Store, first, bits int, v, proj []float32) uint32 {
	var buf [32]float32
	if proj == nil {
		proj = buf[:]
	}
	proj = proj[:bits]
	kernel.Project(planes, first, v, proj)
	return uint32(kernel.NonNegative(proj))
}

// LookupInto gathers query q's candidates across all tables, with
// multi-probe expansion, and writes them grouped by shard: dst is resized
// to one set a shard — a longer dst, say one last used with an index over
// more shards, is cut to size — and set s is emptied and refilled with
// shard s's candidate points, the non-zero words of the lookup's dedup
// bitmap.  The sets are the caller's; reusing dst across calls makes a
// steady-state lookup allocation-free.  len(q) must equal Dim().
func (idx *Index) LookupInto(q []float32, dst []kernel.RowSet) []kernel.RowSet {
	sc := idx.scratch.Get().(*lookupScratch)
	dst = idx.lookup(sc, q, dst)
	idx.scratch.Put(sc)
	return dst
}

// lookup is LookupInto on a given scratch, whose bitmap it leaves all zero.
func (idx *Index) lookup(sc *lookupScratch, q []float32, dst []kernel.RowSet) []kernel.RowSet {
	dst = slices.Grow(dst[:0], idx.shards)[:idx.shards]
	idx.gather(sc.dense, sc.proj, q)
	for s := range dst {
		dst[s].Collect(sc.dense[idx.wordStart[s]:idx.wordStart[s+1]])
	}
	return dst
}

// LookupByShard returns LookupInto's candidates as a freshly allocated map,
// shard → ascending point IDs, which the caller owns — the list view of the
// sets, for callers that hold IDs.  Shards with no candidates are absent.
func (idx *Index) LookupByShard(q []float32) map[int32][]uint32 {
	out := make(map[int32][]uint32, idx.shards)
	sc := idx.scratch.Get().(*lookupScratch)
	sc.sets = idx.lookup(sc, q, sc.sets)
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
// misclassifications.  q is projected onto every table's planes in one call,
// into all (Tables·Bits long).
func (idx *Index) gather(dense []uint64, all, q []float32) {
	nbits, probes := idx.cfg.Bits, idx.cfg.Probes
	kernel.Project(idx.planes, 0, q, all)
	for t := 0; t < idx.cfg.Tables; t++ {
		proj := all[t*nbits : (t+1)*nbits]
		sig := uint32(kernel.NonNegative(proj))
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
