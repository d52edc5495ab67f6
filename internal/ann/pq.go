package ann

import (
	"fmt"

	"musuite/internal/kernel"
	"musuite/internal/kmeans"
	"musuite/internal/knn"
	"musuite/internal/vec"
)

// PQStore is a product-quantized mirror of a kernel.Store: the dimensions
// split into M contiguous subspaces, each with its own k-means codebook of
// up to 256 centroids, and every row compresses to M one-byte codes — dim/M
// × 4 bytes shrink to 1.  Query scoring is ADC (asymmetric distance
// computation): one ‖q_s − centroid‖² lookup table per subspace is built
// per query, after which each candidate's distance is M table lookups.
//
// The ADC distance is exactly ‖q − decode(row)‖² — the squared distance to
// the row's reconstruction — because the subspaces partition the
// dimensions.  The tests lean on that identity: ADC ≡ reconstruction
// distance within float tolerance, and |√ADC − √exact| ≤ ‖row −
// decode(row)‖ by the triangle inequality.
type PQStore struct {
	m      int // subspace count
	subDim int // dims per subspace
	kc     int // codebook entries per subspace (≤ 256)

	codebook []float32 // m × kc × subDim, flat
	codes    []uint8   // n × m
	n        int
	dim      int
}

// PQConfig tunes a PQ build.
type PQConfig struct {
	// M is the subspace count; it must divide the store dimensionality.
	M int
	// TrainSample caps the rows the per-subspace codebooks train on
	// (default 16384), sampled by fixed stride.
	TrainSample int
	// KMeansIters bounds the Lloyd sweeps per codebook (default 10).
	KMeansIters int
	// Seed namespaces the per-subspace k-means seeds.
	Seed int64
}

// BuildPQ trains the M subspace codebooks on a strided row sample and
// encodes every row (parallel over rows, deterministic output).
func BuildPQ(s *kernel.Store, cfg PQConfig) (*PQStore, error) {
	n, dim := s.Len(), s.Dim()
	if cfg.M <= 0 || dim%cfg.M != 0 {
		return nil, fmt.Errorf("ann: pq m=%d does not divide dim %d", cfg.M, dim)
	}
	if cfg.TrainSample <= 0 {
		cfg.TrainSample = 16384
	}
	if cfg.KMeansIters <= 0 {
		cfg.KMeansIters = 10
	}
	st := &PQStore{m: cfg.M, subDim: dim / cfg.M, n: n, dim: dim}

	// Train one codebook per subspace on sub-vector views of the sampled
	// rows (TrainCentroids never mutates its inputs, so views are safe).
	sample := sampleRows(s, cfg.TrainSample)
	st.kc = 256
	if st.kc > len(sample) {
		st.kc = len(sample)
	}
	st.codebook = make([]float32, st.m*st.kc*st.subDim)
	subViews := make([]vec.Vector, len(sample))
	for sub := 0; sub < st.m; sub++ {
		lo, hi := sub*st.subDim, (sub+1)*st.subDim
		for i, row := range sample {
			subViews[i] = row[lo:hi]
		}
		cents, _, err := kmeans.TrainCentroids(subViews, kmeans.Config{
			K:          st.kc,
			Iterations: cfg.KMeansIters,
			Seed:       cfg.Seed + int64(sub+1)*7919,
		})
		if err != nil {
			return nil, err
		}
		if len(cents) != st.kc {
			return nil, fmt.Errorf("ann: pq subspace %d trained %d centroids, want %d", sub, len(cents), st.kc)
		}
		for c, cent := range cents {
			copy(st.codebook[(sub*st.kc+c)*st.subDim:], cent)
		}
	}

	// Encode: nearest codebook entry per subspace, exact diff-squared on
	// the short sub-vectors.
	st.codes = make([]uint8, n*st.m)
	kernel.ParallelFor(kernel.Default().Parallelism(), n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := s.Row(i)
			for sub := 0; sub < st.m; sub++ {
				rv := row[sub*st.subDim : (sub+1)*st.subDim]
				best, bestD := 0, float32(0)
				for c := 0; c < st.kc; c++ {
					d := subDist2(rv, st.entry(sub, c))
					if c == 0 || d < bestD {
						best, bestD = c, d
					}
				}
				st.codes[i*st.m+sub] = uint8(best)
			}
		}
	})
	return st, nil
}

// entry returns subspace sub's centroid c.
func (st *PQStore) entry(sub, c int) []float32 {
	off := (sub*st.kc + c) * st.subDim
	return st.codebook[off : off+st.subDim]
}

// subDist2 is the exact squared distance on a sub-vector — short enough
// that diff-squared beats the norm trick's bookkeeping.
func subDist2(a, b []float32) float32 {
	var s float32
	b = b[:len(a)]
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// Len reports the number of encoded rows.
func (st *PQStore) Len() int { return st.n }

// Dim reports the original row dimensionality.
func (st *PQStore) Dim() int { return st.dim }

// Bytes reports the resident size: one byte per (row, subspace) plus the
// shared codebooks.
func (st *PQStore) Bytes() int { return len(st.codes) + 4*len(st.codebook) }

// Decode appends row i's reconstruction (its codebook centroids,
// concatenated) to dst.
func (st *PQStore) Decode(i int, dst []float32) []float32 {
	for sub := 0; sub < st.m; sub++ {
		dst = append(dst, st.entry(sub, int(st.codes[i*st.m+sub]))...)
	}
	return dst
}

// lutInto builds the per-query ADC table — ‖q_s − centroid‖² for every
// (subspace, centroid) pair — into dst.  m×kc×subDim flops once per query,
// after which every candidate costs m lookups.
func (st *PQStore) lutInto(q []float32, dst []float32) []float32 {
	for sub := 0; sub < st.m; sub++ {
		qs := q[sub*st.subDim : (sub+1)*st.subDim]
		for c := 0; c < st.kc; c++ {
			dst = append(dst, subDist2(qs, st.entry(sub, c)))
		}
	}
	return dst
}

// adc sums row i's table entries: exactly ‖q − decode(i)‖².
func (st *PQStore) adc(lut []float32, i int) float32 {
	code := st.codes[i*st.m : (i+1)*st.m]
	var s float32
	for sub, c := range code {
		s += lut[sub*st.kc+int(c)]
	}
	return s
}

// ADC computes row i's ADC distance for the query from scratch — the
// test-facing form of the lookup-table path.
func (st *PQStore) ADC(q []float32, i int) float32 {
	var s float32
	for sub := 0; sub < st.m; sub++ {
		qs := q[sub*st.subDim : (sub+1)*st.subDim]
		s += subDist2(qs, st.entry(sub, int(st.codes[i*st.m+sub])))
	}
	return s
}

// scanSubset scores the candidate rows by ADC and returns the r best
// (ascending approximate distance) for the exact re-rank.
func (st *PQStore) scanSubset(par int, q []float32, ids []uint32, r int, sc *searchScratch) []knn.Neighbor {
	sc.lut = st.lutInto(q, sc.lut[:0])
	lut := sc.lut
	heaps := sc.scanHeaps(par, r)
	kernel.ParallelFor(par, len(ids), func(w, lo, hi int) {
		top := &heaps[w]
		thr := top.Threshold()
		for _, id := range ids[lo:hi] {
			if int(id) >= st.n {
				continue
			}
			d := st.adc(lut, int(id))
			if d <= thr {
				top.Consider(id, d)
				thr = top.Threshold()
			}
		}
	})
	return mergeHeapsSorted(heaps, sc.approx[:0])
}
