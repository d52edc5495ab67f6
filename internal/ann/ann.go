// Package ann provides sub-linear approximate-nearest-neighbor leaf
// indexes over the kernel engine's SoA stores: an IVF (inverted-file)
// index whose k-means coarse quantizer prunes each query to a handful of
// cluster candidate lists, and two compressed point stores — int8
// scalar-quantized and product-quantized (PQ) — that score those candidates
// in 1/4 to 1/32 of the float32 memory, followed by an exact float32
// re-rank so final results stay exact-kernel-scored.
//
// The paper (§III) shows leaf-node compute dominates μSuite request
// latency; this package replaces the leaf's O(n) brute-force shard scan
// with an O(n·nprobe/nlist) candidate scan.  Every stage reuses the PR 5
// kernel machinery: the coarse quantizer trains through kmeans.
// TrainCentroids, centroid probing and the exact re-rank run on the SIMD
// norm-trick kernels and streaming top-k, and the compressed-store scans
// stream into one heap on the serving goroutine, as the engine's do.  Builds
// spread over the cores with kernel.ParallelFor.
//
// Builds are deterministic from Config.Seed: training samples are taken by
// fixed stride and every k-means descent is seeded, so the same corpus and
// config reproduce the identical index across runs.
package ann

import (
	"fmt"
	"runtime"
	"sync"

	"musuite/internal/kernel"
	"musuite/internal/kmeans"
)

// Quant selects the candidate-scoring store.
type Quant uint8

// The available quantizations.
const (
	// QuantNone scores candidates directly on the full float32 store —
	// the plain IVF index; no re-rank stage is needed.
	QuantNone Quant = iota
	// QuantInt8 scores candidates on the int8 scalar-quantized store
	// (≈4× smaller), then re-ranks the best approximately-scored
	// candidates exactly.
	QuantInt8
	// QuantPQ scores candidates on the product-quantized store with
	// ADC lookup-table distances (m bytes per point, ≈dim·4/m× smaller),
	// then re-ranks exactly.
	QuantPQ
)

func (q Quant) String() string {
	switch q {
	case QuantNone:
		return "none"
	case QuantInt8:
		return "int8"
	case QuantPQ:
		return "pq"
	}
	return fmt.Sprintf("quant(%d)", uint8(q))
}

// The build constants no caller tunes: every k-means (the coarse quantizer's
// and each PQ codebook's) trains on at most trainSample rows, sampled by
// fixed stride so builds stay deterministic, for at most kmeansIters Lloyd
// sweeps; a search that passes nprobe 0 probes defaultNProbe lists.
const (
	trainSample   = 16384
	kmeansIters   = 10
	defaultNProbe = 8
)

// Config tunes an index build.
type Config struct {
	// NList is the coarse-quantizer cluster count (default √n, the
	// classic IVF rule).
	NList int
	// Rerank is the default exact re-rank depth over approximately-scored
	// candidates when the caller passes 0 (default max(4k, 32)).  Only
	// meaningful with a compressed store.
	Rerank int
	// Quant selects the candidate-scoring store (default QuantNone).
	Quant Quant
	// PQM is the PQ subspace count; it must divide the dimensionality
	// (default: dim/8 when divisible, else the largest of dim/4, dim/2,
	// dim that divides evenly).
	PQM int
	// Seed namespaces every k-means initialization in the build and the
	// HNSW level-assignment RNG.
	Seed int64

	// Kind selects the index family BuildKind constructs (default KindIVF).
	// The fields above configure the IVF kinds; the fields below configure
	// KindHNSW.
	Kind Kind
	// M is the HNSW per-node degree bound on upper layers; the base layer
	// allows 2M (default 16).
	M int
	// EFConstruction is the HNSW build-time beam width (default 200,
	// floored at M).  Wider beams cost build time and buy graph quality.
	EFConstruction int
	// EFSearch is the default HNSW query-time beam width when the caller
	// passes 0 (default 64).  It rides the same wire/admin knob slot as
	// the IVF kinds' nprobe.
	EFSearch int
}

func (cfg *Config) fill(n, dim int) error {
	if cfg.NList <= 0 {
		cfg.NList = isqrt(n)
	}
	if cfg.NList > n {
		cfg.NList = n
	}
	if cfg.NList < 1 {
		cfg.NList = 1
	}
	if cfg.Quant == QuantPQ {
		if cfg.PQM <= 0 {
			for _, m := range []int{dim / 8, dim / 4, dim / 2, dim} {
				if m > 0 && dim%m == 0 {
					cfg.PQM = m
					break
				}
			}
		}
		if cfg.PQM <= 0 || dim%cfg.PQM != 0 {
			return fmt.Errorf("ann: PQM %d does not divide dim %d", cfg.PQM, dim)
		}
	}
	return nil
}

func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// Index is a built IVF index over one leaf shard's store.  It references
// the store (for exact scoring and re-rank) rather than copying it.
type Index struct {
	store *kernel.Store // full-precision rows; exact scoring + re-rank
	cents *kernel.Store // coarse-quantizer centroids
	lists [][]uint32    // row IDs per centroid, ascending within each list

	quant Quant
	i8    *Int8Store
	pq    *PQStore

	defRerank int
}

// Build trains the coarse quantizer (and the configured compressed store)
// over the store's rows and assembles the inverted lists.  The store is
// captured, not copied.
func Build(store *kernel.Store, cfg Config) (*Index, error) {
	n, dim := store.Len(), store.Dim()
	x := &Index{store: store, quant: cfg.Quant}
	if n == 0 {
		return x, nil
	}
	if err := cfg.fill(n, dim); err != nil {
		return nil, err
	}
	x.defRerank = cfg.Rerank

	// Train the coarse quantizer on a strided sample — deterministic, and
	// far cheaper than clustering every row at μSuite corpus sizes.
	sample := sampleRows(store, trainSample)
	centroids, _, err := kmeans.TrainCentroids(sample, kmeans.Config{
		K: cfg.NList, Iterations: kmeansIters, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	x.cents, err = kernel.BuildStore(centroids)
	if err != nil {
		return nil, err
	}

	// Assign every row to its nearest centroid on the SIMD dot kernel —
	// parallel over rows, then a serial deterministic list build.
	assign := make([]int32, n)
	nc := x.cents.Len()
	kernel.ParallelFor(runtime.NumCPU(), n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row, rn := store.Row(i), store.Norm2(i)
			best, bestD := 0, float32(0)
			for c := 0; c < nc; c++ {
				d := rn + x.cents.Norm2(c) - 2*kernel.Dot(row, x.cents.Row(c))
				if c == 0 || d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = int32(best)
		}
	})
	x.lists = make([][]uint32, nc)
	for i, c := range assign {
		x.lists[c] = append(x.lists[c], uint32(i))
	}

	switch cfg.Quant {
	case QuantInt8:
		x.i8 = BuildInt8(store)
	case QuantPQ:
		x.pq, err = BuildPQ(store, PQConfig{M: cfg.PQM, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
	}
	return x, nil
}

// sampleRows returns up to max rows by fixed stride, as vector views
// aliasing the store.
func sampleRows(s *kernel.Store, max int) [][]float32 {
	n := s.Len()
	step := 1
	if n > max {
		step = (n + max - 1) / max
	}
	out := make([][]float32, 0, (n+step-1)/step)
	for i := 0; i < n; i += step {
		out = append(out, s.Row(i))
	}
	return out
}

// CompressedBytes reports the resident size of the compressed candidate
// store (0 for QuantNone, which scores on the full store directly).
func (x *Index) CompressedBytes() int {
	switch x.quant {
	case QuantInt8:
		return x.i8.Bytes()
	case QuantPQ:
		return x.pq.Bytes()
	}
	return 0
}

// --- search ---

// searchScratch recycles one search's intermediate state.
type searchScratch struct {
	cents  []kernel.Neighbor // probed centroids
	ids    []uint32          // gathered candidate row IDs
	approx []kernel.Neighbor // compressed-store scores
	rerank []uint32          // re-rank candidate row IDs
	lut    []float32         // PQ ADC lookup table
	top    kernel.TopK       // the compressed scans' heap
}

var searchScratches = sync.Pool{New: func() any { return new(searchScratch) }}

// Search appends the k nearest rows to the query (by squared Euclidean
// distance, ties by ID) among the members of the nprobe nearest clusters.
// nprobe ≤ 0 probes defaultNProbe lists; nprobe ≥ NList scans every list,
// making the plain IVF index exactly equivalent to a brute-force scan.
// rerank bounds the exact re-rank depth over compressed-store candidates
// (≤ 0: build default, floor k); it is ignored by QuantNone, whose
// candidate scoring is already exact.  Final distances always come from the
// float32 kernels.
func (x *Index) Search(eng *kernel.Engine, q []float32, k, nprobe, rerank int, dst []kernel.Neighbor) ([]kernel.Neighbor, error) {
	if x.store.Len() == 0 {
		return dst, nil
	}
	if len(q) != x.store.Dim() {
		return dst, kernel.ErrDimensionMismatch
	}
	if k <= 0 {
		return dst, nil
	}
	if nprobe <= 0 {
		nprobe = defaultNProbe
	}
	if nprobe > len(x.lists) {
		nprobe = len(x.lists)
	}

	sc := searchScratches.Get().(*searchScratch)
	defer searchScratches.Put(sc)

	// Probe: rank centroids on the engine's norm-trick kernel and gather
	// the nprobe nearest clusters' member lists.
	var err error
	sc.cents, err = eng.Scan(x.cents, q, nprobe, sc.cents[:0])
	if err != nil {
		return dst, err
	}
	sc.ids = sc.ids[:0]
	for _, c := range sc.cents {
		sc.ids = append(sc.ids, x.lists[c.ID]...)
	}

	if x.quant == QuantNone {
		// Plain IVF: the candidate lists feed the exact SIMD subset scan
		// directly (streaming top-k).
		return eng.ScanSubset(x.store, q, sc.ids, k, dst)
	}

	if rerank <= 0 {
		rerank = x.defRerank
	}
	if rerank <= 0 {
		rerank = 4 * k
		if rerank < 32 {
			rerank = 32
		}
	}
	// rerank comes off the wire and sizes the approximate pass's heaps; one
	// bounded past the candidates keeps every candidate, as one bounded at
	// them does.
	rerank = min(max(rerank, k), len(sc.ids))

	// Approximate pass: score every candidate on the compressed store,
	// keeping the rerank best.
	switch x.quant {
	case QuantInt8:
		sc.approx = x.i8.scanSubset(q, sc.ids, rerank, sc)
	case QuantPQ:
		sc.approx = x.pq.scanSubset(q, sc.ids, rerank, sc)
	}

	// Exact re-rank: the survivors go back through the float32 kernel, so
	// reported distances are exact and compression only affects which
	// candidates are considered, not how they are scored.
	sc.rerank = sc.rerank[:0]
	for _, n := range sc.approx {
		sc.rerank = append(sc.rerank, n.ID)
	}
	return eng.ScanSubset(x.store, q, sc.rerank, k, dst)
}
