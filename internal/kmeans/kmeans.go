// Package kmeans implements Lloyd's k-means clustering and a cluster-based
// approximate k-NN index (inverted-file style): the "k-means clusters"
// member of the paper's indexing trio (LSH tables, kd-trees, k-means
// clusters).  A query probes its nearest centroids and scores only the
// points assigned to those clusters.
//
// TrainCentroids is the reusable trainer: the ann package's IVF coarse
// quantizer and per-subspace PQ codebooks train through it.  Training is
// deterministic from Config.Seed — same points, same config, same seed ⇒
// identical centroids — so index builds reproduce exactly across runs.
package kmeans

import (
	"fmt"
	"math/rand"
	"runtime"

	"musuite/internal/kernel"
	"musuite/internal/knn"
	"musuite/internal/vec"
)

// Ref identifies an indexed point, mirroring kdtree.Ref.
type Ref struct {
	Shard   int32
	PointID uint32
}

// Config parameterizes clustering.
type Config struct {
	// K is the number of clusters (default √n, the classic IVF rule).
	K int
	// Iterations bounds Lloyd's sweeps (default 25).
	Iterations int
	// Seed makes k-means++ initialization — and therefore the whole
	// deterministic Lloyd's descent — reproducible.  Equal seeds over equal
	// inputs produce identical centroids.
	Seed int64
}

// Index is the trained cluster index.
type Index struct {
	points    []vec.Vector
	refs      []Ref
	centroids []vec.Vector
	members   [][]int // point indexes per cluster
	// InertiaTrace records the total within-cluster squared distance
	// after each sweep; Lloyd's algorithm never increases it.
	InertiaTrace []float64
}

// dist2 is the training-sweep distance: the norm trick over the kernel
// engine's dot product, so centroid assignment runs on the SIMD kernel when
// the CPU has one.  The clamp absorbs the small negative results
// cancellation can produce for near-coincident points.
func dist2(p vec.Vector, pn float32, c vec.Vector, cn float32) float32 {
	d := pn + cn - 2*kernel.Dot(p, c)
	if d < 0 {
		return 0
	}
	return d
}

// norms2 precomputes ‖v‖² for a vector set.
func norms2(vs []vec.Vector) []float32 {
	out := make([]float32, len(vs))
	for i, v := range vs {
		out[i] = kernel.Dot(v, v)
	}
	return out
}

// TrainCentroids runs k-means++ initialization followed by Lloyd's sweeps
// and returns the trained centroids plus the per-sweep inertia trace.  It is
// the shared trainer behind Build, the ann IVF coarse quantizer, and the ann
// PQ subspace codebooks.  The returned centroids are freshly allocated and
// do not alias points.
func TrainCentroids(points []vec.Vector, cfg Config) ([]vec.Vector, []float64, error) {
	if len(points) == 0 {
		return nil, nil, fmt.Errorf("kmeans: empty corpus")
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, nil, fmt.Errorf("kmeans: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			return nil, nil, fmt.Errorf("kmeans: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	k := cfg.K
	if k <= 0 {
		k = isqrt(len(points))
	}
	if k > len(points) {
		k = len(points)
	}
	if k < 1 {
		k = 1
	}
	iters := cfg.Iterations
	if iters <= 0 {
		iters = 25
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	pNorms := norms2(points)

	// k-means++ initialization: spread the seeds proportionally to
	// squared distance from the seeds chosen so far.
	centroids := make([]vec.Vector, 0, k)
	centroids = append(centroids, points[rng.Intn(len(points))].Clone())
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		total := 0.0
		last := centroids[len(centroids)-1]
		lastNorm := kernel.Dot(last, last)
		for i, p := range points {
			d := float64(dist2(p, pNorms[i], last, lastNorm))
			if len(centroids) == 1 || d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		if total == 0 {
			// All remaining points coincide with a centroid.
			centroids = append(centroids, points[rng.Intn(len(points))].Clone())
			continue
		}
		r := rng.Float64() * total
		pick := 0
		for i := range points {
			r -= d2[i]
			if r <= 0 {
				pick = i
				break
			}
		}
		centroids = append(centroids, points[pick].Clone())
	}

	var inertiaTrace []float64
	assign := make([]int, len(points))
	dists := make([]float32, len(points))
	cNorms := make([]float32, k)
	for sweep := 0; sweep < iters; sweep++ {
		// Assignment step: parallel over points (each chunk writes only its
		// own assign/dists entries), then a serial deterministic inertia sum
		// so the trace — and every float that follows — is independent of
		// worker scheduling.
		for c, cent := range centroids {
			cNorms[c] = kernel.Dot(cent, cent)
		}
		kernel.ParallelFor(runtime.NumCPU(), len(points), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				p := points[i]
				best, bestD := 0, float32(0)
				for c, cent := range centroids {
					d := dist2(p, pNorms[i], cent, cNorms[c])
					if c == 0 || d < bestD {
						best, bestD = c, d
					}
				}
				assign[i] = best
				dists[i] = bestD
			}
		})
		inertia := 0.0
		for _, d := range dists {
			inertia += float64(d)
		}
		inertiaTrace = append(inertiaTrace, inertia)

		// Update step.
		counts := make([]int, k)
		sums := make([]vec.Vector, k)
		for c := range sums {
			sums[c] = make(vec.Vector, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := 0; d < dim; d++ {
				sums[c][d] += p[d]
			}
		}
		moved := false
		for c := range centroids {
			if counts[c] == 0 {
				continue // empty cluster keeps its centroid
			}
			inv := 1 / float32(counts[c])
			for d := 0; d < dim; d++ {
				nv := sums[c][d] * inv
				if nv != centroids[c][d] {
					centroids[c][d] = nv
					moved = true
				}
			}
		}
		if !moved {
			break
		}
	}
	return centroids, inertiaTrace, nil
}

// Build clusters the corpus and constructs the index.  points and refs are
// captured, not copied.
func Build(points []vec.Vector, refs []Ref, cfg Config) (*Index, error) {
	if len(points) != len(refs) {
		return nil, fmt.Errorf("kmeans: %d points but %d refs", len(points), len(refs))
	}
	centroids, trace, err := TrainCentroids(points, cfg)
	if err != nil {
		return nil, err
	}
	idx := &Index{points: points, refs: refs, centroids: centroids, InertiaTrace: trace}

	// Final assignment → member lists.
	idx.members = make([][]int, len(centroids))
	for i, p := range points {
		best, bestD := 0, float32(0)
		for c, cent := range idx.centroids {
			d := vec.SquaredEuclidean(p, cent)
			if c == 0 || d < bestD {
				best, bestD = c, d
			}
		}
		idx.members[best] = append(idx.members[best], i)
	}
	return idx, nil
}

func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// K reports the cluster count.
func (x *Index) K() int { return len(x.centroids) }

// Dim reports the indexed vector dimensionality (0 for an empty index).
func (x *Index) Dim() int {
	if len(x.centroids) == 0 {
		return 0
	}
	return len(x.centroids[0])
}

// Size reports the number of indexed points.
func (x *Index) Size() int { return len(x.points) }

// ClusterSize reports cluster c's member count.
func (x *Index) ClusterSize(c int) int { return len(x.members[c]) }

// Result is one scored neighbor.
type Result struct {
	Ref      Ref
	Distance float32
}

// Search probes the `probes` nearest clusters and returns the k nearest
// points among their members (probes ≥ K scores everything → exact).
func (x *Index) Search(q vec.Vector, k, probes int) []Result {
	if probes <= 0 {
		probes = 1
	}
	if probes > len(x.centroids) {
		probes = len(x.centroids)
	}
	// Rank centroids by distance.
	cents := make([]knn.Neighbor, len(x.centroids))
	for c, cent := range x.centroids {
		cents[c] = knn.Neighbor{ID: uint32(c), Distance: vec.SquaredEuclidean(q, cent)}
	}
	nearest := knn.Select(cents, probes)

	var cands []knn.Neighbor
	for _, cn := range nearest {
		for _, i := range x.members[cn.ID] {
			cands = append(cands, knn.Neighbor{
				ID:       uint32(i),
				Distance: vec.SquaredEuclidean(q, x.points[i]),
			})
		}
	}
	top := knn.Select(cands, k)
	out := make([]Result, len(top))
	for i, n := range top {
		out[i] = Result{Ref: x.refs[n.ID], Distance: n.Distance}
	}
	return out
}

// LookupByShard returns the probed clusters' candidate point IDs grouped by
// shard — interchangeable with the LSH and kd-tree indexes in HDSearch.
func (x *Index) LookupByShard(q vec.Vector, probes int) map[int32][]uint32 {
	if probes <= 0 {
		probes = 1
	}
	if probes > len(x.centroids) {
		probes = len(x.centroids)
	}
	cents := make([]knn.Neighbor, len(x.centroids))
	for c, cent := range x.centroids {
		cents[c] = knn.Neighbor{ID: uint32(c), Distance: vec.SquaredEuclidean(q, cent)}
	}
	out := make(map[int32][]uint32)
	for _, cn := range knn.Select(cents, probes) {
		for _, i := range x.members[cn.ID] {
			r := x.refs[i]
			out[r.Shard] = append(out[r.Shard], r.PointID)
		}
	}
	return out
}
