// Package kdtree implements a k-d tree index over feature vectors with a
// bounded-checks approximate k-NN search, FLANN-style.  The paper names
// "LSH tables, kd-trees, or k-means clusters" as the indexing structures
// modern k-NN algorithms use to prune the search space; this package is the
// kd-tree member of that trio, usable as a drop-in alternative to the LSH
// index in HDSearch's mid-tier.
//
// Construction recursively splits on the dimension of greatest spread at the
// median, giving balanced leaves of a configurable bucket size.  Search is
// best-first: a priority queue orders subtrees by their minimum possible
// distance to the query, and a "checks" budget bounds how many points are
// scored — the exactness/latency dial (budget ≥ n gives exact k-NN).
package kdtree

import (
	"container/heap"
	"fmt"
	"sort"

	"musuite/internal/kernel"
)

// Ref identifies an indexed point: the leaf shard storing it and its local
// point ID — the tuple the LSH index also stores, so HDSearch can swap
// indexes.
type Ref struct {
	Shard   int32
	PointID uint32
}

// Config parameterizes tree construction.
type Config struct {
	// BucketSize is the max points per leaf node (default 16).
	BucketSize int
}

// Tree is an immutable k-d tree built once over the full corpus.
type Tree struct {
	points [][]float32
	refs   []Ref
	root   *node
	dim    int
}

type node struct {
	// Interior node fields.
	splitDim    int
	splitVal    float32
	left, right *node
	// Leaf node field: indexes into points/refs.
	bucket []int
}

// Build constructs the tree.  points[i] is referenced by refs[i]; both
// slices are captured (not copied) and must not be mutated afterwards.
func Build(points [][]float32, refs []Ref, cfg Config) (*Tree, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("kdtree: empty corpus")
	}
	if len(points) != len(refs) {
		return nil, fmt.Errorf("kdtree: %d points but %d refs", len(points), len(refs))
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("kdtree: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	bucket := cfg.BucketSize
	if bucket <= 0 {
		bucket = 16
	}
	t := &Tree{points: points, refs: refs, dim: dim}
	idxs := make([]int, len(points))
	for i := range idxs {
		idxs[i] = i
	}
	t.root = t.build(idxs, bucket)
	return t, nil
}

// Size reports the number of indexed points.
func (t *Tree) Size() int { return len(t.points) }

// Dim reports the indexed vector dimensionality.
func (t *Tree) Dim() int { return t.dim }

// build recursively partitions idxs.
func (t *Tree) build(idxs []int, bucket int) *node {
	if len(idxs) <= bucket {
		return &node{bucket: idxs}
	}
	// Split on the dimension with the greatest spread (cheap variance
	// proxy: max-min), at the median.
	splitDim := 0
	bestSpread := float32(-1)
	for d := 0; d < t.dim; d++ {
		lo, hi := t.points[idxs[0]][d], t.points[idxs[0]][d]
		// Sampling keeps construction O(n log n) for high dims.
		step := 1
		if len(idxs) > 256 {
			step = len(idxs) / 256
		}
		for i := 0; i < len(idxs); i += step {
			v := t.points[idxs[i]][d]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if spread := hi - lo; spread > bestSpread {
			bestSpread = spread
			splitDim = d
		}
	}
	if bestSpread <= 0 {
		// All sampled points identical in every dimension: leaf it.
		return &node{bucket: idxs}
	}
	sort.Slice(idxs, func(a, b int) bool {
		return t.points[idxs[a]][splitDim] < t.points[idxs[b]][splitDim]
	})
	mid := len(idxs) / 2
	// Guard degenerate splits where the median value spans the boundary.
	for mid < len(idxs)-1 && t.points[idxs[mid]][splitDim] == t.points[idxs[mid-1]][splitDim] {
		mid++
	}
	if mid == len(idxs)-1 && t.points[idxs[mid]][splitDim] == t.points[idxs[mid-1]][splitDim] {
		return &node{bucket: idxs}
	}
	return &node{
		splitDim: splitDim,
		splitVal: t.points[idxs[mid]][splitDim],
		left:     t.build(append([]int(nil), idxs[:mid]...), bucket),
		right:    t.build(append([]int(nil), idxs[mid:]...), bucket),
	}
}

// branchHeap orders pending subtrees by their minimum possible squared
// distance to the query (best-first search).
type branch struct {
	n       *node
	minDist float32
}

type branchHeap []branch

func (h branchHeap) Len() int            { return len(h) }
func (h branchHeap) Less(i, j int) bool  { return h[i].minDist < h[j].minDist }
func (h branchHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *branchHeap) Push(x interface{}) { *h = append(*h, x.(branch)) }
func (h *branchHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Result is one scored neighbor.
type Result struct {
	Ref      Ref
	Distance float32
}

// Search returns up to k nearest refs under a budget of at most checks
// scored points (checks ≤ 0 or ≥ Size() searches exhaustively → exact).
func (t *Tree) Search(q []float32, k, checks int) []Result {
	if checks <= 0 || checks > len(t.points) {
		checks = len(t.points)
	}
	top := kernel.NewTopK(min(k, checks))
	scored := 0

	var pending branchHeap
	heap.Push(&pending, branch{n: t.root})
	for pending.Len() > 0 && scored < checks {
		b := heap.Pop(&pending).(branch)
		n := b.n
		for n.bucket == nil {
			// Descend toward the query, deferring the far side with
			// its separation distance.
			d := q[n.splitDim] - n.splitVal
			near, far := n.left, n.right
			if d >= 0 {
				near, far = n.right, n.left
			}
			heap.Push(&pending, branch{n: far, minDist: b.minDist + d*d})
			n = near
		}
		for _, idx := range n.bucket {
			top.Consider(uint32(idx), kernel.SquaredEuclidean(q, t.points[idx]))
			scored++
			if scored >= checks {
				break
			}
		}
	}

	ns := top.AppendSorted(nil)
	out := make([]Result, len(ns))
	for i, n := range ns {
		out[i] = Result{Ref: t.refs[n.ID], Distance: n.Distance}
	}
	return out
}

// LookupByShard returns candidate point IDs grouped by shard — the same
// shape lsh.Index.LookupByShard produces, so HDSearch's mid-tier can use a
// kd-tree interchangeably.  candidates bounds the total candidate count.
func (t *Tree) LookupByShard(q []float32, candidates, checks int) map[int32][]uint32 {
	if candidates <= 0 {
		candidates = 64
	}
	results := t.Search(q, candidates, checks)
	out := make(map[int32][]uint32)
	for _, r := range results {
		out[r.Ref.Shard] = append(out[r.Ref.Shard], r.Ref.PointID)
	}
	return out
}
