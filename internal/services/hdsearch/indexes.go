package hdsearch

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"musuite/internal/ann"
	"musuite/internal/kdtree"
	"musuite/internal/kernel"
	"musuite/internal/kmeans"
	"musuite/internal/vec"
)

// CandidateIndex is the mid-tier's pluggable candidate source: given a query
// vector, the points each leaf shard should score.  The paper's HDSearch
// uses LSH; it names kd-trees and k-means clusters as the alternative
// indexing structures, and all three are available here for the index
// ablation.  *lsh.Index satisfies this interface directly.
type CandidateIndex interface {
	// LookupInto empties each set of dst and refills set s with the local
	// points shard s should score — a sparse bitmap of the shard's rows —
	// growing dst to cover every shard that has candidates, and returns it.
	// Ascending and duplicate-free are properties of the form, not promises
	// of the index: a set's words strictly ascend (the leaf request encodes
	// them as gaps) and a row is one bit, so the leaf's gather scan walks
	// each row once, in address order; no word has a zero mask.  Nothing dst
	// held on entry survives — it may come from a pool shared with an index
	// over more shards — so every non-empty set returned is a leaf call to
	// make.  The sets stay the caller's, so a handler that reuses dst
	// allocates no candidate memory per request.
	LookupInto(q []float32, dst []kernel.RowSet) []kernel.RowSet
	// Dim reports the indexed vectors' dimensionality (0 when unknown), so
	// the mid-tier can reject mis-dimensioned queries before they reach
	// kernels that assume rectangular input.
	Dim() int
}

// IndexKind names a candidate-index implementation.
type IndexKind string

// The available index kinds.  The first three are mid-tier candidate
// generators (the index holds {shard, point} refs and the query ships
// candidate IDs to the leaves); the ivf* and hnsw kinds are leaf-resident —
// each leaf builds its own sub-linear index over its shard and the mid-tier
// merely broadcasts the query with the breadth/rerank knobs.
const (
	IndexLSH    IndexKind = "lsh"
	IndexKDTree IndexKind = "kdtree"
	IndexKMeans IndexKind = "kmeans"
	// IndexIVF probes IVF inverted lists and scores candidates on the
	// full float32 store — exact within the probed clusters.
	IndexIVF IndexKind = "ivf"
	// IndexIVFSQ scores candidates on the int8 scalar-quantized store
	// (~4× less memory), then re-ranks exactly.
	IndexIVFSQ IndexKind = "ivfsq"
	// IndexIVFPQ scores candidates on the product-quantized store with
	// ADC lookup tables (~16× less memory at dim 64), then re-ranks
	// exactly.
	IndexIVFPQ IndexKind = "ivfpq"
	// IndexHNSW traverses a hierarchical navigable-small-world graph with
	// exact float32 scoring throughout; the wire's nprobe knob slot
	// carries efSearch, the layer-0 beam width.
	IndexHNSW IndexKind = "hnsw"
)

// IndexKinds lists every kind, in comparison order.  Sweeps and gates
// (indexcmp, the recall floor) derive their coverage from this list, so a
// new kind registered here is automatically swept and gated.
var IndexKinds = []IndexKind{IndexLSH, IndexKDTree, IndexKMeans, IndexIVF, IndexIVFSQ, IndexIVFPQ, IndexHNSW}

// ANNQuant maps a leaf-resident IVF index kind to its candidate-store
// quantization; ok is false for the mid-tier candidate-generator kinds and
// for hnsw (whose scoring is exact-only — no compressed store, no rerank
// stage).
func ANNQuant(kind IndexKind) (q ann.Quant, ok bool) {
	switch kind {
	case IndexIVF:
		return ann.QuantNone, true
	case IndexIVFSQ:
		return ann.QuantInt8, true
	case IndexIVFPQ:
		return ann.QuantPQ, true
	}
	return 0, false
}

// IsLeafANN reports whether the kind is leaf-resident: the leaves build the
// index and the mid-tier broadcasts MethodLeafANN instead of generating
// candidates.
func IsLeafANN(kind IndexKind) bool {
	_, ivf := ANNQuant(kind)
	return ivf || kind == IndexHNSW
}

// LeafANNConfig projects a leaf-resident kind onto an ann build config:
// the family selector and quantization are set from the kind, everything
// else passes through.  ok is false for the candidate-generator kinds.
func LeafANNConfig(kind IndexKind, cfg ann.Config) (ann.Config, bool) {
	if kind == IndexHNSW {
		cfg.Kind = ann.KindHNSW
		return cfg, true
	}
	if quant, ok := ANNQuant(kind); ok {
		cfg.Kind = ann.KindIVF
		cfg.Quant = quant
		return cfg, true
	}
	return cfg, false
}

// LeafANN is the mid-tier's routing stub for the leaf-resident ANN kinds.
// It satisfies CandidateIndex so the same NewMidTier constructor serves
// every kind, but generates no candidates itself: the mid-tier recognizes
// it and broadcasts MethodLeafANN instead.  The knobs are atomically
// mutable so experiment sweeps can retune a live cluster without rebuilding
// the leaf indexes.  The first knob slot is the family's search-breadth
// control — nprobe for the IVF kinds, efSearch for hnsw — carried in the
// same wire position; SetEFSearch aliases it under the graph family's name.
type LeafANN struct {
	dim    int
	nprobe atomic.Int32
	rerank atomic.Int32
}

// NewLeafANN builds the routing stub (knob zeros defer to each leaf
// index's build defaults).
func NewLeafANN(dim, nprobe, rerank int) *LeafANN {
	x := &LeafANN{dim: dim}
	x.nprobe.Store(int32(nprobe))
	x.rerank.Store(int32(rerank))
	return x
}

// LookupInto implements CandidateIndex; the ANN path never consults it.
func (x *LeafANN) LookupInto(_ []float32, dst []kernel.RowSet) []kernel.RowSet { return dst[:0] }

// Dim implements CandidateIndex.
func (x *LeafANN) Dim() int { return x.dim }

// NProbe reports the current probe width.
func (x *LeafANN) NProbe() int { return int(x.nprobe.Load()) }

// SetNProbe retunes the probe width for subsequent requests.
func (x *LeafANN) SetNProbe(n int) { x.nprobe.Store(int32(n)) }

// Rerank reports the current exact re-rank depth.
func (x *LeafANN) Rerank() int { return int(x.rerank.Load()) }

// SetRerank retunes the re-rank depth for subsequent requests.
func (x *LeafANN) SetRerank(n int) { x.rerank.Store(int32(n)) }

// SetEFSearch retunes the hnsw beam width for subsequent requests.
func (x *LeafANN) SetEFSearch(n int) { x.nprobe.Store(int32(n)) }

// KDTreeIndex adapts a kd-tree to the CandidateIndex interface.
type KDTreeIndex struct {
	Tree *kdtree.Tree
	// Candidates bounds the per-query candidate count (default 64);
	// Checks bounds scored points during traversal (default 4×Candidates).
	Candidates, Checks int
}

// LookupInto implements CandidateIndex.
func (x *KDTreeIndex) LookupInto(q []float32, dst []kernel.RowSet) []kernel.RowSet {
	cand := x.Candidates
	if cand <= 0 {
		cand = 64
	}
	checks := x.Checks
	if checks <= 0 {
		checks = 4 * cand
	}
	return fillByShard(dst, x.Tree.LookupByShard(q, cand, checks))
}

// Dim implements CandidateIndex.
func (x *KDTreeIndex) Dim() int { return x.Tree.Dim() }

// BuildKDTreeIndex constructs a kd-tree candidate index over the shards.
func BuildKDTreeIndex(shards []LeafData, candidates int) (*KDTreeIndex, error) {
	points, refs, err := flattenShards(shards)
	if err != nil {
		return nil, err
	}
	krefs := make([]kdtree.Ref, len(refs))
	for i, r := range refs {
		krefs[i] = kdtree.Ref(r)
	}
	tree, err := kdtree.Build(points, krefs, kdtree.Config{})
	if err != nil {
		return nil, err
	}
	return &KDTreeIndex{Tree: tree, Candidates: candidates}, nil
}

// KMeansIndex adapts a k-means cluster index to the CandidateIndex
// interface.
type KMeansIndex struct {
	Index *kmeans.Index
	// Probes is how many nearest clusters contribute candidates
	// (default 3).
	Probes int
}

// LookupInto implements CandidateIndex.
func (x *KMeansIndex) LookupInto(q []float32, dst []kernel.RowSet) []kernel.RowSet {
	probes := x.Probes
	if probes <= 0 {
		probes = 3
	}
	return fillByShard(dst, x.Index.LookupByShard(q, probes))
}

// Dim implements CandidateIndex.
func (x *KMeansIndex) Dim() int { return x.Index.Dim() }

// BuildKMeansIndex constructs a k-means candidate index over the shards.
func BuildKMeansIndex(shards []LeafData, probes int, seed int64) (*KMeansIndex, error) {
	points, refs, err := flattenShards(shards)
	if err != nil {
		return nil, err
	}
	krefs := make([]kmeans.Ref, len(refs))
	for i, r := range refs {
		krefs[i] = kmeans.Ref(r)
	}
	idx, err := kmeans.Build(points, krefs, kmeans.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	return &KMeansIndex{Index: idx, Probes: probes}, nil
}

// fillByShard sets, in the CandidateIndex form, the bit of every ID of a shard
// → IDs map, the shape the kd-tree and k-means indexes compute.  A tree
// traversal or a cluster probe emits IDs in no order; a set has one.
func fillByShard(dst []kernel.RowSet, byShard map[int32][]uint32) []kernel.RowSet {
	for s := range dst {
		dst[s].Reset()
	}
	for shard, ids := range byShard {
		for len(dst) <= int(shard) {
			dst = append(dst, kernel.RowSet{})
		}
		dst[shard].Add(ids...)
	}
	return dst
}

// indexRef is the shared {shard, local point} reference shape.
type indexRef struct {
	Shard   int32
	PointID uint32
}

// flattenShards linearizes sharded corpora for whole-corpus index builders,
// shard-major and, within a shard, in ascending global-ID order, not row
// order: a k-means seeding or a kd-tree split depends on the sequence it is
// given, and the candidates named may not depend on a leaf's row layout.
func flattenShards(shards []LeafData) ([]vec.Vector, []indexRef, error) {
	if len(shards) == 0 {
		return nil, nil, errors.New("hdsearch: no shards")
	}
	var points []vec.Vector
	var refs []indexRef
	var byGlobal []uint64 // global<<32 | local
	for s, shard := range shards {
		byGlobal = byGlobal[:0]
		for local, global := range shard.GlobalID {
			byGlobal = append(byGlobal, uint64(global)<<32|uint64(local))
		}
		slices.Sort(byGlobal)
		for _, w := range byGlobal {
			points = append(points, vec.Vector(shard.Store.Row(int(uint32(w)))))
			refs = append(refs, indexRef{Shard: int32(s), PointID: uint32(w)})
		}
	}
	return points, refs, nil
}

// BuildCandidateIndex constructs the named mid-tier candidate index: LSH
// at cfg's tuning (zero = the paper-tuned parameters), kd-tree with a
// 64-candidate budget, k-means with 3 probes seeded from cfg.Seed.
func BuildCandidateIndex(kind IndexKind, shards []LeafData, cfg IndexConfig) (CandidateIndex, error) {
	switch kind {
	case IndexLSH, "":
		return BuildIndex(shards, cfg)
	case IndexKDTree:
		return BuildKDTreeIndex(shards, 64)
	case IndexKMeans:
		return BuildKMeansIndex(shards, 3, cfg.Seed)
	}
	return nil, fmt.Errorf("hdsearch: unknown index kind %q", kind)
}
