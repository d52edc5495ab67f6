package hdsearch

import (
	"fmt"

	"musuite/internal/ann"
	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/kernel"
	"musuite/internal/lsh"
)

// ClusterConfig assembles a complete in-process HDSearch deployment: sharded
// leaves, an indexed mid-tier, and loopback TCP between all tiers.
type ClusterConfig struct {
	// Corpus is the image corpus to serve.
	Corpus *dataset.ImageCorpus
	// Shards is the leaf count (paper: 4-way for HDSearch).
	Shards int
	// LeafReplicas is the number of leaf processes serving each shard
	// (default 1).  With >1 the mid-tier load-balances, hedges, and
	// retries across the replicas of a shard.
	LeafReplicas int
	// Kind selects the candidate index (default IndexLSH; IndexKDTree and
	// IndexKMeans enable the indexing-structure ablation).
	Kind IndexKind
	// Index tunes the LSH tables when Kind is IndexLSH (zero =
	// paper-tuned defaults).
	Index IndexConfig
	// ANN tunes the leaf-resident indexes when Kind is one of the ivf* or
	// hnsw kinds (zero = ann defaults); its Kind/Quant fields are derived
	// from the cluster Kind and its Seed defaults to Index.Seed.
	ANN ann.Config
	// MidTier and Leaf configure the framework tiers.  MidTier.Probe is
	// where the experiment harness attaches its telemetry.  Leaf.Workers
	// left at zero gives each leaf its share of the host's cores
	// (core.ShareCores), as in every in-process cluster.
	MidTier core.Options
	Leaf    core.LeafOptions
}

// Cluster is a running HDSearch deployment.  HDSearch shards its corpus by
// table position, so a resize shifts which vectors each shard index serves:
// add/drain on MidTier().Topology() is for failure drills, not data-aware
// resharding.
type Cluster struct {
	*core.Tiers
	// Index is the mid-tier's LSH index (exposed for diagnostics).
	Index IndexStats

	corpus *dataset.ImageCorpus
	annRt  *LeafANN
}

// ANNRouter exposes the mid-tier's ANN routing stub (nil for the
// candidate-generator kinds) so experiment sweeps can retune nprobe and
// rerank on a live cluster without rebuilding the leaf indexes.
func (c *Cluster) ANNRouter() *LeafANN { return c.annRt }

// IndexStats re-exports the LSH occupancy summary.
type IndexStats struct {
	Tables, Entries, Buckets, MaxBucketSize int
}

// Assembly is the offline half of a deployment — the sharded corpus, plus
// the indexes over it, each built when the tier that serves it is first
// constructed — so a process hosting one tier does only that tier's work:
// a leaf never builds another shard's ANN index, and only the mid-tier
// builds the candidate index.  A deployment is assembled from one goroutine;
// an Assembly is not safe for concurrent use.
type Assembly struct {
	kind   IndexKind
	index  IndexConfig
	annCfg ann.Config
	shards []LeafData // shards[s].ANN or .rows is set once shard s's leaf is built

	midIndex CandidateIndex // set by MidTier
}

// Prepare shards cfg.Corpus and resolves the index kind.  It reads cfg's
// data fields only; the tiers' framework options go to Leaf and MidTier.
func Prepare(cfg ClusterConfig) *Assembly {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	a := &Assembly{
		kind:   cfg.Kind,
		index:  cfg.Index,
		shards: ShardCorpus(cfg.Corpus, cfg.Shards),
	}
	if annCfg, ok := LeafANNConfig(cfg.Kind, cfg.ANN); ok {
		if annCfg.Seed == 0 {
			annCfg.Seed = cfg.Index.Seed
		}
		a.annCfg = annCfg
	}
	return a
}

// Leaf builds an unstarted leaf over one shard, first building what the kind's
// leaves serve from — the shard's leaf-resident index, or its rows as planes
// — once per shard: replicas share it.  The shard's Store stays with the
// Assembly, whose MidTier indexes it, and goes when the Assembly does.
func (a *Assembly) Leaf(shard int, opts *core.LeafOptions) (*core.Leaf, error) {
	if shard < 0 || shard >= len(a.shards) {
		return nil, fmt.Errorf("hdsearch: shard %d outside 0..%d", shard, len(a.shards)-1)
	}
	data := &a.shards[shard]
	switch {
	case !IsLeafANN(a.kind):
		data.rows = data.scoring().rows
	case data.ANN == nil:
		if err := buildLeafANN(data, a.annCfg, shard); err != nil {
			return nil, err
		}
	}
	return NewLeaf(*data, opts), nil
}

// MidTier builds the unconnected mid-tier: around the candidate index the
// kind names, or, for the leaf-resident kinds, around the routing stub that
// broadcasts the query with the breadth and rerank knobs.
func (a *Assembly) MidTier(opts *core.Options) (*core.MidTier, error) {
	if IsLeafANN(a.kind) {
		knob := a.annCfg.NProbe
		if a.kind == IndexHNSW {
			knob = a.annCfg.EFSearch
		}
		a.midIndex = NewLeafANN(a.shards[0].Store.Dim(), knob, a.annCfg.Rerank)
	} else {
		index, err := BuildCandidateIndex(a.kind, a.shards, a.index)
		if err != nil {
			return nil, err
		}
		a.midIndex = index
	}
	return NewMidTier(a.midIndex, opts), nil
}

// StartCluster launches the leaves and mid-tier and returns the deployment.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	a := Prepare(cfg)
	tiers, err := core.StartTiers(len(a.shards), cfg.LeafReplicas, &cfg.Leaf, a.Leaf,
		func() (*core.MidTier, error) { return a.MidTier(&cfg.MidTier) })
	if err != nil {
		return nil, err
	}
	cl := &Cluster{Tiers: tiers, corpus: cfg.Corpus, Index: IndexStats{Entries: len(cfg.Corpus.Vectors)}}
	switch index := a.midIndex.(type) {
	case *LeafANN:
		cl.annRt = index
	case *lsh.Index:
		cl.Index = IndexStats(index.Stats())
	}
	return cl, nil
}

// Accuracy scores responses against brute-force ground truth as the paper
// does: the cosine similarity between the reported nearest neighbor's
// feature vector and the true nearest neighbor's.  A perfect answer scores
// 1.0; the paper tunes LSH for a minimum accuracy of 0.93.
func (c *Cluster) Accuracy(query []float32, reported []Neighbor) float32 {
	if len(reported) == 0 {
		return 0
	}
	truth := kernel.BruteForce(query, c.corpus.Vectors, 1)
	if len(truth) == 0 {
		return 0
	}
	got := c.corpus.Vectors[reported[0].PointID]
	want := c.corpus.Vectors[truth[0].ID]
	return kernel.CosineSimilarity(got, want)
}
