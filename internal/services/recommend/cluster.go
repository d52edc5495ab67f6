package recommend

import (
	"fmt"

	"musuite/internal/core"
	"musuite/internal/dataset"
)

// ClusterConfig assembles an in-process Recommend deployment: rating tuples
// sharded round-robin, one NMF-trained leaf per shard, a forwarding/
// averaging mid-tier.
type ClusterConfig struct {
	// Corpus is the rating corpus to serve.
	Corpus *dataset.RatingCorpus
	// Shards is the leaf count (paper: 4-way).
	Shards int
	// Rank and Iterations tune each leaf's NMF (defaults from matfac).
	Rank, Iterations int
	// Neighbors is the allknn neighborhood size (default 10).
	Neighbors int
	// Seed controls model initialization.
	Seed int64
	// LeafReplicas is the number of leaf processes serving each shard
	// (default 1).  Replicas of a shard share the shard's trained model;
	// with >1 the mid-tier load-balances, hedges, and retries across
	// them.
	LeafReplicas int
	// MidTier and Leaf configure the framework tiers.
	MidTier core.Options
	Leaf    core.LeafOptions
}

// Cluster is a running Recommend deployment.  Recommend partitions its
// trained models per shard, so add/drain on MidTier().Topology() is for
// failure drills, not data-aware resharding.
type Cluster struct {
	*core.Tiers
	// Models exposes the trained per-shard models (tests and ablations).
	Models []*LeafModel
}

// Assembly is the offline half of a deployment: the sharded ratings, plus
// one NMF model per shard, trained when that shard's first leaf is
// constructed — so a leaf process never trains another shard's model and
// the mid-tier process trains none.  A deployment is assembled from one
// goroutine; an Assembly is not safe for concurrent use.
type Assembly struct {
	cfg     ClusterConfig
	ratings [][]dataset.Rating
	models  []*LeafModel // nil until the shard's first leaf is built
}

// Prepare shards cfg.Corpus round-robin.  It reads cfg's data fields only;
// the tiers' framework options go to Leaf and MidTier.
func Prepare(cfg ClusterConfig) *Assembly {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	return &Assembly{
		cfg:     cfg,
		ratings: cfg.Corpus.ShardRoundRobin(cfg.Shards),
		models:  make([]*LeafModel, cfg.Shards),
	}
}

// Leaf builds an unstarted leaf over one shard's model, training it (the
// offline step) on first use; replicas of a shard share the trained model.
func (a *Assembly) Leaf(shard int, opts *core.LeafOptions) (*core.Leaf, error) {
	if shard < 0 || shard >= len(a.ratings) {
		return nil, fmt.Errorf("recommend: shard %d outside 0..%d", shard, len(a.ratings)-1)
	}
	if a.models[shard] == nil {
		cfg := LeafConfig{
			Users: a.cfg.Corpus.Users, Items: a.cfg.Corpus.Items,
			Rank: a.cfg.Rank, Iterations: a.cfg.Iterations,
			Neighbors: a.cfg.Neighbors,
			Seed:      a.cfg.Seed + int64(shard),
		}
		lm, err := TrainLeaf(a.ratings[shard], cfg)
		if err != nil {
			return nil, err
		}
		a.models[shard] = lm
	}
	return NewLeaf(a.models[shard], opts), nil
}

// MidTier builds the unconnected forwarding/averaging mid-tier.
func (a *Assembly) MidTier(opts *core.Options) (*core.MidTier, error) {
	return NewMidTier(opts), nil
}

// StartCluster trains the leaves (offline) and launches the deployment.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	a := Prepare(cfg)
	tiers, err := core.StartTiers(len(a.ratings), cfg.LeafReplicas, &cfg.Leaf, a.Leaf,
		func() (*core.MidTier, error) { return a.MidTier(&cfg.MidTier) })
	if err != nil {
		return nil, err
	}
	return &Cluster{Tiers: tiers, Models: a.models}, nil
}
