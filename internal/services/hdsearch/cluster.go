package hdsearch

import (
	"runtime"

	"musuite/internal/ann"
	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/knn"
	"musuite/internal/vec"
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
	// left at zero gives each leaf its share of the host's cores (at least
	// one worker), not core's per-process default: see StartCluster.
	MidTier core.Options
	Leaf    core.LeafOptions
}

// Cluster is a running HDSearch deployment.
type Cluster struct {
	// Addr is the mid-tier address front-ends dial.
	Addr string
	// Index is the mid-tier's LSH index (exposed for diagnostics).
	Index IndexStats

	corpus  *dataset.ImageCorpus
	leaves  []*core.Leaf
	midTier *core.MidTier
	annRt   *LeafANN
}

// ANNRouter exposes the mid-tier's ANN routing stub (nil for the
// candidate-generator kinds) so experiment sweeps can retune nprobe and
// rerank on a live cluster without rebuilding the leaf indexes.
func (c *Cluster) ANNRouter() *LeafANN { return c.annRt }

// IndexStats re-exports the LSH occupancy summary.
type IndexStats struct {
	Tables, Entries, Buckets, MaxBucketSize int
}

// StartCluster launches the leaves and mid-tier and returns the deployment.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	shards := ShardCorpus(cfg.Corpus, cfg.Shards)
	cl := &Cluster{corpus: cfg.Corpus}
	var index CandidateIndex
	if annCfg, ok := LeafANNConfig(cfg.Kind, cfg.ANN); ok {
		if annCfg.Seed == 0 {
			annCfg.Seed = cfg.Index.Seed
		}
		if err := BuildLeafANN(shards, annCfg); err != nil {
			return nil, err
		}
		knob := annCfg.NProbe
		if cfg.Kind == IndexHNSW {
			knob = annCfg.EFSearch
		}
		cl.annRt = NewLeafANN(shards[0].Store.Dim(), knob, annCfg.Rerank)
		index = cl.annRt
		cl.Index = IndexStats{Entries: len(cfg.Corpus.Vectors)}
	} else if cfg.Kind == IndexLSH || cfg.Kind == "" {
		lshIndex, err := BuildIndex(shards, cfg.Index)
		if err != nil {
			return nil, err
		}
		st := lshIndex.Stats()
		cl.Index = IndexStats{Tables: st.Tables, Entries: st.Entries, Buckets: st.Buckets, MaxBucketSize: st.MaxBucketSize}
		index = lshIndex
	} else {
		var err error
		index, err = BuildCandidateIndex(cfg.Kind, shards, cfg.Index.Seed)
		if err != nil {
			return nil, err
		}
		cl.Index = IndexStats{Entries: len(cfg.Corpus.Vectors)}
	}

	replicas := cfg.LeafReplicas
	if replicas <= 0 {
		replicas = 1
	}
	// The paper pins every leaf to its own cores with a taskset; these
	// leaves share one host, so an unsized pool gets the leaf's share of the
	// cores, not core's per-process default.  Workers beyond that buy no
	// parallelism and cost tail latency: every hand-off to a parked worker
	// lets the Go runtime wake another thread, which on a busy two-core
	// host displaces a thread mid-request for a scheduler tick
	// (DESIGN §5.5.1).
	if cfg.Leaf.Workers <= 0 {
		cfg.Leaf.Workers = max(1, runtime.GOMAXPROCS(0)/(cfg.Shards*replicas))
	}
	leafGroups := make([][]string, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		for r := 0; r < replicas; r++ {
			leafOpts := cfg.Leaf
			leaf := NewLeaf(shards[s], &leafOpts)
			addr, err := leaf.Start("127.0.0.1:0")
			if err != nil {
				cl.Close()
				return nil, err
			}
			cl.leaves = append(cl.leaves, leaf)
			leafGroups[s] = append(leafGroups[s], addr)
		}
	}

	mtOpts := cfg.MidTier
	mt := NewMidTier(index, &mtOpts)
	if err := mt.ConnectLeafGroups(leafGroups); err != nil {
		cl.Close()
		return nil, err
	}
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		mt.Close()
		cl.Close()
		return nil, err
	}
	cl.midTier = mt
	cl.Addr = addr
	return cl, nil
}

// Accuracy scores responses against brute-force ground truth as the paper
// does: the cosine similarity between the reported nearest neighbor's
// feature vector and the true nearest neighbor's.  A perfect answer scores
// 1.0; the paper tunes LSH for a minimum accuracy of 0.93.
func (c *Cluster) Accuracy(query vec.Vector, reported []Neighbor) float32 {
	if len(reported) == 0 {
		return 0
	}
	truth := knn.BruteForce(query, c.corpus.Vectors, 1)
	if len(truth) == 0 {
		return 0
	}
	got := c.corpus.Vectors[reported[0].PointID]
	want := c.corpus.Vectors[truth[0].ID]
	return vec.CosineSimilarity(got, want)
}

// MidTier exposes the deployment's framework mid-tier — the runtime
// topology admin surface (cluster.ServeAdmin on MidTier().Topology())
// hangs off it.  HDSearch shards its LSH corpus by table position, so a
// resize shifts which vectors each shard index serves; add/drain here is
// for failure drills, not data-aware resharding.
func (c *Cluster) MidTier() *core.MidTier { return c.midTier }

// Close tears the deployment down.
func (c *Cluster) Close() {
	if c.midTier != nil {
		c.midTier.Close()
	}
	for _, l := range c.leaves {
		l.Close()
	}
}
