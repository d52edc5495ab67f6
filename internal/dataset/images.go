// Package dataset provides the seeded synthetic datasets that stand in for
// the paper's corpora: Gaussian-mixture feature vectors for Google Open
// Images (HDSearch), a Zipf-popularity key/value trace for the "Twitter"
// dataset with a YCSB-A operation mix (Router), Zipf-worded documents for
// the Wikipedia corpus (Set Algebra), and a latent-factor rating matrix for
// MovieLens (Recommend).
//
// Every generator is deterministic from its seed, so experiments are exactly
// reproducible, and every generator preserves the statistical property the
// corresponding benchmark's algorithm depends on (cluster locality for LSH,
// skew for caching, Zipf word frequencies for posting lists, low-rank
// structure for collaborative filtering).
package dataset

import (
	"fmt"
	"math/rand"
)

// ImageCorpus is a synthetic stand-in for Inception-V3 feature vectors of an
// image repository.  Points are drawn from a mixture of Gaussian clusters so
// nearby points share cluster membership — the locality structure that makes
// LSH indexing effective.
type ImageCorpus struct {
	// Vectors holds one feature vector per image, indexed by point ID.
	Vectors [][]float32
	// Dim is the feature dimensionality.
	Dim int
	// ClusterOf records the generating cluster of each point (useful for
	// sanity checks; a real corpus has no such labels).
	ClusterOf []int
	centers   [][]float32
	noise     float64
	seed      int64
}

// ImageCorpusConfig parameterizes corpus generation.
type ImageCorpusConfig struct {
	// N is the number of images (paper: 500K; tests use much less).
	N int
	// Dim is the feature dimension (paper: 2048; tests often use 64-128).
	Dim int
	// Clusters is the number of Gaussian mixture components.
	Clusters int
	// Noise is the intra-cluster standard deviation (default 0.15).
	Noise float64
	// Seed makes generation deterministic.
	Seed int64
}

// NewImageCorpus generates a corpus.
func NewImageCorpus(cfg ImageCorpusConfig) *ImageCorpus {
	if cfg.N <= 0 || cfg.Dim <= 0 {
		panic(fmt.Sprintf("dataset: invalid image corpus config %+v", cfg))
	}
	if cfg.Clusters <= 0 {
		cfg.Clusters = 16
	}
	if cfg.Noise <= 0 {
		cfg.Noise = 0.15
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	centers := make([][]float32, cfg.Clusters)
	for c := range centers {
		centers[c] = make([]float32, cfg.Dim)
		for d := 0; d < cfg.Dim; d++ {
			centers[c][d] = float32(rng.Float64()*2 - 1)
		}
	}
	corpus := &ImageCorpus{
		Vectors:   make([][]float32, cfg.N),
		Dim:       cfg.Dim,
		ClusterOf: make([]int, cfg.N),
		centers:   centers,
		noise:     cfg.Noise,
		seed:      cfg.Seed,
	}
	for i := 0; i < cfg.N; i++ {
		c := rng.Intn(cfg.Clusters)
		corpus.ClusterOf[i] = c
		v := make([]float32, cfg.Dim)
		for d := 0; d < cfg.Dim; d++ {
			v[d] = centers[c][d] + float32(rng.NormFloat64()*cfg.Noise)
		}
		corpus.Vectors[i] = v
	}
	return corpus
}

// Queries generates n query vectors that perturb random corpus points, the
// way a user's query image resembles — but does not equal — stored images.
func (c *ImageCorpus) Queries(n int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	out := make([][]float32, n)
	for i := 0; i < n; i++ {
		base := c.Vectors[rng.Intn(len(c.Vectors))]
		q := make([]float32, c.Dim)
		for d := 0; d < c.Dim; d++ {
			q[d] = base[d] + float32(rng.NormFloat64()*c.noise*0.5)
		}
		out[i] = q
	}
	return out
}

// Shard splits point IDs round-robin across n leaf shards, returning for
// each shard the list of global point IDs it owns.  Round-robin keeps shard
// loads balanced regardless of corpus ordering.
func (c *ImageCorpus) Shard(n int) [][]int {
	if n < 1 {
		n = 1
	}
	shards := make([][]int, n)
	for id := range c.Vectors {
		s := id % n
		shards[s] = append(shards[s], id)
	}
	return shards
}
