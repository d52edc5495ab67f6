package core_test

import (
	"runtime"
	"testing"

	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/rpc"
	"musuite/internal/services/hdsearch"
	"musuite/internal/services/recommend"
	"musuite/internal/services/router"
	"musuite/internal/services/setalgebra"
)

// TestClusterLeavesShareTheCores: the leaves of an in-process cluster run on
// one host, so in every service an unsized leaf pool gets the leaf's share
// of the cores (never less than one worker) and a pool the caller sized is
// left alone.
func TestClusterLeavesShareTheCores(t *testing.T) {
	images := dataset.NewImageCorpus(dataset.ImageCorpusConfig{N: 600, Dim: 16, Clusters: 5, Noise: 0.12, Seed: 42})
	docs := dataset.NewDocCorpus(dataset.DocCorpusConfig{Docs: 300, VocabSize: 400, MeanDocLen: 30, Seed: 11})
	ratings := dataset.NewRatingCorpus(dataset.RatingCorpusConfig{Users: 40, Items: 50, Ratings: 1000, Rank: 4, Noise: 0.25, Seed: 21})
	// start launches one service with leaves × replicas leaves and the given
	// LeafOptions.Workers, returning its mid-tier and its Close.
	type start func(leaves, replicas, workers int) (*core.MidTier, func(), error)
	services := map[string]start{
		"hdsearch": func(leaves, replicas, workers int) (*core.MidTier, func(), error) {
			cl, err := hdsearch.StartCluster(hdsearch.ClusterConfig{Corpus: images, Shards: leaves,
				LeafReplicas: replicas, Leaf: core.LeafOptions{Workers: workers}})
			if err != nil {
				return nil, nil, err
			}
			return cl.MidTier(), cl.Close, nil
		},
		"setalgebra": func(leaves, replicas, workers int) (*core.MidTier, func(), error) {
			cl, err := setalgebra.StartCluster(setalgebra.ClusterConfig{Corpus: docs, Shards: leaves,
				LeafReplicas: replicas, Leaf: core.LeafOptions{Workers: workers}})
			if err != nil {
				return nil, nil, err
			}
			return cl.MidTier(), cl.Close, nil
		},
		"recommend": func(leaves, replicas, workers int) (*core.MidTier, func(), error) {
			cl, err := recommend.StartCluster(recommend.ClusterConfig{Corpus: ratings, Shards: leaves, Rank: 4, Iterations: 2,
				LeafReplicas: replicas, Leaf: core.LeafOptions{Workers: workers}})
			if err != nil {
				return nil, nil, err
			}
			return cl.MidTier(), cl.Close, nil
		},
		// Router's leaves are all alike: Replicas is how many of them hold
		// each key, not a multiplier on the leaf count.
		"router": func(leaves, replicas, workers int) (*core.MidTier, func(), error) {
			cl, err := router.StartCluster(router.ClusterConfig{Leaves: leaves * replicas,
				Leaf: core.LeafOptions{Workers: workers}})
			if err != nil {
				return nil, nil, err
			}
			return cl.MidTier(), cl.Close, nil
		},
	}
	for name, start := range services {
		for _, tc := range []struct{ leaves, replicas, set, want int }{
			{leaves: 4, replicas: 1, want: max(1, runtime.GOMAXPROCS(0)/4)},
			{leaves: 1, replicas: 2, want: max(1, runtime.GOMAXPROCS(0)/2)},
			{leaves: 24, replicas: 1, want: 1},
			{leaves: 4, replicas: 1, set: 3, want: 3},
		} {
			mt, closeAll, err := start(tc.leaves, tc.replicas, tc.set)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, tc, err)
			}
			leaves := 0
			for _, g := range mt.Topology().View().Groups {
				for _, addr := range g.Addrs {
					leaves++
					c, err := rpc.Dial(addr, nil)
					if err != nil {
						t.Fatal(err)
					}
					st, err := core.QueryStats(c)
					c.Close()
					if err != nil {
						t.Fatal(err)
					}
					if st.Workers != tc.want {
						t.Errorf("%s %+v: leaf %s has %d workers, want %d", name, tc, addr, st.Workers, tc.want)
					}
				}
			}
			if leaves != tc.leaves*tc.replicas {
				t.Errorf("%s %+v: %d leaves", name, tc, leaves)
			}
			closeAll()
		}
	}
}
