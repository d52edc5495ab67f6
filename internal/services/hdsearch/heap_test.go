package hdsearch

import (
	"runtime"
	"testing"

	"musuite/internal/dataset"
)

// liveHeap is the heap in use after everything unreachable has been freed.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestClusterHoldsOneCopyOfTheRows: a candidate-scoring deployment's leaves
// read their rows as two 16-bit planes, which are the fp32 block's bytes
// again — so once StartCluster has returned, the process holds each row once
// (planes + norm = dim·4 + 4 bytes), not twice: the Assembly and its fp32
// stores are garbage, a leaf's closure kept only the planes, and a shard's
// second replica shares the first's.  Two corpus sizes are deployed and the
// difference taken, which leaves out what the tiers themselves hold; what the
// mid-tier's index weighs is measured on its own and taken off; the corpus is
// live throughout.
func TestClusterHoldsOneCopyOfTheRows(t *testing.T) {
	const dim, shards = 64, 4
	held := func(n int) int64 {
		corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{N: n, Dim: dim, Clusters: 10, Seed: 7})
		cfg := ClusterConfig{Corpus: corpus, Shards: shards, LeafReplicas: 2, Kind: IndexLSH, Index: IndexConfig{Seed: 7}}
		fp32 := ShardCorpus(corpus, shards)
		before := liveHeap()
		index, err := BuildIndex(fp32, cfg.Index)
		if err != nil {
			t.Fatal(err)
		}
		indexBytes := liveHeap() - before
		runtime.KeepAlive(index)
		runtime.KeepAlive(fp32)
		index, fp32 = nil, nil

		before = liveHeap()
		cl, err := StartCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		bytes := liveHeap() - before - indexBytes
		client, err := DialClient(cl.Addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if got, err := client.Search(corpus.Queries(1, 3)[0], 5); err != nil || len(got) != 5 {
			t.Fatalf("search over %d rows: %v, %v", n, got, err)
		}
		return bytes
	}
	const small, large = 15000, 45000
	perRow := float64(held(large)-held(small)) / (large - small)
	if one := float64(dim*4 + 4); perRow < 0.95*one || perRow > 1.05*one {
		t.Fatalf("%d shards × 2 replicas hold %.1f bytes a row; one copy is %.0f", shards, perRow, one)
	}
}
