package musuite_test

import (
	"testing"
	"time"

	"musuite"
)

// TestFacadeHDSearch drives the whole public API surface for one service:
// corpus generation, cluster startup, client dialing, synchronous and
// asynchronous queries, accuracy scoring, and the open-loop load generator.
func TestFacadeHDSearch(t *testing.T) {
	corpus := musuite.NewImageCorpus(musuite.ImageCorpusConfig{
		N: 800, Dim: 24, Clusters: 8, Seed: 1,
	})
	cluster, err := musuite.StartHDSearchCluster(musuite.HDSearchClusterConfig{
		Corpus: corpus,
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if cluster.Index.Entries != 800 {
		t.Fatalf("index entries=%d", cluster.Index.Entries)
	}

	client, err := musuite.DialHDSearch(cluster.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	query := corpus.Queries(1, 2)[0]
	neighbors, err := client.Search(query, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(neighbors) == 0 {
		t.Fatal("no neighbors")
	}
	if acc := cluster.Accuracy(query, neighbors); acc < 0.5 {
		t.Fatalf("accuracy=%v", acc)
	}

	// Async path + open-loop generator through the facade.
	var n int
	issue := func(done chan *musuite.RPCCall) *musuite.RPCCall {
		q := corpus.Queries(1, int64(n))[0]
		n++
		return client.Go(q, 3, done)
	}
	res := musuite.RunOpenLoop(issue, musuite.OpenLoopConfig{
		QPS: 100, Duration: 300 * time.Millisecond, Seed: 3,
	})
	if res.Completed == 0 || res.Errors > 0 {
		t.Fatalf("open loop: %+v", res)
	}
	if res.Latency.Median <= 0 {
		t.Fatal("no latency recorded")
	}
}

// TestFacadeRouter covers the Router surface including the KV trace types.
func TestFacadeRouter(t *testing.T) {
	cluster, err := musuite.StartRouterCluster(musuite.RouterClusterConfig{
		Leaves: 3, Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := musuite.DialRouter(cluster.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	trace := musuite.NewKVTrace(musuite.KVTraceConfig{Keys: 50, Seed: 4})
	for _, op := range trace.WarmupSets() {
		if err := client.Set(op.Key, op.Value); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range trace.Ops(100) {
		switch op.Kind {
		case musuite.KVGet:
			if _, found, err := client.Get(op.Key); err != nil || !found {
				t.Fatalf("get %q: found=%v err=%v", op.Key, found, err)
			}
		case musuite.KVSet:
			if err := client.Set(op.Key, op.Value); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFacadeProbe exercises the instrumentation path via the facade types.
func TestFacadeProbe(t *testing.T) {
	probe := musuite.NewProbe()
	corpus := musuite.NewDocCorpus(musuite.DocCorpusConfig{Docs: 200, VocabSize: 600, Seed: 5})
	cluster, err := musuite.StartSetAlgebraCluster(musuite.SetAlgebraClusterConfig{
		Corpus:  corpus,
		Shards:  2,
		MidTier: musuite.MidTierOptions{Workers: 2, Probe: probe},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := musuite.DialSetAlgebra(cluster.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, q := range corpus.Queries(20, 4, 6) {
		if _, err := client.Search(q); err != nil {
			t.Fatal(err)
		}
	}
	if probe.Snapshot()[musuite.CtxSwitch] == 0 {
		t.Fatal("probe saw no activity")
	}
}
