package hdsearch

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/wire"
)

// TestMidTierClonesNoLeafPayload: the mid-tier encodes a request's leaf
// payloads end to end into one pooled encoder its fan-out owns, so a warmed
// search allocates — across front end, mid-tier and leaves together — fewer
// bytes than the leaf payloads it sends.  A private copy of each (what
// bytes.Clone per leaf used to be) would alone be as many.  The leaves here
// only measure what reaches them; every request fans out to all four.
func TestMidTierClonesNoLeafPayload(t *testing.T) {
	if !poolsKeepPuts() {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{N: 40000, Dim: 64, Clusters: 10, Noise: 0.12, Seed: 42})
	shards := ShardCorpus(corpus, 4)
	index, err := BuildIndex(shards, IndexConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var leafCalls, leafBytes atomic.Int64
	empty := EncodeNeighbors(nil)
	addrs := make([]string, len(shards))
	for i := range addrs {
		leaf := core.NewLeafEncoded(func(_ string, payload []byte, reply *wire.Encoder) error {
			leafCalls.Add(1)
			leafBytes.Add(int64(len(payload)))
			reply.Raw(empty)
			return nil
		}, nil)
		if addrs[i], err = leaf.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(leaf.Close)
	}
	mt := NewMidTier(index, nil)
	if err := mt.ConnectLeaves(addrs); err != nil {
		t.Fatal(err)
	}
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mt.Close)
	client, err := DialClient(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	queries := corpus.Queries(64, 9)
	search := func(i int) {
		if _, err := client.Search(queries[i%len(queries)], 5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		search(i)
	}
	const n = 512
	encs := wire.EncodersInUse()
	leafCalls.Store(0)
	leafBytes.Store(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		search(i)
	}
	runtime.ReadMemStats(&after)
	allocated := float64(after.TotalAlloc-before.TotalAlloc) / n
	sent, calls := float64(leafBytes.Load())/n, float64(leafCalls.Load())/n
	t.Logf("a search sends %.0f B to %.1f leaves and allocates %.0f B in %.1f allocations end to end",
		sent, calls, allocated, float64(after.Mallocs-before.Mallocs)/n)
	if calls < 2 {
		t.Fatalf("a search reaches %.1f leaves: the corpus no longer exercises the fan-out", calls)
	}
	if allocated >= sent {
		t.Errorf("a warmed search allocates %.0f B end to end, its leaf payloads are %.0f B: something on the path copies them", allocated, sent)
	}
	// The last fan-out recycles on a response thread, after the reply.
	for deadline := time.Now().Add(2 * time.Second); wire.EncodersInUse() > encs; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d encoders in use after the searches, %d before: a fan-out kept the one it was handed", wire.EncodersInUse(), encs)
		}
	}
}
