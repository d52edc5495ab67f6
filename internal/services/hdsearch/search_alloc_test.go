package hdsearch

import (
	"testing"

	"musuite/internal/rpc"
)

// TestSearchAllocs pins what a warmed search allocates end to end — client,
// mid-tier and four leaves together, the benchmark's allocs_per_req.  What
// remains is the caller's own []Neighbor (1 measured): the Requests, the Ctx,
// the fan-out, the frame buffers, the encoders and the leaf's and merge's
// scratch all come from pools, and the merge is a package-level function,
// not a closure (DESIGN §5.3 "What a request allocates").  The bound leaves room for
// a background allocation landing inside the measured runs.
func TestSearchAllocs(t *testing.T) {
	if !poolsKeepPuts() {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	if rpc.LoudPools {
		t.Skip("pools are loud (musuite_debug): nothing is reused")
	}
	corpus := testCorpus(t)
	cl := startTestCluster(t, corpus)
	client, err := DialClient(cl.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	queries := corpus.Queries(32, 9)
	for i := 0; i < 500; i++ {
		if _, err := client.Search(queries[i%len(queries)], 5); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	got := testing.AllocsPerRun(200, func() {
		if _, err := client.Search(queries[i%len(queries)], 5); err != nil {
			t.Error(err)
		}
		i++
	})
	t.Logf("search: %.2f allocs", got)
	if got > 2 {
		t.Errorf("a search allocates %.2f times end to end, want ≤ 2 (the caller's neighbors, plus one)", got)
	}
}
