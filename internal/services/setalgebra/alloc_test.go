package setalgebra

import (
	"sync"
	"testing"

	"musuite/internal/rpc"
)

// TestSearchAllocs pins what a warmed search allocates end to end — client,
// mid-tier and four leaves together, the benchmark's allocs_per_req.  What
// remains is the caller's own IDs, decoded out of the reply's pooled buffer;
// the Requests, the Ctx, the fan-out, the frame buffers, the encoders and the
// union's scratch all come from pools, and the merge is a package-level
// function, not a closure (DESIGN §5.3 "What a request allocates").
func TestSearchAllocs(t *testing.T) {
	if !poolsKeepPuts() {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	corpus := testCorpus(t)
	_, client := startTestCluster(t, corpus)
	queries := corpus.Queries(16, 3, 5)
	var hits []int
	for i, q := range queries {
		ids, err := client.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) > 0 {
			hits = append(hits, i)
		}
	}
	if len(hits) == 0 {
		t.Fatal("no query matches a document: the pin would not count the caller's IDs")
	}
	for i := 0; i < 500; i++ {
		if _, err := client.Search(queries[hits[i%len(hits)]]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	got := testing.AllocsPerRun(200, func() {
		if _, err := client.Search(queries[hits[i%len(hits)]]); err != nil {
			t.Error(err)
		}
		i++
	})
	t.Logf("search: %.2f allocs", got)
	if got > 1 {
		t.Errorf("a search allocates %.2f times end to end, want ≤ 1 (the caller's IDs)", got)
	}
}

// poolsKeepPuts reports whether the pools hand back what they were just
// given: under the race detector sync.Pool drops a quarter of all Puts on
// purpose, and a musuite_debug build's loud pools reuse nothing.
func poolsKeepPuts() bool {
	if rpc.LoudPools {
		return false
	}
	news := 0
	p := sync.Pool{New: func() any { news++; return new(int) }}
	for i := 0; i < 200; i++ {
		p.Put(p.Get())
	}
	return news <= 2
}
