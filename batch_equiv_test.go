// Property tests: a batching mid-tier must be semantically invisible.  For
// each service, a batched cluster (MaxBatch 8) and an unbatched twin serve
// the same seeded corpus; quick-generated query bursts are issued
// concurrently against the batched deployment — so carrier RPCs actually
// coalesce — and every merged result must be identical to the unbatched
// cluster's answer.
package musuite_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/rpc"
	"musuite/internal/services/hdsearch"
	"musuite/internal/services/recommend"
	"musuite/internal/services/router"
	"musuite/internal/services/setalgebra"
	"musuite/internal/trace"
)

// equivBatch is the policy under test: deep enough to coalesce a whole
// burst, with a flush delay wide enough that concurrent arrivals meet in
// one carrier.
var equivBatch = core.BatchPolicy{MaxBatch: 8, Delay: 300 * time.Microsecond}

// equivQuickConf bounds each property's iteration count: every trial is a
// multi-RPC burst, so modest counts already cover many batch compositions.
var equivQuickConf = &quick.Config{MaxCount: 12}

// assertBatched fails the test when the batched cluster never coalesced:
// an equivalence pass over a degenerate (effectively unbatched) deployment
// would prove nothing.
func assertBatched(t *testing.T, midTierAddr string) {
	t.Helper()
	c, err := rpc.Dial(midTierAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := core.QueryStats(c)
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchCarriers == 0 || st.BatchMembers <= st.BatchCarriers {
		t.Fatalf("batched cluster stats carriers=%d members=%d: bursts never coalesced",
			st.BatchCarriers, st.BatchMembers)
	}
}

func TestBatchEquivalenceHDSearch(t *testing.T) {
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: 600, Dim: 16, Clusters: 8, Seed: 7,
	})
	queries := corpus.Queries(128, 7)
	start := func(batch core.BatchPolicy) *hdsearch.Client {
		cl, err := hdsearch.StartCluster(hdsearch.ClusterConfig{
			Corpus:  corpus,
			Shards:  3,
			MidTier: core.Options{Workers: 4, EdgePolicy: core.EdgePolicy{Batch: batch}},
			Leaf:    core.LeafOptions{Workers: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		client, err := hdsearch.DialClient(cl.Addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		if batch.MaxBatch > 1 {
			t.Cleanup(func() { assertBatched(t, cl.Addr) })
		}
		return client
	}
	plain := start(core.BatchPolicy{})
	batched := start(equivBatch)

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		burst := make([]int, 8)
		for i := range burst {
			burst[i] = rng.Intn(len(queries))
		}
		done := make(chan *rpc.Call, len(burst))
		for _, q := range burst {
			batched.Go(queries[q], 5, done)
		}
		for range burst {
			if call := <-done; call.Err != nil {
				t.Logf("batched search: %v", call.Err)
				return false
			}
		}
		// The calls in a burst may complete in any order; re-issue each
		// query synchronously on both clusters and compare pointwise.
		for _, q := range burst {
			want, err := plain.Search(queries[q], 5)
			if err != nil {
				t.Logf("plain search: %v", err)
				return false
			}
			got, err := batched.Search(queries[q], 5)
			if err != nil {
				t.Logf("batched search: %v", err)
				return false
			}
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i].PointID != want[i].PointID || got[i].Distance != want[i].Distance {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, equivQuickConf); err != nil {
		t.Fatal(err)
	}
}

func TestBatchEquivalenceRouter(t *testing.T) {
	start := func(batch core.BatchPolicy) *router.Client {
		cl, err := router.StartCluster(router.ClusterConfig{
			Leaves:   4,
			Replicas: 2,
			MidTier:  core.Options{Workers: 4, EdgePolicy: core.EdgePolicy{Batch: batch}},
			Leaf:     core.LeafOptions{Workers: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		client, err := router.DialClient(cl.Addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		if batch.MaxBatch > 1 {
			t.Cleanup(func() { assertBatched(t, cl.Addr) })
		}
		return client
	}
	plain := start(core.BatchPolicy{})
	batched := start(equivBatch)

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]string, 16)
		for i := range keys {
			// Sets are applied in the same sequential order on both
			// clusters, so overlapping keys stay deterministic.
			keys[i] = string([]byte{'k', byte('a' + rng.Intn(6)), byte('a' + rng.Intn(6))})
			val := []byte{byte(rng.Intn(256)), byte(i)}
			if err := plain.Set(keys[i], val); err != nil {
				t.Logf("plain set: %v", err)
				return false
			}
			if err := batched.Set(keys[i], val); err != nil {
				t.Logf("batched set: %v", err)
				return false
			}
		}
		// Concurrent get burst on the batched cluster: reads coalesce
		// into multiget carriers.
		done := make(chan *rpc.Call, len(keys))
		for _, k := range keys {
			batched.GoGetSpan(k, trace.SpanContext{}, done)
		}
		for range keys {
			if call := <-done; call.Err != nil {
				t.Logf("batched get: %v", call.Err)
				return false
			}
		}
		for _, k := range keys {
			wantVal, wantFound, err := plain.Get(k)
			if err != nil {
				t.Logf("plain get: %v", err)
				return false
			}
			gotVal, gotFound, err := batched.Get(k)
			if err != nil {
				t.Logf("batched get: %v", err)
				return false
			}
			if gotFound != wantFound || string(gotVal) != string(wantVal) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, equivQuickConf); err != nil {
		t.Fatal(err)
	}
}

func TestBatchEquivalenceSetAlgebra(t *testing.T) {
	corpus := dataset.NewDocCorpus(dataset.DocCorpusConfig{
		Docs: 500, VocabSize: 1500, Seed: 11,
	})
	queries := corpus.Queries(128, 4, 11)
	start := func(batch core.BatchPolicy) *setalgebra.Client {
		cl, err := setalgebra.StartCluster(setalgebra.ClusterConfig{
			Corpus:    corpus,
			Shards:    3,
			StopTerms: 5,
			MidTier:   core.Options{Workers: 4, EdgePolicy: core.EdgePolicy{Batch: batch}},
			Leaf:      core.LeafOptions{Workers: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		client, err := setalgebra.DialClient(cl.Addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		if batch.MaxBatch > 1 {
			t.Cleanup(func() { assertBatched(t, cl.Addr) })
		}
		return client
	}
	plain := start(core.BatchPolicy{})
	batched := start(equivBatch)

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		burst := make([]int, 8)
		for i := range burst {
			burst[i] = rng.Intn(len(queries))
		}
		done := make(chan *rpc.Call, len(burst))
		for _, q := range burst {
			batched.Go(queries[q], done)
		}
		for range burst {
			if call := <-done; call.Err != nil {
				t.Logf("batched search: %v", call.Err)
				return false
			}
		}
		for _, q := range burst {
			want, err := plain.Search(queries[q])
			if err != nil {
				t.Logf("plain search: %v", err)
				return false
			}
			got, err := batched.Search(queries[q])
			if err != nil {
				t.Logf("batched search: %v", err)
				return false
			}
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, equivQuickConf); err != nil {
		t.Fatal(err)
	}
}

func TestBatchEquivalenceRecommend(t *testing.T) {
	const users, items = 40, 50
	corpus := dataset.NewRatingCorpus(dataset.RatingCorpusConfig{
		Users: users, Items: items, Ratings: 1200, Seed: 13,
	})
	start := func(batch core.BatchPolicy) *recommend.Client {
		cl, err := recommend.StartCluster(recommend.ClusterConfig{
			Corpus:  corpus,
			Shards:  2,
			Seed:    13,
			MidTier: core.Options{Workers: 4, EdgePolicy: core.EdgePolicy{Batch: batch}},
			Leaf:    core.LeafOptions{Workers: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		client, err := recommend.DialClient(cl.Addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		if batch.MaxBatch > 1 {
			t.Cleanup(func() { assertBatched(t, cl.Addr) })
		}
		return client
	}
	plain := start(core.BatchPolicy{})
	batched := start(equivBatch)

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		type pair struct{ user, item int }
		burst := make([]pair, 8)
		for i := range burst {
			burst[i] = pair{rng.Intn(users), rng.Intn(items)}
		}
		done := make(chan *rpc.Call, len(burst))
		for _, p := range burst {
			batched.Go(p.user, p.item, done)
		}
		for range burst {
			if call := <-done; call.Err != nil {
				t.Logf("batched predict: %v", call.Err)
				return false
			}
		}
		for _, p := range burst {
			wantScore, wantOK, err := plain.Predict(p.user, p.item)
			if err != nil {
				t.Logf("plain predict: %v", err)
				return false
			}
			gotScore, gotOK, err := batched.Predict(p.user, p.item)
			if err != nil {
				t.Logf("batched predict: %v", err)
				return false
			}
			// Scalar and vectorized leaves share one arithmetic path, so
			// the predictions must agree to the bit, not within epsilon.
			if gotOK != wantOK || math.Float64bits(gotScore) != math.Float64bits(wantScore) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, equivQuickConf); err != nil {
		t.Fatal(err)
	}
}
