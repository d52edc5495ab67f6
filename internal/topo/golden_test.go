package topo

import (
	"reflect"
	"testing"

	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/rpc"
	"musuite/internal/services/hdsearch"
	"musuite/internal/services/recommend"
	"musuite/internal/services/router"
	"musuite/internal/services/setalgebra"
	"musuite/internal/telemetry"
)

// Golden equivalence: each of the four handwritten μSuite services,
// re-expressed as a one-node topology spec, must produce byte-identical
// responses and the same TierStats shape as the handwritten
// StartCluster wiring it replaced.  This is the refactor's contract: the
// spec path is the same machinery, not a parallel reimplementation.

const goldenSeed = int64(1)

// specEntryAddr builds a one-node registered-kind spec and returns the
// deployment plus its entry mid-tier address.
func specEntryAddr(t *testing.T, src string) (*Deployment, string) {
	t.Helper()
	spec, err := ParseSpec([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Build(spec, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, d.EntryAddrs()[0]
}

// tierStats queries a mid-tier's stats over the wire, exactly as an
// operator would.
func tierStats(t *testing.T, addr string) core.TierStats {
	t.Helper()
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := core.QueryStats(c)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// assertStatsShape pins the spec-driven tier to the handwritten tier's
// stats shape: same role, same worker pool, same served count for the
// same offered requests.
func assertStatsShape(t *testing.T, specAddr, refAddr string) {
	t.Helper()
	specSt, refSt := tierStats(t, specAddr), tierStats(t, refAddr)
	if specSt.Role != refSt.Role {
		t.Errorf("role: spec=%q handwritten=%q", specSt.Role, refSt.Role)
	}
	if specSt.Workers != refSt.Workers {
		t.Errorf("workers: spec=%d handwritten=%d", specSt.Workers, refSt.Workers)
	}
	if specSt.Served != refSt.Served {
		t.Errorf("served: spec=%d handwritten=%d", specSt.Served, refSt.Served)
	}
}

func TestGoldenHDSearch(t *testing.T) {
	_, specAddr := specEntryAddr(t, `
topology: hdsearch-golden
entry: search
services:
  search:
    kind: hdsearch
    shards: 2
    params: {corpus: 500, dim: 16, clusters: 5, queries: 64}
`)
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: 500, Dim: 16, Clusters: 5, Seed: goldenSeed,
	})
	cl, err := hdsearch.StartCluster(hdsearch.ClusterConfig{
		Corpus: corpus, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	specClient, err := hdsearch.DialClient(specAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer specClient.Close()
	refClient, err := hdsearch.DialClient(cl.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer refClient.Close()

	for i, q := range corpus.Queries(16, goldenSeed+100) {
		got, err := specClient.Search(q, 5)
		if err != nil {
			t.Fatalf("query %d (spec): %v", i, err)
		}
		want, err := refClient.Search(q, 5)
		if err != nil {
			t.Fatalf("query %d (handwritten): %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: spec %v != handwritten %v", i, got, want)
		}
	}
	assertStatsShape(t, specAddr, cl.Addr)
}

func TestGoldenRouter(t *testing.T) {
	_, specAddr := specEntryAddr(t, `
topology: router-golden
entry: kv
services:
  kv:
    kind: router
    shards: 2
    replicas: 2
    params: {keys: 200, value-size: 32}
`)
	cl, err := router.StartCluster(router.ClusterConfig{
		Leaves: 2, Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	specClient, err := router.DialClient(specAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer specClient.Close()
	refClient, err := router.DialClient(cl.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer refClient.Close()

	// The spec builder already warmed its cluster from this trace; replay
	// the identical warmup on the handwritten side.
	kvtrace := dataset.NewKVTrace(dataset.KVTraceConfig{
		Keys: 200, ValueSize: 32, Seed: goldenSeed + 200,
	})
	for _, op := range kvtrace.WarmupSets() {
		if err := refClient.Set(op.Key, op.Value); err != nil {
			t.Fatal(err)
		}
	}
	for i, op := range kvtrace.Ops(64) {
		if op.Kind != dataset.KVGet {
			continue
		}
		gotV, gotOK, err := specClient.Get(op.Key)
		if err != nil {
			t.Fatalf("op %d (spec): %v", i, err)
		}
		wantV, wantOK, err := refClient.Get(op.Key)
		if err != nil {
			t.Fatalf("op %d (handwritten): %v", i, err)
		}
		if gotOK != wantOK || !reflect.DeepEqual(gotV, wantV) {
			t.Fatalf("get %q: spec (%q,%v) != handwritten (%q,%v)",
				op.Key, gotV, gotOK, wantV, wantOK)
		}
	}
	assertStatsShape(t, specAddr, cl.Addr)
}

func TestGoldenSetAlgebra(t *testing.T) {
	_, specAddr := specEntryAddr(t, `
topology: setalgebra-golden
entry: search
services:
  search:
    kind: setalgebra
    shards: 2
    params: {docs: 300, vocab: 800, mean-doc-len: 30, stop-terms: 5}
`)
	corpus := dataset.NewDocCorpus(dataset.DocCorpusConfig{
		Docs: 300, VocabSize: 800, MeanDocLen: 30, Seed: goldenSeed + 300,
	})
	cl, err := setalgebra.StartCluster(setalgebra.ClusterConfig{
		Corpus: corpus, Shards: 2, StopTerms: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	specClient, err := setalgebra.DialClient(specAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer specClient.Close()
	refClient, err := setalgebra.DialClient(cl.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer refClient.Close()

	for i, q := range corpus.Queries(32, 10, goldenSeed+301) {
		got, err := specClient.Search(q)
		if err != nil {
			t.Fatalf("query %d (spec): %v", i, err)
		}
		want, err := refClient.Search(q)
		if err != nil {
			t.Fatalf("query %d (handwritten): %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d (%v): spec %v != handwritten %v", i, q, got, want)
		}
	}
	assertStatsShape(t, specAddr, cl.Addr)
}

func TestGoldenRecommend(t *testing.T) {
	_, specAddr := specEntryAddr(t, `
topology: recommend-golden
entry: recs
services:
  recs:
    kind: recommend
    shards: 2
    params: {users: 30, items: 40, ratings: 600}
`)
	corpus := dataset.NewRatingCorpus(dataset.RatingCorpusConfig{
		Users: 30, Items: 40, Ratings: 600, Seed: goldenSeed + 400,
	})
	cl, err := recommend.StartCluster(recommend.ClusterConfig{
		Corpus: corpus, Shards: 2, Seed: goldenSeed + 401,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	specClient, err := recommend.DialClient(specAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer specClient.Close()
	refClient, err := recommend.DialClient(cl.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer refClient.Close()

	for i, p := range corpus.QueryPairs(16, goldenSeed+402) {
		got, gotOK, err := specClient.Predict(p[0], p[1])
		if err != nil {
			t.Fatalf("pair %d (spec): %v", i, err)
		}
		want, wantOK, err := refClient.Predict(p[0], p[1])
		if err != nil {
			t.Fatalf("pair %d (handwritten): %v", i, err)
		}
		if got != want || gotOK != wantOK {
			t.Fatalf("pair %d %v: spec (%v,%v) != handwritten (%v,%v)",
				i, p, got, gotOK, want, wantOK)
		}
	}
	assertStatsShape(t, specAddr, cl.Addr)
}

// TestSpecBuiltLeafKernelPointsSumToProbe: a spec-built 4-shard hdsearch
// gives every leaf its own engine, so each leaf's KernelPoints is that
// shard's work and their sum is the deployment total the shared probe
// holds — not the shard count times it, as one engine shared by every leaf
// would report.
func TestSpecBuiltLeafKernelPointsSumToProbe(t *testing.T) {
	probe := telemetry.NewProbe()
	d := buildSpec(t, `
topology: hdsearch-counters
entry: search
services:
  search:
    kind: hdsearch
    shards: 4
    params: {corpus: 800, dim: 16, clusters: 5, queries: 64}
`, BuildOptions{Probe: probe})
	done := make(chan *rpc.Call, 32)
	for i := 0; i < cap(done); i++ {
		d.Service("search").issue.Issue(done)
	}
	for i := 0; i < cap(done); i++ {
		if call := <-done; call.Err != nil {
			t.Fatal(call.Err)
		}
	}
	var sum uint64
	for _, g := range d.Service("search").MidTiers()[0].Topology().View().Groups {
		st := tierStats(t, g.Addrs[0])
		if st.Role != "leaf" || st.KernelPoints == 0 {
			t.Fatalf("leaf %s: role=%q kernel points=%d", g.Addrs[0], st.Role, st.KernelPoints)
		}
		sum += st.KernelPoints
	}
	if total := probe.Load(telemetry.KernelPoints); sum != total {
		t.Fatalf("Σ leaf KernelPoints = %d, the probe counted %d", sum, total)
	}
}
