package musuite_test

import (
	"testing"
	"time"

	"musuite"
)

// fakeIssue completes every request after d, with no network.
func fakeIssue(d time.Duration) musuite.IssueFunc {
	return func(done chan *musuite.RPCCall) *musuite.RPCCall {
		call := &musuite.RPCCall{Done: done}
		go func() {
			if d > 0 {
				time.Sleep(d)
			}
			call.Received = time.Now()
			done <- call
		}()
		return call
	}
}

func TestFacadeLoadgenWrappers(t *testing.T) {
	closed := musuite.RunClosedLoop(fakeIssue(time.Millisecond), musuite.ClosedLoopConfig{
		Concurrency: 2, Duration: 200 * time.Millisecond,
	})
	if closed.Completed == 0 {
		t.Fatal("closed loop completed nothing")
	}
	sat := musuite.FindSaturation(fakeIssue(2*time.Millisecond), musuite.SaturationConfig{
		Window: 150 * time.Millisecond, MaxConcurrency: 4,
	})
	if sat.Throughput <= 0 {
		t.Fatal("no saturation throughput")
	}
	h := musuite.NewLatencyHistogram()
	h.Record(time.Millisecond)
	if h.Count() != 1 {
		t.Fatal("histogram wrapper broken")
	}
}

func TestFacadeSchedules(t *testing.T) {
	fc := musuite.FlashCrowd(100, 5, time.Second, 200*time.Millisecond)
	if len(fc) != 3 || fc[1].QPS != 500 {
		t.Fatalf("flash crowd: %+v", fc)
	}
	di := musuite.Diurnal(10, 100, 3, 7*time.Second)
	if len(di) != 7 || di[3].QPS != 100 {
		t.Fatalf("diurnal: %+v", di)
	}
	res := musuite.RunSchedule(fakeIssue(0), []musuite.LoadPhase{
		{Name: "only", QPS: 300, Duration: 200 * time.Millisecond},
	}, 1, 5*time.Second)
	if len(res) != 1 || res[0].Completed == 0 {
		t.Fatalf("schedule: %+v", res)
	}
}

func TestFacadeTopology(t *testing.T) {
	spec, err := musuite.ParseTopology([]byte(`
topology: facade
entry: fe
services:
  fe:
    kind: synthetic
    ops:
      q:
        calls:
          - {edge: down, method: do}
    edges:
      down: {to: leaf, timeout: 100ms}
  leaf:
    kind: compute
    work: 20us
load:
  qps: 200
  duration: 300ms
scenario:
  - {at: 0ms, for: 100ms, target: leaf, slow: 1ms}
`))
	if err != nil {
		t.Fatal(err)
	}
	kinds := musuite.TopologyKinds()
	if len(kinds) != 4 {
		t.Fatalf("registered kinds: %v", kinds)
	}
	res, err := musuite.RunTopology(spec, musuite.TopoRunOptions{
		DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, completed, _, _, _ := res.Totals(); completed == 0 {
		t.Fatalf("run completed nothing: %+v", res)
	}
	if len(res.Events) != 2 {
		t.Fatalf("scenario log: %+v", res.Events)
	}
	if v := musuite.ScenarioViolations(res, 0); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestFacadeQueryStats(t *testing.T) {
	corpus := musuite.NewDocCorpus(musuite.DocCorpusConfig{Docs: 150, VocabSize: 500, Seed: 31})
	cluster, err := musuite.StartSetAlgebraCluster(musuite.SetAlgebraClusterConfig{
		Corpus: corpus, Shards: 2,
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
	for _, q := range corpus.Queries(5, 3, 32) {
		if _, err := client.Search(q); err != nil {
			t.Fatal(err)
		}
	}
	// A raw connection queries the reserved stats method.
	raw, err := musuite.DialRPC(cluster.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	st, err := musuite.QueryStats(raw)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "midtier" || st.Served < 5 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFacadeIndexKinds(t *testing.T) {
	corpus := musuite.NewImageCorpus(musuite.ImageCorpusConfig{N: 400, Dim: 16, Clusters: 4, Seed: 33})
	for _, kind := range []musuite.HDSearchIndexKind{
		musuite.HDSearchIndexLSH, musuite.HDSearchIndexKDTree, musuite.HDSearchIndexKMeans,
	} {
		cluster, err := musuite.StartHDSearchCluster(musuite.HDSearchClusterConfig{
			Corpus: corpus, Shards: 2, Kind: kind,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		client, err := musuite.DialHDSearch(cluster.Addr, nil)
		if err != nil {
			cluster.Close()
			t.Fatal(err)
		}
		ns, err := client.Search(corpus.Queries(1, 34)[0], 3)
		client.Close()
		cluster.Close()
		if err != nil || len(ns) == 0 {
			t.Fatalf("%s: %v (%d results)", kind, err, len(ns))
		}
	}
}
