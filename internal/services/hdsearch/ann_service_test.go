package hdsearch

import (
	"math"
	"testing"

	"musuite/internal/ann"
	"musuite/internal/core"
	"musuite/internal/kernel"
)

func startANNCluster(t *testing.T, kind IndexKind, cfg ann.Config) (*Cluster, *Client) {
	t.Helper()
	corpus := testCorpus(t)
	cl, err := StartCluster(ClusterConfig{
		Corpus:  corpus,
		Shards:  4,
		Kind:    kind,
		ANN:     cfg,
		MidTier: core.Options{Workers: 2, ResponseThreads: 2},
		Leaf:    core.LeafOptions{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	client, err := DialClient(cl.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return cl, client
}

// TestANNKindsServeSearches runs the full three-tier pipeline over each
// leaf-resident ANN kind and checks end-to-end recall, mirroring the
// candidate-generator kinds' test.
func TestANNKindsServeSearches(t *testing.T) {
	corpus := testCorpus(t)
	for _, kind := range []IndexKind{IndexIVF, IndexIVFSQ, IndexIVFPQ, IndexHNSW} {
		t.Run(string(kind), func(t *testing.T) {
			cl, client := startANNCluster(t, kind, ann.Config{Seed: 11})
			if cl.ANNRouter() == nil {
				t.Fatal("no ANN router on an ANN-kind cluster")
			}
			queries := corpus.Queries(60, 17)
			hits := 0
			for _, q := range queries {
				got, err := client.Search(q, 1)
				if err != nil {
					t.Fatal(err)
				}
				truth := kernel.BruteForce(q, corpus.Vectors, 1)[0].ID
				if len(got) > 0 && got[0].PointID == truth {
					hits++
				}
			}
			recall := float64(hits) / float64(len(queries))
			if recall < 0.85 {
				t.Fatalf("recall@1 = %.3f", recall)
			}
			t.Logf("recall@1 = %.3f", recall)
		})
	}
}

// TestANNExhaustiveMatchesBruteForce: with the search breadth covering the
// whole corpus — every cluster probed for the ivf kinds (plus a
// corpus-covering re-rank for the compressed ones), a corpus-wide beam for
// hnsw — the distributed ANN path must reproduce brute-force results:
// distances match ground truth within float tolerance at every rank.
func TestANNExhaustiveMatchesBruteForce(t *testing.T) {
	corpus := testCorpus(t)
	for _, kind := range []IndexKind{IndexIVF, IndexIVFSQ, IndexIVFPQ, IndexHNSW} {
		t.Run(string(kind), func(t *testing.T) {
			cl, client := startANNCluster(t, kind, ann.Config{NList: 12, Seed: 13})
			knob := 12 // every IVF list
			if kind == IndexHNSW {
				// An efSearch covering any shard makes the beam exhaustive
				// over the shard's (connected) base layer.
				knob = len(corpus.Vectors)
			}
			cl.ANNRouter().SetNProbe(knob)
			cl.ANNRouter().SetRerank(len(corpus.Vectors))
			for qi, q := range corpus.Queries(25, 19) {
				got, err := client.Search(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				want := kernel.BruteForce(q, corpus.Vectors, 5)
				if len(got) != len(want) {
					t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
				}
				for r := range want {
					if got[r].PointID == want[r].ID {
						continue
					}
					// A different ID is only acceptable on a float near-tie
					// between the two scoring kernels.
					if math.Abs(float64(got[r].Distance-want[r].Distance)) > 1e-3 {
						t.Fatalf("query %d rank %d: got point %d dist %v, want point %d dist %v",
							qi, r, got[r].PointID, got[r].Distance, want[r].ID, want[r].Distance)
					}
				}
			}
		})
	}
}

// TestANNRouterRetune: nprobe/rerank must be retunable on a live cluster —
// the indexcmp sweep depends on it — and a wider probe must not lower
// recall.
func TestANNRouterRetune(t *testing.T) {
	corpus := testCorpus(t)
	cl, client := startANNCluster(t, IndexIVFPQ, ann.Config{NList: 16, Seed: 23})
	queries := corpus.Queries(40, 29)
	recallAt := func(nprobe int) float64 {
		cl.ANNRouter().SetNProbe(nprobe)
		hits := 0
		for _, q := range queries {
			got, err := client.Search(q, 1)
			if err != nil {
				t.Fatal(err)
			}
			truth := kernel.BruteForce(q, corpus.Vectors, 1)[0].ID
			if len(got) > 0 && got[0].PointID == truth {
				hits++
			}
		}
		return float64(hits) / float64(len(queries))
	}
	narrow := recallAt(1)
	wide := recallAt(16)
	if wide < narrow {
		t.Fatalf("recall fell as probes widened: %.3f @1 vs %.3f @16", narrow, wide)
	}
	if wide < 0.85 {
		t.Fatalf("recall@1 = %.3f with all clusters probed", wide)
	}
	t.Logf("recall %.3f @nprobe=1 → %.3f @nprobe=16", narrow, wide)
}

// TestHNSWRouterRetuneEFSearch: the hnsw beam width must be retunable on a
// live cluster through the shared knob slot (SetNProbe), and a wider beam
// must not lower recall.
func TestHNSWRouterRetuneEFSearch(t *testing.T) {
	corpus := testCorpus(t)
	cl, client := startANNCluster(t, IndexHNSW, ann.Config{Seed: 27})
	queries := corpus.Queries(40, 31)
	recallAt := func(ef int) float64 {
		cl.ANNRouter().SetNProbe(ef)
		hits := 0
		for _, q := range queries {
			got, err := client.Search(q, 1)
			if err != nil {
				t.Fatal(err)
			}
			truth := kernel.BruteForce(q, corpus.Vectors, 1)[0].ID
			if len(got) > 0 && got[0].PointID == truth {
				hits++
			}
		}
		return float64(hits) / float64(len(queries))
	}
	narrow := recallAt(1)
	wide := recallAt(128)
	if wide < narrow {
		t.Fatalf("recall fell as the beam widened: %.3f @1 vs %.3f @128", narrow, wide)
	}
	if wide < 0.85 {
		t.Fatalf("recall@1 = %.3f at efSearch=128", wide)
	}
	t.Logf("recall %.3f @efSearch=1 → %.3f @efSearch=128", narrow, wide)
}
