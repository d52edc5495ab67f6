package hdsearch

import (
	"testing"

	"musuite/internal/core"
	"musuite/internal/kernel"
)

func startClusterWithIndex(t *testing.T, kind IndexKind) (*Cluster, *Client) {
	t.Helper()
	corpus := testCorpus(t)
	cl, err := StartCluster(ClusterConfig{
		Corpus:  corpus,
		Shards:  4,
		Kind:    kind,
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

// TestAllIndexKindsServeSearches runs the full three-tier pipeline under
// each of the paper's three indexing structures and checks recall for each.
func TestAllIndexKindsServeSearches(t *testing.T) {
	corpus := testCorpus(t)
	for _, kind := range []IndexKind{IndexLSH, IndexKDTree, IndexKMeans} {
		t.Run(string(kind), func(t *testing.T) {
			_, client := startClusterWithIndex(t, kind)
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

func TestBuildCandidateIndexKinds(t *testing.T) {
	corpus := testCorpus(t)
	shards := ShardCorpus(corpus, 4)
	for _, kind := range []IndexKind{IndexLSH, IndexKDTree, IndexKMeans, ""} {
		idx, err := BuildCandidateIndex(kind, shards, IndexConfig{Seed: 1})
		if err != nil {
			t.Fatalf("%q: %v", kind, err)
		}
		// The stale set must be emptied, not added to.
		byShard := idx.LookupInto(corpus.Queries(1, 19)[0], []kernel.RowSet{packIDs([]uint32{1 << 30})})
		if len(byShard) > 4 {
			t.Fatalf("%q: %d shard sets for 4 shards", kind, len(byShard))
		}
		total := 0
		for shard, set := range byShard {
			ids := set.AppendIDs(nil)
			for _, id := range ids {
				if int(id) >= shards[shard].Store.Len() {
					t.Fatalf("%q: shard %d candidate %d out of range", kind, shard, id)
				}
			}
			total += len(ids)
		}
		if total == 0 {
			t.Fatalf("%q: no candidates", kind)
		}
		if total > len(corpus.Vectors)/2 {
			t.Fatalf("%q: %d candidates — not pruning", kind, total)
		}
	}
	if _, err := BuildCandidateIndex("btree", shards, IndexConfig{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := BuildCandidateIndex(IndexKDTree, nil, IndexConfig{}); err == nil {
		t.Fatal("empty shards accepted")
	}
}
