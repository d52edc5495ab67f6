package kdtree

import (
	"math/rand"
	"testing"

	"musuite/internal/dataset"
	"musuite/internal/kernel"
)

func buildCorpusTree(t *testing.T, n, dim int) (*dataset.ImageCorpus, *Tree) {
	t.Helper()
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: n, Dim: dim, Clusters: 8, Noise: 0.12, Seed: 3,
	})
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = Ref{Shard: int32(i % 4), PointID: uint32(i)}
	}
	tree, err := Build(corpus.Vectors, refs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return corpus, tree
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, nil, Config{}); err == nil {
		t.Fatal("empty corpus accepted")
	}
	if _, err := Build([][]float32{{1, 2}}, nil, Config{}); err == nil {
		t.Fatal("mismatched refs accepted")
	}
	if _, err := Build([][]float32{{1, 2}, {1}}, make([]Ref, 2), Config{}); err == nil {
		t.Fatal("ragged dims accepted")
	}
}

// TestExhaustiveSearchIsExact: with an unlimited checks budget, the tree
// must return exactly the brute-force k-NN, for k from nothing to past the
// corpus.
func TestExhaustiveSearchIsExact(t *testing.T) {
	const n = 800
	corpus, tree := buildCorpusTree(t, n, 16)
	for qi, q := range corpus.Queries(40, 5) {
		for _, k := range []int{0, 1, 5, n, n + 2} {
			got := tree.Search(q, k, 0)
			want := kernel.BruteForce(q, corpus.Vectors, k)
			if len(got) != len(want) {
				t.Fatalf("query %d, k=%d: %d results want %d", qi, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Ref.PointID != want[i].ID || got[i].Distance != want[i].Distance {
					t.Fatalf("query %d, k=%d rank %d: got %+v want %+v", qi, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBoundedChecksRecall: a modest budget must still find the true NN for
// the vast majority of clustered queries (best-first descends to the right
// region first).
func TestBoundedChecksRecall(t *testing.T) {
	corpus, tree := buildCorpusTree(t, 3000, 24)
	queries := corpus.Queries(150, 7)
	hits := 0
	const checks = 300 // 10% of the corpus
	for _, q := range queries {
		truth := kernel.BruteForce(q, corpus.Vectors, 1)[0].ID
		for _, r := range tree.Search(q, 1, checks) {
			if r.Ref.PointID == truth {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(len(queries))
	if recall < 0.9 {
		t.Fatalf("recall@1 = %.3f with %d checks", recall, checks)
	}
	t.Logf("recall@1 = %.3f at %d/%d checks", recall, checks, tree.Size())
}

func TestMoreChecksRaiseRecall(t *testing.T) {
	corpus, tree := buildCorpusTree(t, 2000, 24)
	queries := corpus.Queries(100, 9)
	recallAt := func(checks int) float64 {
		hits := 0
		for _, q := range queries {
			truth := kernel.BruteForce(q, corpus.Vectors, 1)[0].ID
			for _, r := range tree.Search(q, 1, checks) {
				if r.Ref.PointID == truth {
					hits++
				}
			}
		}
		return float64(hits) / float64(len(queries))
	}
	low, high := recallAt(40), recallAt(800)
	if high < low {
		t.Fatalf("recall fell with budget: %.3f → %.3f", low, high)
	}
	if high < 0.97 {
		t.Fatalf("recall at 40%% checks = %.3f", high)
	}
}

func TestSearchResultsSorted(t *testing.T) {
	corpus, tree := buildCorpusTree(t, 500, 8)
	for _, q := range corpus.Queries(20, 11) {
		res := tree.Search(q, 10, 200)
		for i := 1; i < len(res); i++ {
			if res[i].Distance < res[i-1].Distance {
				t.Fatal("results unsorted")
			}
		}
	}
}

func TestDuplicatePointsHandled(t *testing.T) {
	// A corpus of identical points must build (degenerate splits) and
	// search without infinite recursion.
	points := make([][]float32, 100)
	refs := make([]Ref, 100)
	for i := range points {
		points[i] = []float32{1, 2, 3}
		refs[i] = Ref{PointID: uint32(i)}
	}
	tree, err := Build(points, refs, Config{BucketSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	res := tree.Search([]float32{1, 2, 3}, 5, 0)
	if len(res) != 5 {
		t.Fatalf("results=%d", len(res))
	}
	for _, r := range res {
		if r.Distance != 0 {
			t.Fatalf("distance=%v", r.Distance)
		}
	}
}

func TestLookupByShardGrouping(t *testing.T) {
	corpus, tree := buildCorpusTree(t, 400, 8)
	q := corpus.Queries(1, 13)[0]
	grouped := tree.LookupByShard(q, 50, 0)
	total := 0
	for shard, ids := range grouped {
		total += len(ids)
		for _, id := range ids {
			if int32(id%4) != shard {
				t.Fatalf("point %d grouped under shard %d", id, shard)
			}
		}
	}
	if total == 0 || total > 50 {
		t.Fatalf("candidates=%d", total)
	}
}

func BenchmarkTreeSearch5K(b *testing.B) {
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: 5000, Dim: 64, Clusters: 16, Seed: 21,
	})
	refs := make([]Ref, 5000)
	for i := range refs {
		refs[i] = Ref{Shard: int32(i % 4), PointID: uint32(i)}
	}
	tree, err := Build(corpus.Vectors, refs, Config{})
	if err != nil {
		b.Fatal(err)
	}
	q := corpus.Queries(1, 23)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Search(q, 5, 500)
	}
}

func BenchmarkTreeBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	points := make([][]float32, 2000)
	refs := make([]Ref, 2000)
	for i := range points {
		v := make([]float32, 32)
		for d := range v {
			v[d] = rng.Float32()
		}
		points[i] = v
		refs[i] = Ref{PointID: uint32(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(points, refs, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
