package kmeans

import (
	"testing"

	"musuite/internal/dataset"
	"musuite/internal/kernel"
)

func buildCorpusIndex(t *testing.T, n, dim, k int) (*dataset.ImageCorpus, *Index) {
	t.Helper()
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: n, Dim: dim, Clusters: 8, Noise: 0.1, Seed: 4,
	})
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = Ref{Shard: int32(i % 4), PointID: uint32(i)}
	}
	idx, err := Build(corpus.Vectors, refs, Config{K: k, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return corpus, idx
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, nil, Config{}); err == nil {
		t.Fatal("empty corpus accepted")
	}
	if _, err := Build([][]float32{{1}}, make([]Ref, 2), Config{}); err == nil {
		t.Fatal("mismatched refs accepted")
	}
	if _, err := Build([][]float32{{1, 2}, {1}}, make([]Ref, 2), Config{}); err == nil {
		t.Fatal("ragged dims accepted")
	}
}

func TestInertiaMonotone(t *testing.T) {
	_, idx := buildCorpusIndex(t, 1000, 16, 12)
	if len(idx.InertiaTrace) == 0 {
		t.Fatal("no inertia trace")
	}
	for i := 1; i < len(idx.InertiaTrace); i++ {
		if idx.InertiaTrace[i] > idx.InertiaTrace[i-1]*(1+1e-9) {
			t.Fatalf("inertia increased at sweep %d: %v → %v",
				i, idx.InertiaTrace[i-1], idx.InertiaTrace[i])
		}
	}
}

func TestAllPointsAssignedExactlyOnce(t *testing.T) {
	_, idx := buildCorpusIndex(t, 500, 12, 10)
	seen := make(map[int]bool)
	total := 0
	for c := 0; c < idx.K(); c++ {
		total += idx.ClusterSize(c)
		for _, i := range idx.members[c] {
			if seen[i] {
				t.Fatalf("point %d in two clusters", i)
			}
			seen[i] = true
		}
	}
	if total != idx.Size() {
		t.Fatalf("assigned %d of %d", total, idx.Size())
	}
}

// TestRecoverPlantedClusters: with K equal to the generating mixture size,
// most clusters should be dominated by a single planted component.
func TestRecoverPlantedClusters(t *testing.T) {
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: 1200, Dim: 16, Clusters: 6, Noise: 0.08, Seed: 6,
	})
	refs := make([]Ref, len(corpus.Vectors))
	for i := range refs {
		refs[i] = Ref{PointID: uint32(i)}
	}
	idx, err := Build(corpus.Vectors, refs, Config{K: 6, Iterations: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pure, total := 0, 0
	for c := 0; c < idx.K(); c++ {
		if idx.ClusterSize(c) == 0 {
			continue
		}
		counts := make(map[int]int)
		for _, i := range idx.members[c] {
			counts[corpus.ClusterOf[i]]++
		}
		max := 0
		for _, n := range counts {
			if n > max {
				max = n
			}
		}
		pure += max
		total += idx.ClusterSize(c)
	}
	purity := float64(pure) / float64(total)
	if purity < 0.8 {
		t.Fatalf("cluster purity %.3f", purity)
	}
	t.Logf("cluster purity %.3f", purity)
}

// TestExhaustiveProbesExact: probing every cluster returns exactly the
// brute-force k-NN, for k from nothing to past the corpus.
func TestExhaustiveProbesExact(t *testing.T) {
	const n = 600
	corpus, idx := buildCorpusIndex(t, n, 12, 10)
	for qi, q := range corpus.Queries(30, 8) {
		for _, k := range []int{0, 1, 5, n, n + 2} {
			got := idx.Search(q, k, idx.K())
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

func TestFewProbesHighRecall(t *testing.T) {
	corpus, idx := buildCorpusIndex(t, 2000, 24, 16)
	queries := corpus.Queries(120, 9)
	hits := 0
	for _, q := range queries {
		truth := kernel.BruteForce(q, corpus.Vectors, 1)[0].ID
		for _, r := range idx.Search(q, 1, 3) {
			if r.Ref.PointID == truth {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(len(queries))
	if recall < 0.9 {
		t.Fatalf("recall@1 = %.3f with 3 of %d probes", recall, idx.K())
	}
	t.Logf("recall@1 = %.3f with 3/%d probes", recall, idx.K())
}

// TestTrainCentroidsReproducible: equal seeds over equal inputs must yield
// bit-identical centroids (and a different seed a different initialization),
// so IVF/PQ index builds reproduce exactly across runs.
func TestTrainCentroidsReproducible(t *testing.T) {
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: 800, Dim: 16, Clusters: 8, Noise: 0.1, Seed: 21,
	})
	cfg := Config{K: 12, Iterations: 15, Seed: 99}
	a, traceA, err := TrainCentroids(corpus.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, traceB, err := TrainCentroids(corpus.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(traceA) != len(traceB) {
		t.Fatalf("shape mismatch: %d/%d centroids, %d/%d sweeps", len(a), len(b), len(traceA), len(traceB))
	}
	for c := range a {
		for d := range a[c] {
			if a[c][d] != b[c][d] {
				t.Fatalf("centroid %d dim %d differs across identically-seeded builds: %v vs %v",
					c, d, a[c][d], b[c][d])
			}
		}
	}
	for i := range traceA {
		if traceA[i] != traceB[i] {
			t.Fatalf("inertia trace differs at sweep %d: %v vs %v", i, traceA[i], traceB[i])
		}
	}
	cfg.Seed = 100
	c, _, err := TrainCentroids(corpus.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		for d := range a[i] {
			if a[i][d] != c[i][d] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical centroids (seed unused?)")
	}
}

func TestLookupByShardGrouping(t *testing.T) {
	corpus, idx := buildCorpusIndex(t, 400, 8, 8)
	q := corpus.Queries(1, 10)[0]
	grouped := idx.LookupByShard(q, 2)
	total := 0
	for shard, ids := range grouped {
		total += len(ids)
		for _, id := range ids {
			if int32(id%4) != shard {
				t.Fatalf("point %d grouped under shard %d", id, shard)
			}
		}
	}
	if total == 0 || total >= 400 {
		t.Fatalf("candidates=%d (no pruning?)", total)
	}
}

func TestDegenerateCorpora(t *testing.T) {
	// Identical points: must terminate and cluster trivially.
	points := make([][]float32, 50)
	refs := make([]Ref, 50)
	for i := range points {
		points[i] = []float32{7, 7}
		refs[i] = Ref{PointID: uint32(i)}
	}
	idx, err := Build(points, refs, Config{K: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	res := idx.Search([]float32{7, 7}, 3, idx.K())
	if len(res) != 3 || res[0].Distance != 0 {
		t.Fatalf("degenerate search: %+v", res)
	}
	// K larger than corpus clamps.
	idx2, err := Build(points[:3], refs[:3], Config{K: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if idx2.K() > 3 {
		t.Fatalf("k=%d exceeds corpus", idx2.K())
	}
}

func BenchmarkKMeansSearch(b *testing.B) {
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: 5000, Dim: 64, Clusters: 16, Seed: 11,
	})
	refs := make([]Ref, 5000)
	for i := range refs {
		refs[i] = Ref{Shard: int32(i % 4), PointID: uint32(i)}
	}
	idx, err := Build(corpus.Vectors, refs, Config{Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	q := corpus.Queries(1, 13)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search(q, 5, 4)
	}
}
