package dataset

import (
	"math"
	"testing"
)

// euclidean is ‖a−b‖.
func euclidean(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i] - b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

func TestImageCorpusDeterministic(t *testing.T) {
	cfg := ImageCorpusConfig{N: 100, Dim: 16, Clusters: 4, Seed: 7}
	a := NewImageCorpus(cfg)
	b := NewImageCorpus(cfg)
	for i := range a.Vectors {
		for d := range a.Vectors[i] {
			if a.Vectors[i][d] != b.Vectors[i][d] {
				t.Fatalf("non-deterministic at point %d dim %d", i, d)
			}
		}
	}
	c := NewImageCorpus(ImageCorpusConfig{N: 100, Dim: 16, Clusters: 4, Seed: 8})
	if a.Vectors[0][0] == c.Vectors[0][0] && a.Vectors[1][0] == c.Vectors[1][0] {
		t.Fatal("seed ignored")
	}
}

func TestImageCorpusClusterLocality(t *testing.T) {
	// Points in the same cluster must on average be closer than points in
	// different clusters — the property LSH exploits.
	c := NewImageCorpus(ImageCorpusConfig{N: 400, Dim: 32, Clusters: 8, Noise: 0.1, Seed: 1})
	var intra, inter float64
	var nIntra, nInter int
	for i := 0; i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			d := euclidean(c.Vectors[i], c.Vectors[j])
			if c.ClusterOf[i] == c.ClusterOf[j] {
				intra += d
				nIntra++
			} else {
				inter += d
				nInter++
			}
		}
	}
	if nIntra == 0 || nInter == 0 {
		t.Skip("degenerate cluster assignment")
	}
	if intra/float64(nIntra) >= inter/float64(nInter) {
		t.Fatalf("no cluster locality: intra=%v inter=%v", intra/float64(nIntra), inter/float64(nInter))
	}
}

func TestImageCorpusQueriesNearCorpus(t *testing.T) {
	c := NewImageCorpus(ImageCorpusConfig{N: 200, Dim: 16, Clusters: 4, Noise: 0.1, Seed: 2})
	qs := c.Queries(20, 3)
	if len(qs) != 20 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		if len(q) != c.Dim {
			t.Fatal("query dimension mismatch")
		}
		best := math.MaxFloat64
		for _, v := range c.Vectors {
			if d := euclidean(q, v); d < best {
				best = d
			}
		}
		// A perturbed corpus point should be close to something.
		if best > 2 {
			t.Fatalf("query too far from corpus: %v", best)
		}
	}
}

func TestImageCorpusShard(t *testing.T) {
	c := NewImageCorpus(ImageCorpusConfig{N: 103, Dim: 4, Seed: 3})
	shards := c.Shard(4)
	total := 0
	seen := make(map[int]bool)
	for _, s := range shards {
		total += len(s)
		for _, id := range s {
			if seen[id] {
				t.Fatalf("point %d in two shards", id)
			}
			seen[id] = true
		}
	}
	if total != 103 {
		t.Fatalf("sharded %d of 103", total)
	}
	for i, s := range shards {
		if len(s) < 25 || len(s) > 26 {
			t.Errorf("shard %d has %d points (imbalanced)", i, len(s))
		}
	}
}

func TestKVTraceMixAndSkew(t *testing.T) {
	tr := NewKVTrace(KVTraceConfig{Keys: 1000, ValueSize: 64, GetFraction: 0.5, Seed: 4})
	ops := tr.Ops(10000)
	gets, sets := 0, 0
	keyCount := make(map[string]int)
	for _, op := range ops {
		if op.Kind == KVGet {
			gets++
			if op.Value != nil {
				t.Fatal("get carries a value")
			}
		} else {
			sets++
			if len(op.Value) != 64 {
				t.Fatalf("set value len=%d", len(op.Value))
			}
		}
		keyCount[op.Key]++
	}
	frac := float64(gets) / float64(gets+sets)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("get fraction=%v want ≈0.5", frac)
	}
	// Zipf skew: the hottest key should take far more than 1/Keys share.
	max := 0
	for _, n := range keyCount {
		if n > max {
			max = n
		}
	}
	if float64(max)/10000 < 0.05 {
		t.Errorf("hottest key share=%v, trace not skewed", float64(max)/10000)
	}
}

func TestKVWarmupCoversAllKeys(t *testing.T) {
	tr := NewKVTrace(KVTraceConfig{Keys: 50, Seed: 5})
	warm := tr.WarmupSets()
	if len(warm) != 50 {
		t.Fatalf("warmup=%d", len(warm))
	}
	seen := make(map[string]bool)
	for _, op := range warm {
		if op.Kind != KVSet {
			t.Fatal("warmup op is not a set")
		}
		seen[op.Key] = true
	}
	if len(seen) != 50 {
		t.Fatalf("warmup covers %d keys", len(seen))
	}
}

func TestDocCorpusZipfStopWords(t *testing.T) {
	c := NewDocCorpus(DocCorpusConfig{Docs: 500, VocabSize: 2000, MeanDocLen: 80, Seed: 6})
	if len(c.Docs) != 500 {
		t.Fatalf("docs=%d", len(c.Docs))
	}
	freq := make(map[int]int)
	total := 0
	for _, doc := range c.Docs {
		if len(doc) == 0 {
			t.Fatal("empty document")
		}
		for _, w := range doc {
			if w < 0 || w >= c.VocabSize {
				t.Fatalf("word %d out of vocab", w)
			}
			freq[w]++
			total++
		}
	}
	// Zipf: the most frequent word must dominate (>5% of tokens) — the
	// property that makes stop-listing worthwhile.
	max := 0
	for _, n := range freq {
		if n > max {
			max = n
		}
	}
	if float64(max)/float64(total) < 0.05 {
		t.Errorf("top word share=%v, not Zipf-like", float64(max)/float64(total))
	}
}

func TestDocQueries(t *testing.T) {
	c := NewDocCorpus(DocCorpusConfig{Docs: 100, VocabSize: 500, Seed: 7})
	qs := c.Queries(200, 10, 8)
	if len(qs) != 200 {
		t.Fatalf("queries=%d", len(qs))
	}
	for _, q := range qs {
		if len(q) < 1 || len(q) > 10 {
			t.Fatalf("query length %d outside 1..10", len(q))
		}
		seen := make(map[int]bool)
		for _, w := range q {
			if seen[w] {
				t.Fatal("duplicate term in query")
			}
			seen[w] = true
		}
	}
}

func TestDocShardUniform(t *testing.T) {
	c := NewDocCorpus(DocCorpusConfig{Docs: 101, Seed: 9})
	shards := c.Shard(4)
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	if total != 101 {
		t.Fatalf("sharded %d of 101", total)
	}
}

func TestRatingCorpusShape(t *testing.T) {
	c := NewRatingCorpus(RatingCorpusConfig{Users: 50, Items: 80, Ratings: 1000, Seed: 10})
	if len(c.Ratings) != 1000 {
		t.Fatalf("ratings=%d", len(c.Ratings))
	}
	perUser := make(map[int]int)
	for _, r := range c.Ratings {
		if r.User < 0 || r.User >= 50 || r.Item < 0 || r.Item >= 80 {
			t.Fatalf("rating out of range: %+v", r)
		}
		if r.Value < 1 || r.Value > 5 {
			t.Fatalf("rating value %v outside 1..5", r.Value)
		}
		perUser[r.User]++
	}
	// Every user has ≥1 rating (no cold start).
	for u := 0; u < 50; u++ {
		if perUser[u] == 0 {
			t.Fatalf("user %d has no ratings", u)
		}
	}
}

func TestRatingCorpusNoDuplicates(t *testing.T) {
	c := NewRatingCorpus(RatingCorpusConfig{Users: 20, Items: 20, Ratings: 300, Seed: 11})
	seen := make(map[[2]int]bool)
	for _, r := range c.Ratings {
		k := [2]int{r.User, r.Item}
		if seen[k] {
			t.Fatalf("duplicate rating for %v", k)
		}
		seen[k] = true
		if !c.Rated(r.User, r.Item) {
			t.Fatal("Rated() disagrees with Ratings")
		}
	}
}

func TestRatingQueryPairsUnrated(t *testing.T) {
	c := NewRatingCorpus(RatingCorpusConfig{Users: 30, Items: 40, Ratings: 400, Seed: 12})
	pairs := c.QueryPairs(100, 13)
	if len(pairs) != 100 {
		t.Fatalf("pairs=%d", len(pairs))
	}
	for _, p := range pairs {
		if c.Rated(p[0], p[1]) {
			t.Fatalf("query pair %v was trained on", p)
		}
	}
}

func TestRatingShardByItem(t *testing.T) {
	c := NewRatingCorpus(RatingCorpusConfig{Users: 30, Items: 40, Ratings: 500, Seed: 14})
	shards := c.ShardByItem(4)
	total := 0
	for s, ratings := range shards {
		total += len(ratings)
		for _, r := range ratings {
			if r.Item%4 != s {
				t.Fatalf("rating for item %d landed in shard %d", r.Item, s)
			}
		}
	}
	if total != 500 {
		t.Fatalf("sharded %d of 500", total)
	}
}

func TestRatingsCappedAtMatrixSize(t *testing.T) {
	c := NewRatingCorpus(RatingCorpusConfig{Users: 5, Items: 5, Ratings: 100, Seed: 15})
	if len(c.Ratings) != 25 {
		t.Fatalf("ratings=%d want 25 (full matrix)", len(c.Ratings))
	}
}
