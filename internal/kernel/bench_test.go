package kernel

import (
	"math/rand"
	"testing"
)

// Leaf-compute microbenchmarks at one full shard: the engine's scan against
// the direct-sum BruteForce, and streaming top-k against selection by a full
// sort.  Nothing gates on them;
// `go test -run '^$' -bench 'LeafScan|TopK' ./internal/kernel`.

// leafScanCorpus builds the benchmark shard: 100k points × 64 dims, both as a
// Store and as the [][]float32 layout BruteForce scans.
func leafScanCorpus() (*Store, [][]float32, []float32) {
	const n, dim = 100_000, 64
	r := rand.New(rand.NewSource(7))
	s := randStore(r, n, dim)
	vecs := make([][]float32, n)
	for i := range vecs {
		vecs[i] = s.Row(i)
	}
	return s, vecs, randQuery(r, dim)
}

func BenchmarkLeafScan(b *testing.B) {
	s, vecs, q := leafScanCorpus()
	const k = 10
	b.Run("engine", func(b *testing.B) {
		eng := New(Config{})
		var dst []Neighbor
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = eng.Scan(s, q, k, dst[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepr", func(b *testing.B) {
		// The pre-engine leaf computation: per-point diff-squared distance,
		// every candidate offered to the heap.
		for i := 0; i < b.N; i++ {
			if got := BruteForce(q, vecs, k); len(got) != k {
				b.Fatal("short result")
			}
		}
	})
}

func BenchmarkTopK(b *testing.B) {
	const n, k = 100_000, 10
	r := rand.New(rand.NewSource(11))
	cands := make([]Neighbor, n)
	for i := range cands {
		cands[i] = Neighbor{ID: uint32(i), Distance: r.Float32()}
	}
	b.Run("stream", func(b *testing.B) {
		top := NewTopK(k)
		var dst []Neighbor
		for i := 0; i < b.N; i++ {
			top.Reset(k)
			// The engine's scan idiom: one inline threshold compare
			// rejects almost every candidate without a heap call.
			thr := top.Threshold()
			for _, c := range cands {
				if c.Distance <= thr {
					top.Consider(c.ID, c.Distance)
					thr = top.Threshold()
				}
			}
			dst = top.AppendSorted(dst[:0])
		}
		if len(dst) != k {
			b.Fatal("short result")
		}
	})
	b.Run("sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := refSelect(cands, k); len(got) != k {
				b.Fatal("short result")
			}
		}
	})
}

// BenchmarkSplit is one HDSearch leaf's planes at the benchmark's shape: a
// 25 000 × 64 shard (100 000 rows over four leaves).
func BenchmarkSplit(b *testing.B) {
	s, _ := clusteredStore(rand.New(rand.NewSource(9)), 25000, 64, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Split(s)
	}
}

// BenchmarkProject is one row's projection onto the benchmark index's planes
// (8 tables × 12 bits, dim 64): Project's one call against a Dot per plane.
func BenchmarkProject(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	planes := randStore(r, 96, 64)
	v := randQuery(r, 64)
	out := make([]float32, 96)
	b.Run("project", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Project(planes, 0, v, out)
		}
	})
	b.Run("dot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range out {
				out[j] = Dot(planes.Row(j), v)
			}
		}
	})
}
