package kernel

import (
	"math/rand"
	"testing"

	"musuite/internal/knn"
	"musuite/internal/vec"
)

// Leaf-compute microbenchmarks at one full shard: the engine's scan against
// the pre-engine scalar path, and streaming top-k against reference
// selection.  Nothing gates on them;
// `go test -run '^$' -bench 'LeafScan|TopK' ./internal/kernel`.

// leafScanCorpus builds the benchmark shard: 100k points × 64 dims, both as a
// Store and as the []vec.Vector layout the pre-engine path scanned.
func leafScanCorpus() (*Store, []vec.Vector, []float32) {
	const n, dim = 100_000, 64
	r := rand.New(rand.NewSource(7))
	s := randStore(r, n, dim)
	vecs := make([]vec.Vector, n)
	for i := range vecs {
		vecs[i] = vec.Vector(s.Row(i))
	}
	return s, vecs, randQuery(r, dim)
}

func BenchmarkLeafScan(b *testing.B) {
	s, vecs, q := leafScanCorpus()
	const k = 10
	b.Run("engine", func(b *testing.B) {
		eng := New(Config{})
		var dst []knn.Neighbor
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = eng.Scan(s, q, k, dst[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepr", func(b *testing.B) {
		// The pre-engine leaf computation: per-point diff-squared distance
		// into the heap-based reference selection.
		for i := 0; i < b.N; i++ {
			if got := knn.BruteForce(vec.Vector(q), vecs, k); len(got) != k {
				b.Fatal("short result")
			}
		}
	})
}

func BenchmarkTopK(b *testing.B) {
	const n, k = 100_000, 10
	r := rand.New(rand.NewSource(11))
	cands := make([]knn.Neighbor, n)
	for i := range cands {
		cands[i] = knn.Neighbor{ID: uint32(i), Distance: r.Float32()}
	}
	b.Run("stream", func(b *testing.B) {
		top := NewTopK(k)
		var dst []knn.Neighbor
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
	b.Run("select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := knn.Select(cands, k); len(got) != k {
				b.Fatal("short result")
			}
		}
	})
}
