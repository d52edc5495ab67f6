package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSquaredEuclideanBasic(t *testing.T) {
	if got := SquaredEuclidean([]float32{0, 0, 0}, []float32{3, 4, 0}); got != 25 {
		t.Fatalf("got %v want 25", got)
	}
}

func TestSquaredEuclideanIdentityAndSymmetry(t *testing.T) {
	f := func(raw []float32) bool {
		// Clamp to a sane range so float error stays bounded.
		a := make([]float32, len(raw))
		b := make([]float32, len(raw))
		for i, r := range raw {
			v := float32(math.Mod(float64(r), 100))
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 1
			}
			a[i] = v
			b[i] = -v / 2
		}
		if SquaredEuclidean(a, a) != 0 {
			return false
		}
		return SquaredEuclidean(a, b) == SquaredEuclidean(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestUnrollMatchesNaive checks the unrolled SquaredEuclidean and Dot against
// a naive float64 loop across lengths that hit every remainder case and both
// sides of Dot's vector-kernel cut-over.
func TestUnrollMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 63, 64, 65, 127, 128, 2048} {
		a, b := make([]float32, n), make([]float32, n)
		for i := 0; i < n; i++ {
			a[i] = rng.Float32()*2 - 1
			b[i] = rng.Float32()*2 - 1
		}
		var naiveSq, naiveDot float64
		for i := 0; i < n; i++ {
			d := float64(a[i] - b[i])
			naiveSq += d * d
			naiveDot += float64(a[i]) * float64(b[i])
		}
		if got := float64(SquaredEuclidean(a, b)); !almostEq(got, naiveSq, 1e-3+naiveSq*1e-4) {
			t.Errorf("n=%d sqdist mismatch: %v vs %v", n, got, naiveSq)
		}
		if got := float64(Dot(a, b)); !almostEq(got, naiveDot, 1e-3+math.Abs(naiveDot)*1e-4) {
			t.Errorf("n=%d dot mismatch: %v vs %v", n, got, naiveDot)
		}
	}
}

// TestSquaredEuclideanPanicsOnMismatch: the direct sum refuses to silently
// truncate.
func TestSquaredEuclideanPanicsOnMismatch(t *testing.T) {
	for _, ab := range [][2][]float32{{{1, 2}, {1}}, {{1}, {1, 2}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v, %v: no panic on dimension mismatch", ab[0], ab[1])
				}
			}()
			SquaredEuclidean(ab[0], ab[1])
		}()
	}
}

// TestTriangleInequality: √SquaredEuclidean satisfies d(a,c) ≤ d(a,b)+d(b,c).
func TestTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := func(a, b []float32) float64 { return math.Sqrt(float64(SquaredEuclidean(a, b))) }
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		a, b, c := make([]float32, n), make([]float32, n), make([]float32, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = rng.Float32(), rng.Float32(), rng.Float32()
		}
		if ac, abc := d(a, c), d(a, b)+d(b, c); ac > abc+1e-4 {
			t.Fatalf("triangle inequality violated: %v > %v", ac, abc)
		}
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := []float32{1, 0}
	for _, c := range []struct {
		b    []float32
		want float64
	}{
		{[]float32{0, 1}, 0}, {[]float32{2, 0}, 1}, {[]float32{-1, 0}, -1}, {[]float32{0, 0}, 0},
	} {
		if got := CosineSimilarity(a, c.b); !almostEq(float64(got), c.want, 1e-6) {
			t.Errorf("cos(%v, %v) = %v, want %v", a, c.b, got, c.want)
		}
	}
}

// TestBruteForceIsSortedSelection: BruteForce is the sort reference over
// SquaredEuclidean for every k from nothing to past the corpus, ties
// included (randStore repeats rows).
func TestBruteForceIsSortedSelection(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const n, dim = 40, 6
	s := randStore(r, n, dim)
	corpus := make([][]float32, n)
	cands := make([]Neighbor, n)
	q := randQuery(r, dim)
	for i := range corpus {
		corpus[i] = s.Row(i)
		cands[i] = Neighbor{ID: uint32(i), Distance: SquaredEuclidean(q, corpus[i])}
	}
	for k := 0; k <= n+2; k++ {
		if got, want := BruteForce(q, corpus, k), refSelect(cands, k); !neighborsEqual(got, want) {
			t.Fatalf("k=%d: got %v, want %v", k, got, want)
		}
	}
	if got := BruteForce(q, nil, 3); len(got) != 0 {
		t.Fatalf("empty corpus: %v", got)
	}
}
