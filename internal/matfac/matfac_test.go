package matfac

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"musuite/internal/dataset"
)

func TestNewSparseValidation(t *testing.T) {
	if _, err := NewSparse(0, 5, nil); err == nil {
		t.Fatal("zero rows accepted")
	}
	if _, err := NewSparse(5, 5, []Triplet{{Row: 5, Col: 0, Val: 1}}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := NewSparse(5, 5, []Triplet{{Row: 0, Col: 0, Val: -1}}); err == nil {
		t.Fatal("negative value accepted")
	}
	s, err := NewSparse(3, 4, []Triplet{{0, 0, 1}, {2, 3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 2 {
		t.Fatalf("nnz=%d", s.NNZ())
	}
}

func TestFactorizeEmpty(t *testing.T) {
	s, _ := NewSparse(3, 3, nil)
	if _, err := Factorize(s, Config{}); err != ErrEmpty {
		t.Fatalf("err=%v want ErrEmpty", err)
	}
}

// TestExactLowRankRecovery plants an exactly rank-2 non-negative matrix and
// checks NMF reconstructs the observed entries closely.
func TestExactLowRankRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const rows, cols, rank = 30, 25, 2
	wTrue := make([][]float64, rows)
	for i := range wTrue {
		wTrue[i] = []float64{rng.Float64(), rng.Float64()}
	}
	hTrue := make([][]float64, cols)
	for j := range hTrue {
		hTrue[j] = []float64{rng.Float64(), rng.Float64()}
	}
	var data []Triplet
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < 0.6 { // 60% observed
				v := wTrue[i][0]*hTrue[j][0] + wTrue[i][1]*hTrue[j][1]
				data = append(data, Triplet{i, j, v})
			}
		}
	}
	s, err := NewSparse(rows, cols, data)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Factorize(s, Config{Rank: 4, Iterations: 300, Tolerance: 1e-9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rmse := m.ErrorTrace[len(m.ErrorTrace)-1]; rmse > 0.02 {
		t.Fatalf("RMSE=%v on exactly low-rank data", rmse)
	}
}

func TestNonNegativityInvariant(t *testing.T) {
	c := dataset.NewRatingCorpus(dataset.RatingCorpusConfig{Users: 40, Items: 50, Ratings: 800, Seed: 3})
	data := make([]Triplet, len(c.Ratings))
	for i, r := range c.Ratings {
		data[i] = Triplet{r.User, r.Item, r.Value}
	}
	s, _ := NewSparse(c.Users, c.Items, data)
	m, err := Factorize(s, Config{Rank: 6, Iterations: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m.W.Data {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("W[%d][%d]=%v", i/m.W.Stride, i%m.W.Stride, v)
		}
	}
	for i, v := range m.H.Data {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("H[%d][%d]=%v", i/m.H.Stride, i%m.H.Stride, v)
		}
	}
}

func TestErrorMonotonicallyNonIncreasing(t *testing.T) {
	c := dataset.NewRatingCorpus(dataset.RatingCorpusConfig{Users: 30, Items: 40, Ratings: 600, Seed: 5})
	data := make([]Triplet, len(c.Ratings))
	for i, r := range c.Ratings {
		data[i] = Triplet{r.User, r.Item, r.Value}
	}
	s, _ := NewSparse(c.Users, c.Items, data)
	m, err := Factorize(s, Config{Rank: 5, Iterations: 40, Tolerance: 0, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ErrorTrace) < 2 {
		t.Fatalf("trace too short: %v", m.ErrorTrace)
	}
	for i := 1; i < len(m.ErrorTrace); i++ {
		// Allow a hair of float slack, relative and absolute (traces
		// that converge to ~1e-13 jitter at machine precision).
		if m.ErrorTrace[i] > m.ErrorTrace[i-1]*(1+1e-9)+1e-10 {
			t.Fatalf("error increased at sweep %d: %v → %v", i, m.ErrorTrace[i-1], m.ErrorTrace[i])
		}
	}
	if m.ErrorTrace[len(m.ErrorTrace)-1] >= m.ErrorTrace[0] {
		t.Fatal("no improvement at all")
	}
}

// Property: for random non-negative sparse matrices, factorization keeps
// factors non-negative and never increases error across sweeps.
func TestQuickNMFInvariants(t *testing.T) {
	f := func(seed int64, rawVals []uint8) bool {
		if len(rawVals) < 5 {
			return true
		}
		if len(rawVals) > 200 {
			rawVals = rawVals[:200]
		}
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 5+rng.Intn(10), 5+rng.Intn(10)
		seen := make(map[[2]int]bool)
		var data []Triplet
		for _, v := range rawVals {
			r, c := rng.Intn(rows), rng.Intn(cols)
			if seen[[2]int{r, c}] {
				continue
			}
			seen[[2]int{r, c}] = true
			data = append(data, Triplet{r, c, 1 + float64(v%5)})
		}
		if len(data) == 0 {
			return true
		}
		s, err := NewSparse(rows, cols, data)
		if err != nil {
			return false
		}
		m, err := Factorize(s, Config{Rank: 3, Iterations: 15, Tolerance: 0, Seed: seed})
		if err != nil {
			return false
		}
		for i := 1; i < len(m.ErrorTrace); i++ {
			if m.ErrorTrace[i] > m.ErrorTrace[i-1]*(1+1e-9)+1e-10 {
				return false
			}
		}
		for _, v := range m.W.Data {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictGeneralizes(t *testing.T) {
	// With planted latent structure, held-out predictions should beat the
	// global-mean baseline.
	c := dataset.NewRatingCorpus(dataset.RatingCorpusConfig{
		Users: 60, Items: 80, Ratings: 2400, Rank: 4, Noise: 0.2, Seed: 7,
	})
	// Hold out 10% of ratings.
	train, test := c.Ratings[:2160], c.Ratings[2160:]
	data := make([]Triplet, len(train))
	mean := 0.0
	for i, r := range train {
		data[i] = Triplet{r.User, r.Item, r.Value}
		mean += r.Value
	}
	mean /= float64(len(train))
	s, _ := NewSparse(c.Users, c.Items, data)
	m, err := Factorize(s, Config{Rank: 6, Iterations: 120, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var seModel, seMean float64
	for _, r := range test {
		p := min(max(m.Predict(r.User, r.Item), 1), 5) // ratings live on 1..5
		seModel += (p - r.Value) * (p - r.Value)
		seMean += (mean - r.Value) * (mean - r.Value)
	}
	if seModel >= seMean {
		t.Fatalf("model RMSE²=%v not better than mean baseline %v", seModel, seMean)
	}
	t.Logf("held-out RMSE model=%.3f mean-baseline=%.3f",
		math.Sqrt(seModel/float64(len(test))), math.Sqrt(seMean/float64(len(test))))
}

func TestPredictOutOfRange(t *testing.T) {
	s, _ := NewSparse(2, 2, []Triplet{{0, 0, 5}, {1, 1, 5}})
	m, err := Factorize(s, Config{Rank: 2, Iterations: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-range indices predict 0 rather than panicking.
	if p := m.Predict(-1, 0); p != 0 {
		t.Fatalf("negative row predict=%v", p)
	}
	if p := m.Predict(0, 99); p != 0 {
		t.Fatalf("out-of-range col predict=%v", p)
	}
}

func TestToleranceStopsEarly(t *testing.T) {
	c := dataset.NewRatingCorpus(dataset.RatingCorpusConfig{Users: 20, Items: 20, Ratings: 200, Seed: 10})
	data := make([]Triplet, len(c.Ratings))
	for i, r := range c.Ratings {
		data[i] = Triplet{r.User, r.Item, r.Value}
	}
	s, _ := NewSparse(20, 20, data)
	loose, _ := Factorize(s, Config{Rank: 4, Iterations: 500, Tolerance: 1e-2, Seed: 11})
	tight, _ := Factorize(s, Config{Rank: 4, Iterations: 500, Tolerance: 1e-9, Seed: 11})
	if len(loose.ErrorTrace) >= len(tight.ErrorTrace) {
		t.Fatalf("loose tolerance ran %d sweeps, tight %d", len(loose.ErrorTrace), len(tight.ErrorTrace))
	}
}

func BenchmarkFactorizeMovieLensScale(b *testing.B) {
	c := dataset.NewRatingCorpus(dataset.RatingCorpusConfig{
		Users: 200, Items: 300, Ratings: 10000, Seed: 12,
	})
	data := make([]Triplet, len(c.Ratings))
	for i, r := range c.Ratings {
		data[i] = Triplet{r.User, r.Item, r.Value}
	}
	s, _ := NewSparse(c.Users, c.Items, data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factorize(s, Config{Rank: 8, Iterations: 20, Seed: 13}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	s, _ := NewSparse(100, 100, []Triplet{{0, 0, 3}, {50, 50, 4}})
	m, _ := Factorize(s, Config{Rank: 8, Iterations: 5, Seed: 14})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(i%100, (i*7)%100)
	}
}
