package stats

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 {
		t.Fatalf("empty count = %d", h.Count())
	}
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty quantile = %v", h.Quantile(0.5))
	}
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty summary not zero: %v %v %v", h.Mean(), h.Min(), h.Max())
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(100 * time.Microsecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if relErr(got, 100*time.Microsecond) > 0.02 {
			t.Errorf("q=%v got %v want ~100µs", q, got)
		}
	}
	if h.Min() != 100*time.Microsecond || h.Max() != 100*time.Microsecond {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func relErr(got, want time.Duration) float64 {
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	return d / float64(want)
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	samples := make([]time.Duration, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform between 1µs and 100ms: the microservice regime.
		v := time.Duration(math.Exp(rng.Float64()*math.Log(1e5)) * 1e3)
		h.Record(v)
		samples = append(samples, v)
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		exact := ExactQuantile(samples, q)
		approx := h.Quantile(q)
		if relErr(approx, exact) > 0.05 {
			t.Errorf("q=%v exact=%v approx=%v err=%.3f", q, exact, approx, relErr(approx, exact))
		}
	}
}

func TestHistogramMeanMinMax(t *testing.T) {
	h := NewHistogram()
	var sum time.Duration
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * time.Microsecond
		h.Record(d)
		sum += d
	}
	wantMean := sum / 1000
	if relErr(h.Mean(), wantMean) > 0.001 {
		t.Errorf("mean=%v want %v", h.Mean(), wantMean)
	}
	if h.Min() != time.Microsecond {
		t.Errorf("min=%v", h.Min())
	}
	if h.Max() != 1000*time.Microsecond {
		t.Errorf("max=%v", h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("count=%d", h.Count())
	}
	if h.Max() != 0 {
		t.Fatalf("negative not clamped: max=%v", h.Max())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Millisecond)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatalf("reset failed: count=%d max=%v", h.Count(), h.Max())
	}
	h.Record(2 * time.Millisecond)
	if relErr(h.Quantile(0.5), 2*time.Millisecond) > 0.02 {
		t.Fatalf("post-reset quantile=%v", h.Quantile(0.5))
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(time.Duration(rng.Intn(1e6)) * time.Nanosecond)
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count=%d want %d", h.Count(), goroutines*per)
	}
}

func TestBucketMonotonic(t *testing.T) {
	// Bucket index must be non-decreasing in the value, and bucketLow must
	// invert bucketIndex to within one bucket.
	prev := -1
	for v := int64(1); v < int64(1e9); v = v*5/4 + 1 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotonic at %d: %d < %d", v, idx, prev)
		}
		prev = idx
		lo := bucketLow(idx)
		if lo > v {
			t.Fatalf("bucketLow(%d)=%d exceeds value %d", idx, lo, v)
		}
		if float64(v-lo)/float64(v) > 0.04 && v > histSub {
			t.Fatalf("quantization error too large at %d: low=%d", v, lo)
		}
	}
}

func TestExactQuantileProperties(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, r := range raw {
			samples[i] = time.Duration(r % 1e9)
		}
		sorted := make([]time.Duration, len(samples))
		copy(sorted, samples)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		// Quantile must be an actual sample, bounded by min/max, monotone in q.
		q50 := ExactQuantile(samples, 0.5)
		q99 := ExactQuantile(samples, 0.99)
		if q50 < sorted[0] || q99 > sorted[len(sorted)-1] {
			return false
		}
		return q50 <= q99
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramQuantileProperties: for any samples, Quantile lies in
// [Min, Max], is monotone in q, is Max at q = 1, and is at most one
// sub-bucket (1/64 relative) below ExactQuantile.  One sample of 1 001 ns and
// the pair {100 µs, 131 µs} are the cases a bucket's lower bound put below
// Min and short of Max.
func TestHistogramQuantileProperties(t *testing.T) {
	check := func(samples []time.Duration, quantiles []float64) bool {
		h := NewHistogram()
		for _, s := range samples {
			h.Record(s)
		}
		quantiles = append(quantiles, 0, 0.5, 0.99, 1)
		sort.Float64s(quantiles)
		var prev time.Duration
		for _, q := range quantiles {
			got, exact := h.Quantile(q), ExactQuantile(samples, q)
			if got < h.Min() || got > h.Max() || got < prev || got > exact || float64(exact-got) > float64(exact)/histSub {
				t.Logf("q=%v: got %v, exact %v, min %v, max %v, previous %v", q, got, exact, h.Min(), h.Max(), prev)
				return false
			}
			prev = got
		}
		return h.Quantile(1) == h.Max()
	}
	for _, samples := range [][]time.Duration{{1001}, {100 * time.Microsecond, 131 * time.Microsecond}} {
		if !check(samples, nil) {
			t.Errorf("samples %v", samples)
		}
	}
	f := func(raw []uint32, qs [4]uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, r := range raw {
			samples[i] = time.Duration(r>>(r%32)) + 1 // 1 ns to ~4 s
		}
		var quantiles []float64
		for _, q := range qs {
			quantiles = append(quantiles, float64(q)/math.MaxUint16)
		}
		return check(samples, quantiles)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExactQuantileNearestRank(t *testing.T) {
	samples := []time.Duration{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, 10}, {0.1, 10}, {0.5, 50}, {0.95, 100}, {1, 100}, {0.25, 30},
	}
	for _, c := range cases {
		if got := ExactQuantile(samples, c.q); got != c.want {
			t.Errorf("q=%v got %v want %v", c.q, got, c.want)
		}
	}
}

func TestExactQuantileDoesNotMutate(t *testing.T) {
	samples := []time.Duration{50, 10, 40, 20, 30}
	ExactQuantile(samples, 0.5)
	want := []time.Duration{50, 10, 40, 20, 30}
	for i := range samples {
		if samples[i] != want[i] {
			t.Fatalf("input mutated at %d: %v", i, samples)
		}
	}
}

func TestViolinSummary(t *testing.T) {
	samples := make([]time.Duration, 1000)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Microsecond
	}
	v := NewViolin("test", samples, 16)
	if v.Count != 1000 {
		t.Fatalf("count=%d", v.Count)
	}
	if v.Median != 500*time.Microsecond {
		t.Errorf("median=%v", v.Median)
	}
	if v.P99 != 990*time.Microsecond {
		t.Errorf("p99=%v", v.P99)
	}
	if v.Min != time.Microsecond || v.Max != 1000*time.Microsecond {
		t.Errorf("min/max=%v/%v", v.Min, v.Max)
	}
	if len(v.Density) != 16 {
		t.Errorf("density points=%d", len(v.Density))
	}
	// Density must be normalized to peak 1.
	peak := 0.0
	for _, p := range v.Density {
		if p.Density > peak {
			peak = p.Density
		}
	}
	if math.Abs(peak-1) > 1e-9 {
		t.Errorf("density peak=%v", peak)
	}
	if v.String() == "" {
		t.Error("empty String()")
	}
}

func TestViolinEmpty(t *testing.T) {
	v := NewViolin("empty", nil, 8)
	if v.Count != 0 || v.Median != 0 || len(v.Density) != 0 {
		t.Fatalf("non-zero violin for empty input: %+v", v)
	}
}

func TestViolinOrderInvariance(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		a := make([]time.Duration, len(raw))
		for i, r := range raw {
			a[i] = time.Duration(r) + 1
		}
		b := make([]time.Duration, len(a))
		copy(b, a)
		// Shuffle b deterministically.
		rng := rand.New(rand.NewSource(1))
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		va := NewViolin("a", a, 0)
		vb := NewViolin("b", b, 0)
		return va.Median == vb.Median && va.P99 == vb.P99 && va.Min == vb.Min && va.Max == vb.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTrials(t *testing.T) {
	var tr Trials
	if tr.Mean() != 0 || tr.StdDev() != 0 {
		t.Fatal("empty trials not zero")
	}
	for _, v := range []float64{10, 12, 8, 11, 9} {
		tr.Add(v)
	}
	if len(tr.values) != 5 {
		t.Fatalf("n=%d", len(tr.values))
	}
	if math.Abs(tr.Mean()-10) > 1e-9 {
		t.Errorf("mean=%v", tr.Mean())
	}
	want := math.Sqrt(2.5) // sample variance of {10,12,8,11,9} is 2.5
	if math.Abs(tr.StdDev()-want) > 1e-9 {
		t.Errorf("stddev=%v want %v", tr.StdDev(), want)
	}
	if math.Abs(tr.RelStdDev()-want/10) > 1e-9 {
		t.Errorf("relstddev=%v", tr.RelStdDev())
	}
}

func TestTrialsSingle(t *testing.T) {
	var tr Trials
	tr.Add(7)
	if tr.Mean() != 7 || tr.StdDev() != 0 {
		t.Fatalf("single trial mean=%v std=%v", tr.Mean(), tr.StdDev())
	}
}

func TestSnapshotString(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("snapshot count=%d", s.Count)
	}
	if s.String() == "" {
		t.Fatal("empty snapshot string")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i) * time.Nanosecond)
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		h.Record(time.Duration(rng.Intn(1e8)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.99)
	}
}
