package ann

import (
	"math"
	"testing"
	"testing/quick"

	"musuite/internal/dataset"
	"musuite/internal/kernel"
)

func clusteredStore(t testing.TB, n, dim, clusters int, seed int64) (*dataset.ImageCorpus, *kernel.Store) {
	t.Helper()
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: n, Dim: dim, Clusters: clusters, Noise: 0.15, Seed: seed,
	})
	store, err := kernel.BuildStore(corpus.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	return corpus, store
}

func sameNeighbors(a, b []kernel.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Distance != b[i].Distance {
			return false
		}
	}
	return true
}

// TestExhaustiveProbesExact: nprobe = NList over the plain IVF index must be
// bit-identical to the engine's brute-force scan — the index only routes,
// scoring and selection are the same kernels.
func TestExhaustiveProbesExact(t *testing.T) {
	corpus, store := clusteredStore(t, 3000, 24, 10, 31)
	x, err := Build(store, Config{NList: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := kernel.Default()
	for qi, q := range corpus.Queries(40, 32) {
		got, err := x.Search(eng, q, 10, len(x.lists), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Scan(store, q, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameNeighbors(got, want) {
			t.Fatalf("query %d: exhaustive IVF differs from brute force:\n got %v\nwant %v", qi, got, want)
		}
	}
}

// TestCompressedExhaustiveFullRerank: with every cluster probed and the
// re-rank depth covering the whole corpus, the compressed paths must also
// match brute force exactly — compression then only reorders candidates
// before an all-covering exact pass.
func TestCompressedExhaustiveFullRerank(t *testing.T) {
	corpus, store := clusteredStore(t, 2000, 32, 8, 33)
	eng := kernel.Default()
	for _, quant := range []Quant{QuantInt8, QuantPQ} {
		x, err := Build(store, Config{NList: 16, Quant: quant, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range corpus.Queries(20, 34) {
			got, err := x.Search(eng, q, 10, len(x.lists), store.Len(), nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.Scan(store, q, 10, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameNeighbors(got, want) {
				t.Fatalf("%v query %d: exhaustive+full-rerank differs from brute force:\n got %v\nwant %v",
					quant, qi, got, want)
			}
		}
	}
}

// TestIVFRecall: on clustered data a handful of probes must recover nearly
// all true neighbors while scanning a fraction of the corpus.
func TestIVFRecall(t *testing.T) {
	corpus, store := clusteredStore(t, 8000, 32, 32, 35)
	eng := kernel.Default()
	for _, quant := range []Quant{QuantNone, QuantInt8, QuantPQ} {
		x, err := Build(store, Config{NList: 64, Quant: quant, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		queries := corpus.Queries(100, 36)
		hits, want := 0, 0
		for _, q := range queries {
			truth, err := eng.Scan(store, q, 10, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := x.Search(eng, q, 10, 8, 100, nil)
			if err != nil {
				t.Fatal(err)
			}
			in := make(map[uint32]bool, len(got))
			for _, n := range got {
				in[n.ID] = true
			}
			for _, n := range truth {
				want++
				if in[n.ID] {
					hits++
				}
			}
		}
		recall := float64(hits) / float64(want)
		if recall < 0.9 {
			t.Fatalf("%v recall@10 = %.3f with 8/%d probes", quant, recall, len(x.lists))
		}
		t.Logf("%v recall@10 = %.3f with 8/%d probes", quant, recall, len(x.lists))
	}
}

// TestInt8RoundTripBound: every dequantized element must be within half a
// quantization step (scale/2) of the original — the symmetric-rounding
// bound, checked as a quick property over random rows.
func TestInt8RoundTripBound(t *testing.T) {
	prop := func(raw []int16) bool {
		dim := 16
		v := make([]float32, dim)
		for i := range v {
			if len(raw) > 0 {
				v[i] = float32(raw[i%len(raw)]) / 997
			}
		}
		store, err := kernel.BuildStore([][]float32{v})
		if err != nil {
			return false
		}
		st := BuildInt8(store)
		dec := st.Decode(0, nil)
		bound := st.scale[0]/2 + 1e-6
		for i := range v {
			if float32(math.Abs(float64(dec[i]-v[i]))) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPQADCProperties: (1) the ADC lookup-table distance equals the exact
// squared distance to the row's reconstruction (the subspaces partition the
// dimensions, so the identity is exact up to float tolerance); (2) by the
// triangle inequality, √ADC is within the row's reconstruction error of the
// true √distance.  Checked as a quick property over random queries.
func TestPQADCProperties(t *testing.T) {
	_, store := clusteredStore(t, 1000, 32, 8, 41)
	st, err := BuildPQ(store, PQConfig{M: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	recon := make([][]float32, store.Len())
	reconErr := make([]float64, store.Len())
	for i := range recon {
		recon[i] = st.Decode(i, nil)
		var e float64
		row := store.Row(i)
		for j := range row {
			d := float64(row[j] - recon[i][j])
			e += d * d
		}
		reconErr[i] = math.Sqrt(e)
	}
	prop := func(raw []int16, pick uint16) bool {
		q := make([]float32, store.Dim())
		for i := range q {
			if len(raw) > 0 {
				q[i] = float32(raw[i%len(raw)]) / 997
			}
		}
		i := int(pick) % store.Len()
		adc := float64(st.ADC(q, i))

		// (1) ADC ≡ reconstruction distance.
		var rd float64
		for j := range q {
			d := float64(q[j] - recon[i][j])
			rd += d * d
		}
		if math.Abs(adc-rd) > 1e-3*(1+rd) {
			t.Logf("row %d: adc %v vs reconstruction %v", i, adc, rd)
			return false
		}

		// (2) |√ADC − √exact| ≤ reconstruction error.
		var ed float64
		row := store.Row(i)
		for j := range q {
			d := float64(q[j] - row[j])
			ed += d * d
		}
		if math.Abs(math.Sqrt(adc)-math.Sqrt(ed)) > reconErr[i]+1e-3 {
			t.Logf("row %d: √adc %v vs √exact %v, recon err %v",
				i, math.Sqrt(adc), math.Sqrt(ed), reconErr[i])
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCompressedMemoryFootprint: the int8 store must be under 1/3 and the
// PQ store under 1/4 of the float32 store — the compression the issue's
// acceptance bar demands.
func TestCompressedMemoryFootprint(t *testing.T) {
	_, store := clusteredStore(t, 4096, 64, 16, 43)
	full := store.Bytes()

	x8, err := Build(store, Config{Quant: QuantInt8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := x8.CompressedBytes(); got > full/3 {
		t.Fatalf("int8 store %d bytes, want ≤ %d (full %d)", got, full/3, full)
	}
	xpq, err := Build(store, Config{Quant: QuantPQ, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := xpq.CompressedBytes(); got > full/4 {
		t.Fatalf("pq store %d bytes, want ≤ %d (full %d)", got, full/4, full)
	}
	t.Logf("full %d B, int8 %d B (%.1f×), pq %d B (%.1f×)",
		full, x8.CompressedBytes(), float64(full)/float64(x8.CompressedBytes()),
		xpq.CompressedBytes(), float64(full)/float64(xpq.CompressedBytes()))
}

// TestBuildReproducible: equal seeds must reproduce the identical index —
// same inverted lists and same PQ codes — across builds.
func TestBuildReproducible(t *testing.T) {
	_, store := clusteredStore(t, 3000, 32, 12, 47)
	cfg := Config{NList: 24, Quant: QuantPQ, Seed: 6}
	a, err := Build(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.lists) != len(b.lists) {
		t.Fatalf("nlist %d vs %d", len(a.lists), len(b.lists))
	}
	for c := range a.lists {
		if len(a.lists[c]) != len(b.lists[c]) {
			t.Fatalf("list %d: %d vs %d members", c, len(a.lists[c]), len(b.lists[c]))
		}
		for i := range a.lists[c] {
			if a.lists[c][i] != b.lists[c][i] {
				t.Fatalf("list %d member %d differs", c, i)
			}
		}
	}
	for i := range a.pq.codes {
		if a.pq.codes[i] != b.pq.codes[i] {
			t.Fatalf("pq code %d differs across identically-seeded builds", i)
		}
	}
}

// TestSearchEdgeCases: empty indexes, k bounds, and dimension mismatches
// must fail softly, matching the engine's contracts.
func TestSearchEdgeCases(t *testing.T) {
	eng := kernel.Default()

	empty, err := Build(&kernel.Store{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := empty.Search(eng, []float32{1, 2}, 5, 0, 0, nil); err != nil || len(res) != 0 {
		t.Fatalf("empty index: %v, %v", res, err)
	}

	corpus, store := clusteredStore(t, 200, 8, 4, 53)
	x, err := Build(store, Config{NList: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q := corpus.Queries(1, 54)[0]
	if _, err := x.Search(eng, q[:4], 5, 0, 0, nil); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if res, err := x.Search(eng, q, 0, 0, 0, nil); err != nil || len(res) != 0 {
		t.Fatalf("k=0: %v, %v", res, err)
	}
	res, err := x.Search(eng, q, 500, len(x.lists), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != store.Len() {
		t.Fatalf("k>n returned %d of %d", len(res), store.Len())
	}

	if _, err := Build(store, Config{Quant: QuantPQ, PQM: 3, Seed: 8}); err == nil {
		t.Fatal("pq m=3 over dim=8 accepted")
	}
}

// TestTinyCorpus: stores smaller than the default cluster count must still
// build and search exactly.
func TestTinyCorpus(t *testing.T) {
	points := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	store, err := kernel.BuildStore(points)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(store, Config{NList: 10, Quant: QuantInt8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := x.Search(kernel.Default(), []float32{3, 4}, 2, len(x.lists), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].ID != 1 {
		t.Fatalf("tiny corpus search: %+v", res)
	}
}
