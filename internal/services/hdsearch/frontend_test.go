package hdsearch

import (
	"fmt"
	"math/rand"
	"testing"

	"musuite/internal/kernel"
)

func startFrontEnd(t *testing.T) (*Cluster, *FrontEnd) {
	t.Helper()
	corpus := testCorpus(t)
	cl := startTestCluster(t, corpus)
	fe, err := NewFrontEnd(FrontEndConfig{
		MidTierAddr: cl.Addr,
		Dim:         32,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })
	return cl, fe
}

func TestFrontEndExtractDeterministic(t *testing.T) {
	_, fe := startFrontEnd(t)
	img := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(img)
	a := fe.ExtractFeatures(img)
	b := fe.ExtractFeatures(img)
	if len(a) != 32 {
		t.Fatalf("dim=%d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("extraction not deterministic")
		}
	}
	// Unit-normalized.
	if n := kernel.Dot(a, a); n < 0.99 || n > 1.01 {
		t.Fatalf("norm=%v", n)
	}
}

func TestFrontEndCacheHitPath(t *testing.T) {
	_, fe := startFrontEnd(t)
	img := []byte("the same image twice")
	fe.ExtractFeatures(img)
	h0, m0 := fe.CacheStats()
	if h0 != 0 || m0 != 1 {
		t.Fatalf("first extract: hits=%d misses=%d", h0, m0)
	}
	fe.ExtractFeatures(img)
	h1, m1 := fe.CacheStats()
	if h1 != 1 || m1 != 1 {
		t.Fatalf("second extract: hits=%d misses=%d", h1, m1)
	}
	// Different content misses.
	fe.ExtractFeatures([]byte("different image"))
	_, m2 := fe.CacheStats()
	if m2 != 2 {
		t.Fatalf("distinct image did not miss: misses=%d", m2)
	}
}

func TestFrontEndContentSensitivity(t *testing.T) {
	_, fe := startFrontEnd(t)
	a := fe.ExtractFeatures([]byte("image A with content"))
	b := fe.ExtractFeatures([]byte("image B much differs!"))
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct images extracted to identical vectors")
	}
}

func TestFrontEndSearchPipeline(t *testing.T) {
	_, fe := startFrontEnd(t)
	img := make([]byte, 1024)
	rand.New(rand.NewSource(2)).Read(img)
	results, err := fe.Search(img, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A synthetic projected image lies off the corpus manifold, so the
	// LSH lookup may legitimately find nothing; what matters is the
	// pipeline completes and anything returned is well-formed.
	if len(results) > 3 {
		t.Fatalf("results=%d exceed k", len(results))
	}
	for _, r := range results {
		if r.URL == "" {
			t.Fatal("missing URL")
		}
	}
	// A corpus-derived vector must return results through the same path.
	corpus := testCorpus(t)
	vres, err := fe.SearchVector(corpus.Vectors[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(vres) == 0 {
		t.Fatal("corpus vector found nothing")
	}
}

func TestFrontEndURLResolution(t *testing.T) {
	corpus := testCorpus(t)
	cl := startTestCluster(t, corpus)
	fe, err := NewFrontEnd(FrontEndConfig{MidTierAddr: cl.Addr, Dim: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	// Register URLs for half the corpus; the rest get placeholders.
	for id := 0; id < len(corpus.Vectors)/2; id++ {
		fe.RegisterURL(uint32(id), fmt.Sprintf("https://images.example/%d.jpg", id))
	}
	results, err := fe.SearchVector(corpus.Queries(1, 9)[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no vector-search results")
	}
	for _, r := range results {
		if int(r.PointID) < len(corpus.Vectors)/2 {
			want := fmt.Sprintf("https://images.example/%d.jpg", r.PointID)
			if r.URL != want {
				t.Fatalf("url=%q want %q", r.URL, want)
			}
		} else if r.URL != fmt.Sprintf("img://point/%d", r.PointID) {
			t.Fatalf("placeholder url=%q", r.URL)
		}
	}
	// Resolve on an explicit neighbor list covers both branches directly.
	rs := fe.Resolve([]Neighbor{{PointID: 0}, {PointID: uint32(len(corpus.Vectors) - 1)}})
	if rs[0].URL != "https://images.example/0.jpg" {
		t.Fatalf("resolve registered: %q", rs[0].URL)
	}
	if rs[1].URL == "" || rs[1].URL == rs[0].URL {
		t.Fatalf("resolve placeholder: %q", rs[1].URL)
	}
}

func TestFrontEndRejectsBadConfig(t *testing.T) {
	if _, err := NewFrontEnd(FrontEndConfig{MidTierAddr: "127.0.0.1:1", Dim: 0}); err == nil {
		t.Fatal("zero dim accepted")
	}
	if _, err := NewFrontEnd(FrontEndConfig{MidTierAddr: "127.0.0.1:1", Dim: 8}); err == nil {
		t.Fatal("dial to dead mid-tier succeeded")
	}
}
