package hdsearch

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"musuite/internal/kernel"
	"musuite/internal/memcache"
	"musuite/internal/wire"
)

// FrontEnd is HDSearch's presentation microservice (paper §III-A, Fig. 2).
// The paper does not study this tier, but a complete deployment needs it:
// it accepts a raw query image, extracts a feature vector (caching the
// image→vector mapping, as the paper caches in Redis), sends the vector to
// the mid-tier, and maps the returned point IDs to response URLs through a
// second cache.
//
// The paper's feature extractor is Inception V3; no neural network belongs
// in this reproduction, so extraction is a deterministic random projection
// of the image bytes into feature space — it preserves the properties the
// tier exercises (a compute step whose result is worth caching, keyed by
// image content).
type FrontEnd struct {
	client  *Client
	dim     int
	planes  [][]float32 // projection rows, seeded
	vecs    *memcache.Store
	urls    *memcache.Store
	hits    atomic.Uint64
	misses  atomic.Uint64
	urlBase string
}

// FrontEndConfig parameterizes the tier.
type FrontEndConfig struct {
	// MidTierAddr is the HDSearch mid-tier to query.
	MidTierAddr string
	// Dim must match the deployment's feature dimensionality.
	Dim int
	// Seed fixes the synthetic extractor's projection.
	Seed int64
	// CacheBytes bounds the feature-vector cache (0 = unlimited).
	CacheBytes int64
	// URLBase prefixes response URLs (default "img://").
	URLBase string
}

// NewFrontEnd connects a front-end tier to a mid-tier.
func NewFrontEnd(cfg FrontEndConfig) (*FrontEnd, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("hdsearch frontend: dimension %d", cfg.Dim)
	}
	client, err := DialClient(cfg.MidTierAddr, nil)
	if err != nil {
		return nil, err
	}
	if cfg.URLBase == "" {
		cfg.URLBase = "img://"
	}
	fe := &FrontEnd{
		client:  client,
		dim:     cfg.Dim,
		vecs:    memcache.New(memcache.Config{MaxBytes: cfg.CacheBytes}),
		urls:    memcache.New(memcache.Config{}),
		urlBase: cfg.URLBase,
	}
	// A fixed bank of projection rows generated from the seed via
	// SplitMix-style hashing keeps construction O(dim) per row without
	// math/rand state.
	fe.planes = make([][]float32, cfg.Dim)
	state := uint64(cfg.Seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	nextF := func() float32 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		return float32(int32(uint32(z))) / float32(1<<31) // in (-1, 1)
	}
	for d := 0; d < cfg.Dim; d++ {
		row := make([]float32, 64)
		for i := range row {
			row[i] = nextF()
		}
		fe.planes[d] = row
	}
	return fe, nil
}

// Close releases the mid-tier connection.
func (fe *FrontEnd) Close() error { return fe.client.Close() }

// CacheStats reports feature-cache hits and misses.
func (fe *FrontEnd) CacheStats() (hits, misses uint64) {
	return fe.hits.Load(), fe.misses.Load()
}

// ExtractFeatures computes (or recalls from cache) the feature vector of a
// raw image.  The image bytes are folded into 64 buckets and projected
// through the seeded plane bank — a stand-in for the Inception V3 forward
// pass.
func (fe *FrontEnd) ExtractFeatures(image []byte) []float32 {
	key := imageKey(image)
	if cached, ok := fe.vecs.Get(key); ok {
		if v, err := decodeVector(cached, fe.dim); err == nil {
			fe.hits.Add(1)
			return v
		}
	}
	fe.misses.Add(1)

	// Fold the image into a 64-bucket content summary.
	var summary [64]float32
	for i, b := range image {
		summary[i%64] += float32(b) / 255
	}
	// Project into feature space.
	out := make([]float32, fe.dim)
	for d := 0; d < fe.dim; d++ {
		out[d] = kernel.Dot(fe.planes[d], summary[:])
	}
	// Unit length; a zero vector stays zero.
	if n := float32(math.Sqrt(float64(kernel.Dot(out, out)))); n != 0 {
		inv := 1 / n
		for i := range out {
			out[i] *= inv
		}
	}
	fe.vecs.Set(key, encodeVector(out), 10*time.Minute)
	return out
}

// RegisterURL records the URL backing a corpus point so responses can be
// presented (the paper's second Redis instance).
func (fe *FrontEnd) RegisterURL(pointID uint32, url string) {
	fe.urls.Set(pointKey(pointID), []byte(url), 0)
}

// Result is one presented search response: the matched point and its URL.
type Result struct {
	PointID  uint32
	Distance float32
	URL      string
}

// Search runs the full front-end pipeline on a raw query image: extract (or
// recall) features, query the mid-tier, and resolve response URLs.
func (fe *FrontEnd) Search(image []byte, k int) ([]Result, error) {
	return fe.SearchVector(fe.ExtractFeatures(image), k)
}

// SearchVector bypasses extraction for callers that already hold a feature
// vector (the path the paper's study measures).
func (fe *FrontEnd) SearchVector(query []float32, k int) ([]Result, error) {
	neighbors, err := fe.client.Search(query, k)
	if err != nil {
		return nil, err
	}
	return fe.Resolve(neighbors), nil
}

// Resolve maps mid-tier neighbors to presented results, consulting the URL
// cache and synthesizing a placeholder for unregistered points.
func (fe *FrontEnd) Resolve(neighbors []Neighbor) []Result {
	out := make([]Result, len(neighbors))
	for i, n := range neighbors {
		r := Result{PointID: n.PointID, Distance: n.Distance}
		if url, ok := fe.urls.Get(pointKey(n.PointID)); ok {
			r.URL = string(url)
		} else {
			r.URL = fmt.Sprintf("%spoint/%d", fe.urlBase, n.PointID)
		}
		out[i] = r
	}
	return out
}

// imageKey derives the cache key from image content (FNV-1a, content
// addressed like the paper's image→vector map).
func imageKey(image []byte) string {
	const offset, prime = uint64(14695981039346656037), uint64(1099511628211)
	h := offset
	for _, b := range image {
		h ^= uint64(b)
		h *= prime
	}
	return fmt.Sprintf("img:%016x:%d", h, len(image))
}

func pointKey(id uint32) string { return fmt.Sprintf("url:%d", id) }

func encodeVector(v []float32) []byte {
	e := wire.NewEncoder(4 + 4*len(v))
	e.Float32s(v)
	return e.Bytes()
}

func decodeVector(b []byte, wantDim int) ([]float32, error) {
	d := wire.NewDecoder(b)
	v := d.Float32s()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(v) != wantDim {
		return nil, fmt.Errorf("hdsearch frontend: cached vector dim %d, want %d", len(v), wantDim)
	}
	return v, nil
}
