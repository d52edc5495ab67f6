package dataset

import (
	"math/rand"
)

// Rating is one {user, item, rating} tuple of the Recommend workload.
type Rating struct {
	User, Item int
	Value      float64
}

// RatingCorpus is a synthetic stand-in for the MovieLens dataset: a sparse
// user-item rating matrix with planted low-rank (latent factor) structure,
// so matrix factorization genuinely recovers signal rather than noise.
type RatingCorpus struct {
	// Ratings holds the observed tuples.
	Ratings []Rating
	// Users and Items are the matrix dimensions.
	Users, Items int
	// Rank is the planted latent dimensionality.
	Rank int

	userF, itemF [][]float64
	rated        map[[2]int]bool
	seed         int64
}

// RatingCorpusConfig parameterizes generation.
type RatingCorpusConfig struct {
	// Users and Items size the matrix (paper: MovieLens with 10K tuples).
	Users, Items int
	// Ratings is the number of observed tuples.
	Ratings int
	// Rank is the planted latent dimension (default 6).
	Rank int
	// Noise is the rating noise stddev (default 0.3).
	Noise float64
	// Seed makes generation deterministic.
	Seed int64
}

func (c RatingCorpusConfig) withDefaults() RatingCorpusConfig {
	if c.Users <= 0 {
		c.Users = 200
	}
	if c.Items <= 0 {
		c.Items = 300
	}
	if c.Ratings <= 0 {
		c.Ratings = 5000
	}
	if c.Rank <= 0 {
		c.Rank = 6
	}
	if c.Noise <= 0 {
		c.Noise = 0.3
	}
	max := c.Users * c.Items
	if c.Ratings > max {
		c.Ratings = max
	}
	return c
}

// NewRatingCorpus generates a rating corpus.  Every user receives at least
// one rating (the paper sidesteps the cold-start problem the same way).
func NewRatingCorpus(cfg RatingCorpusConfig) *RatingCorpus {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	userF := make([][]float64, cfg.Users)
	for u := range userF {
		userF[u] = make([]float64, cfg.Rank)
		for k := range userF[u] {
			userF[u][k] = rng.Float64()
		}
	}
	itemF := make([][]float64, cfg.Items)
	for i := range itemF {
		itemF[i] = make([]float64, cfg.Rank)
		for k := range itemF[i] {
			itemF[i][k] = rng.Float64()
		}
	}

	c := &RatingCorpus{
		Users: cfg.Users, Items: cfg.Items, Rank: cfg.Rank,
		userF: userF, itemF: itemF,
		rated: make(map[[2]int]bool, cfg.Ratings),
		seed:  cfg.Seed,
	}

	rate := func(u, i int) {
		c.rated[[2]int{u, i}] = true
		c.Ratings = append(c.Ratings, Rating{User: u, Item: i, Value: c.trueRating(u, i, rng, cfg.Noise)})
	}

	// Coverage pass: one rating per user.
	for u := 0; u < cfg.Users && len(c.Ratings) < cfg.Ratings; u++ {
		rate(u, rng.Intn(cfg.Items))
	}
	// Fill pass: random cells until the target density.
	for len(c.Ratings) < cfg.Ratings {
		u, i := rng.Intn(cfg.Users), rng.Intn(cfg.Items)
		if !c.rated[[2]int{u, i}] {
			rate(u, i)
		}
	}
	return c
}

// trueRating maps the latent dot product plus noise onto the 1..5 star scale.
func (c *RatingCorpus) trueRating(u, i int, rng *rand.Rand, noise float64) float64 {
	dot := 0.0
	for k := 0; k < c.Rank; k++ {
		dot += c.userF[u][k] * c.itemF[i][k]
	}
	// dot ∈ [0, Rank); rescale to roughly 1..5.
	r := 1 + 4*dot/float64(c.Rank) + rng.NormFloat64()*noise
	if r < 1 {
		r = 1
	}
	if r > 5 {
		r = 5
	}
	return r
}

// Rated reports whether cell (u, i) has an observed rating.
func (c *RatingCorpus) Rated(u, i int) bool { return c.rated[[2]int{u, i}] }

// QueryPairs samples n {user, item} pairs from the empty cells of the
// utility matrix — the paper always queries cells the system did not train
// on.
func (c *RatingCorpus) QueryPairs(n int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed ^ 0x2545F491))
	out := make([][2]int, 0, n)
	for len(out) < n {
		u, i := rng.Intn(c.Users), rng.Intn(c.Items)
		if !c.Rated(u, i) {
			out = append(out, [2]int{u, i})
		}
	}
	return out
}

// ShardRoundRobin splits the rating tuples round-robin across n leaves.
// Every leaf sees the full user and item ranges but only a sparser sample of
// cells, so each can independently predict any {user, item} pair and the
// mid-tier can average the leaves' predictions — the paper's Recommend
// topology.
func (c *RatingCorpus) ShardRoundRobin(n int) [][]Rating {
	if n < 1 {
		n = 1
	}
	shards := make([][]Rating, n)
	for i, r := range c.Ratings {
		shards[i%n] = append(shards[i%n], r)
	}
	return shards
}
