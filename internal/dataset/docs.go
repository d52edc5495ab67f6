package dataset

import (
	"fmt"
	"math/rand"
)

// DocCorpus is a synthetic stand-in for the paper's 4.3M-document WikiText
// corpus: documents whose words follow a Zipf frequency distribution, so the
// most frequent terms form a natural stop list and posting-list lengths span
// orders of magnitude — the regime set-intersection algorithms care about.
type DocCorpus struct {
	// Docs holds each document as a slice of word IDs.
	Docs [][]int
	// VocabSize is the number of distinct words.
	VocabSize int
	zipfS     float64
	seed      int64
}

// DocCorpusConfig parameterizes corpus generation.
type DocCorpusConfig struct {
	// Docs is the number of documents.
	Docs int
	// VocabSize is the vocabulary size.
	VocabSize int
	// MeanDocLen is the average words per document.
	MeanDocLen int
	// ZipfS is the word-frequency skew (>1; default 1.3 — natural
	// language is near 1).
	ZipfS float64
	// Seed makes generation deterministic.
	Seed int64
}

func (c DocCorpusConfig) withDefaults() DocCorpusConfig {
	if c.Docs <= 0 {
		c.Docs = 1000
	}
	if c.VocabSize <= 0 {
		c.VocabSize = 5000
	}
	if c.MeanDocLen <= 0 {
		c.MeanDocLen = 100
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.3
	}
	return c
}

// NewDocCorpus generates a document corpus.
func NewDocCorpus(cfg DocCorpusConfig) *DocCorpus {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := newZipf(rng, cfg.ZipfS, 1, uint64(cfg.VocabSize-1))
	corpus := &DocCorpus{
		Docs:      make([][]int, cfg.Docs),
		VocabSize: cfg.VocabSize,
		zipfS:     cfg.ZipfS,
		seed:      cfg.Seed,
	}
	for d := 0; d < cfg.Docs; d++ {
		// Document lengths vary ±50% around the mean.
		n := cfg.MeanDocLen/2 + rng.Intn(cfg.MeanDocLen)
		if n < 1 {
			n = 1
		}
		words := make([]int, n)
		for w := 0; w < n; w++ {
			words[w] = int(zipf.Uint64())
		}
		corpus.Docs[d] = words
	}
	return corpus
}

// Word returns the canonical token string of word ID w.
func (c *DocCorpus) Word(w int) string { return fmt.Sprintf("w%06d", w) }

// Queries generates search queries of 1..maxTerms words drawn from the same
// word-occurrence probabilities (the paper synthesizes 10K queries of ≤10
// words from Wikipedia's word probabilities).  Queries of only stop-listed
// terms are legal; the service must handle them.
func (c *DocCorpus) Queries(n, maxTerms int, seed int64) [][]int {
	if maxTerms < 1 {
		maxTerms = 1
	}
	rng := rand.New(rand.NewSource(seed ^ 0x9E3779B9))
	zipf := newZipf(rng, c.zipfS, 1, uint64(c.VocabSize-1))
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		// Real search queries skew short: geometric-ish length.
		terms := 1
		for terms < maxTerms && rng.Float64() < 0.45 {
			terms++
		}
		q := make([]int, 0, terms)
		seen := make(map[int]bool, terms)
		for len(q) < terms {
			w := int(zipf.Uint64())
			if !seen[w] {
				seen[w] = true
				q = append(q, w)
			}
		}
		out[i] = q
	}
	return out
}

// Shard splits document IDs uniformly (round-robin) across n leaves, as the
// paper shards its corpus, returning the doc IDs per shard.
func (c *DocCorpus) Shard(n int) [][]int {
	if n < 1 {
		n = 1
	}
	shards := make([][]int, n)
	for id := range c.Docs {
		shards[id%n] = append(shards[id%n], id)
	}
	return shards
}
