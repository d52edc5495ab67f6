package dataset

import (
	"fmt"
	"math/rand"
)

// KVOpKind distinguishes reads from writes in a key-value trace.
type KVOpKind int

const (
	// KVGet reads a key.
	KVGet KVOpKind = iota
	// KVSet writes a key-value pair.
	KVSet
)

// KVOp is one operation of the Router workload.
type KVOp struct {
	Kind  KVOpKind
	Key   string
	Value []byte
}

// KVTraceConfig parameterizes the synthetic "Twitter" key-value trace.
// The paper drives Router with keys from an open-source Twitter dataset and
// a 50/50 get/set mix mimicking YCSB Workload A.
type KVTraceConfig struct {
	// Keys is the size of the key population.
	Keys int
	// ValueSize is the value payload length in bytes.
	ValueSize int
	// GetFraction is the probability an op is a get (YCSB-A: 0.5).
	GetFraction float64
	// Seed makes generation deterministic.
	Seed int64
}

func (c KVTraceConfig) withDefaults() KVTraceConfig {
	if c.Keys <= 0 {
		c.Keys = 10000
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 128
	}
	if c.GetFraction <= 0 {
		c.GetFraction = 0.5
	}
	return c
}

// kvZipfS is the Zipf skew of key popularity, the heavy skew of social-media
// object popularity.
const kvZipfS = 1.1

// KVTrace generates Router operations on demand.
type KVTrace struct {
	cfg  KVTraceConfig
	rng  *rand.Rand
	zipf *zipfSampler
}

// NewKVTrace creates a trace generator.
func NewKVTrace(cfg KVTraceConfig) *KVTrace {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &KVTrace{
		cfg:  cfg,
		rng:  rng,
		zipf: newZipf(rng, kvZipfS, 1, uint64(cfg.Keys-1)),
	}
}

// Key returns the canonical key string for population index i.
func (t *KVTrace) Key(i uint64) string {
	return fmt.Sprintf("tweet:%012d", i)
}

// Next produces the next operation in the trace.
func (t *KVTrace) Next() KVOp {
	key := t.Key(t.zipf.Uint64())
	if t.rng.Float64() < t.cfg.GetFraction {
		return KVOp{Kind: KVGet, Key: key}
	}
	val := make([]byte, t.cfg.ValueSize)
	t.rng.Read(val)
	return KVOp{Kind: KVSet, Key: key, Value: val}
}

// Ops materializes n operations.
func (t *KVTrace) Ops(n int) []KVOp {
	out := make([]KVOp, n)
	for i := range out {
		out[i] = t.Next()
	}
	return out
}

// WarmupSets returns one set per key so every later get can hit, used to
// preload leaves before measurement.
func (t *KVTrace) WarmupSets() []KVOp {
	out := make([]KVOp, t.cfg.Keys)
	for i := range out {
		val := make([]byte, t.cfg.ValueSize)
		t.rng.Read(val)
		out[i] = KVOp{Kind: KVSet, Key: t.Key(uint64(i)), Value: val}
	}
	return out
}
