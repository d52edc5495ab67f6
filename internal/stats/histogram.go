// Package stats provides the measurement machinery used throughout μSuite:
// log-bucketed latency histograms, exact percentile computation over raw
// samples, violin-plot summaries, and multi-trial aggregation.
//
// The paper reports latency distributions as violin plots (median bar plus
// higher-order tail whiskers) and aggregates every measurement over five
// trials.  This package reproduces both mechanisms.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Histogram is a concurrency-safe latency histogram with logarithmically
// spaced sub-bucketed bins, in the spirit of HdrHistogram.  It records
// durations between 1ns and ~1h with a relative error bounded by
// 1/subBuckets, using O(1) memory independent of the sample count.
type Histogram struct {
	mu         sync.Mutex
	counts     []uint64
	totalCount uint64
	sum        int64 // nanoseconds; may saturate only after ~292 years of samples
	min        int64
	max        int64
}

const (
	// histSubBits fixes the per-octave resolution: 2^histSubBits linear
	// sub-buckets inside every power-of-two magnitude, giving <1.6%
	// relative quantization error.
	histSubBits = 6
	histSub     = 1 << histSubBits
	// histBuckets covers magnitudes 2^0 .. 2^62 nanoseconds.
	histOctaves = 63
)

// NewHistogram returns an empty histogram ready for concurrent use.
func NewHistogram() *Histogram {
	return &Histogram{
		counts: make([]uint64, histOctaves*histSub),
		min:    math.MaxInt64,
	}
}

// bucketIndex maps a positive nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < 1 {
		v = 1
	}
	// Find the octave: position of the highest set bit.
	oct := 63 - leadingZeros64(uint64(v))
	if oct < histSubBits {
		// Small values land in the linear region: one bucket per ns
		// until values exceed histSub.
		return int(v)
	}
	// Within the octave, take the top histSubBits bits after the leader.
	sub := (v >> (uint(oct) - histSubBits)) & (histSub - 1)
	return (oct-histSubBits+1)*histSub + int(sub)
}

// bucketLow returns the lower bound of bucket i in nanoseconds.
func bucketLow(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	oct := i/histSub + histSubBits - 1
	sub := int64(i % histSub)
	return (int64(1) << uint(oct)) + (sub << (uint(oct) - histSubBits))
}

func leadingZeros64(x uint64) int {
	n := 0
	if x == 0 {
		return 64
	}
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// Record adds one duration observation.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	h.mu.Lock()
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
	h.totalCount++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.totalCount
}

// Mean reports the arithmetic mean of recorded durations.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.totalCount == 0 {
		return 0
	}
	return time.Duration(h.sum / int64(h.totalCount))
}

// Min reports the smallest recorded duration (0 if empty).
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.totalCount == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max reports the largest recorded duration.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.max)
}

// Quantile returns the approximate q-quantile (0 ≤ q ≤ 1) of the recorded
// durations: the nearest-rank sample's bucket lower bound, clamped to
// [Min, Max], and Max itself for the last rank.  It is within one sub-bucket
// (1/64 relative) below the exact nearest-rank value.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.totalCount == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.totalCount)))
	if rank == 0 {
		rank = 1
	}
	if rank == h.totalCount {
		return time.Duration(h.max)
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return time.Duration(min(max(bucketLow(i), h.min), h.max))
		}
	}
	return time.Duration(h.max)
}

// Merge folds other into h.  Both histograms remain usable.
func (h *Histogram) Merge(other *Histogram) {
	other.mu.Lock()
	counts := make([]uint64, len(other.counts))
	copy(counts, other.counts)
	oTotal, oSum, oMin, oMax := other.totalCount, other.sum, other.min, other.max
	other.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range counts {
		h.counts[i] += c
	}
	h.totalCount += oTotal
	h.sum += oSum
	if oTotal > 0 {
		if oMin < h.min {
			h.min = oMin
		}
		if oMax > h.max {
			h.max = oMax
		}
	}
}

// Reset clears all recorded observations.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.totalCount = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// Snapshot captures the distribution summary commonly reported by the paper:
// min / p25 / median / p75 / p90 / p99 / p99.9 / max / mean / count.
type Snapshot struct {
	Count  uint64
	Min    time.Duration
	P25    time.Duration
	Median time.Duration
	P75    time.Duration
	P90    time.Duration
	P99    time.Duration
	P999   time.Duration
	Max    time.Duration
	Mean   time.Duration
}

// Snapshot returns the current distribution summary.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count:  h.Count(),
		Min:    h.Min(),
		P25:    h.Quantile(0.25),
		Median: h.Quantile(0.50),
		P75:    h.Quantile(0.75),
		P90:    h.Quantile(0.90),
		P99:    h.Quantile(0.99),
		P999:   h.Quantile(0.999),
		Max:    h.Max(),
		Mean:   h.Mean(),
	}
}

// String renders the snapshot on one line, suitable for experiment tables.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d min=%v p50=%v p90=%v p99=%v p99.9=%v max=%v mean=%v",
		s.Count, s.Min, s.Median, s.P90, s.P99, s.P999, s.Max, s.Mean)
}

// ExactQuantile computes the q-quantile of raw duration samples using the
// nearest-rank definition.  It sorts a copy; the input is not modified.
func ExactQuantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	cp := make([]time.Duration, len(samples))
	copy(cp, samples)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return sortedQuantile(cp, q)
}

// sortedQuantile is the nearest-rank quantile over an already sorted slice.
func sortedQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
