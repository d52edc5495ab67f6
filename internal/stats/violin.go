package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Violin summarizes a latency distribution the way the paper's Fig. 10 and
// Figs. 15–18 violin plots do: a median bar in the violin center, quartile
// body, and a thin tail whisker up to the higher-order percentiles, plus a
// kernel-density outline sampled at fixed points.
type Violin struct {
	Label   string
	Count   int
	Min     time.Duration
	P25     time.Duration
	Median  time.Duration
	P75     time.Duration
	P99     time.Duration
	P999    time.Duration
	Max     time.Duration
	Density []DensityPoint
}

// DensityPoint is one sample of the violin outline: the latency value and
// the relative density (0..1) of observations near it.
type DensityPoint struct {
	At      time.Duration
	Density float64
}

// NewViolin builds a violin summary from raw samples.  densityPoints controls
// the outline resolution (16 is plenty for terminal rendering; 0 skips the
// outline entirely).
func NewViolin(label string, samples []time.Duration, densityPoints int) Violin {
	v := Violin{Label: label, Count: len(samples)}
	if len(samples) == 0 {
		return v
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	v.Min = sorted[0]
	v.Max = sorted[len(sorted)-1]
	v.P25 = sortedQuantile(sorted, 0.25)
	v.Median = sortedQuantile(sorted, 0.50)
	v.P75 = sortedQuantile(sorted, 0.75)
	v.P99 = sortedQuantile(sorted, 0.99)
	v.P999 = sortedQuantile(sorted, 0.999)

	if densityPoints > 0 {
		v.Density = densityOutline(sorted, densityPoints)
	}
	return v
}

// densityOutline estimates relative density with a simple histogram kernel
// over log-spaced evaluation points between min and max.
func densityOutline(sorted []time.Duration, points int) []DensityPoint {
	lo, hi := float64(sorted[0]), float64(sorted[len(sorted)-1])
	if lo <= 0 {
		lo = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	logLo, logHi := math.Log(lo), math.Log(hi)
	out := make([]DensityPoint, points)
	maxD := 0.0
	for i := 0; i < points; i++ {
		// Bin i covers a log-space slice [center-w/2, center+w/2].
		f0 := logLo + (logHi-logLo)*float64(i)/float64(points)
		f1 := logLo + (logHi-logLo)*float64(i+1)/float64(points)
		lo0, hi0 := time.Duration(math.Exp(f0)), time.Duration(math.Exp(f1))
		n := countRange(sorted, lo0, hi0)
		d := float64(n)
		out[i] = DensityPoint{At: time.Duration(math.Exp((f0 + f1) / 2)), Density: d}
		if d > maxD {
			maxD = d
		}
	}
	if maxD > 0 {
		for i := range out {
			out[i].Density /= maxD
		}
	}
	return out
}

// countRange counts sorted samples in [lo, hi).
func countRange(sorted []time.Duration, lo, hi time.Duration) int {
	i := sort.Search(len(sorted), func(k int) bool { return sorted[k] >= lo })
	j := sort.Search(len(sorted), func(k int) bool { return sorted[k] >= hi })
	return j - i
}

// String renders the violin as a compact ASCII sketch: the density outline
// row and the five-number summary, mirroring the information content of the
// paper's violin plots in a terminal.
func (v Violin) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s n=%-7d ", v.Label, v.Count)
	if len(v.Density) > 0 {
		glyphs := " .:-=+*#%@"
		for _, p := range v.Density {
			g := int(p.Density * float64(len(glyphs)-1))
			b.WriteByte(glyphs[g])
		}
		b.WriteByte(' ')
	}
	fmt.Fprintf(&b, "p50=%v p99=%v p99.9=%v max=%v", v.Median, v.P99, v.P999, v.Max)
	return b.String()
}

// Trials aggregates a scalar measurement over repeated runs, mirroring the
// paper's "average measurements over five trials" methodology.
type Trials struct {
	values []float64
}

// Add records one trial's value.
func (t *Trials) Add(v float64) { t.values = append(t.values, v) }

// Mean reports the mean over trials (0 if none).
func (t *Trials) Mean() float64 {
	if len(t.values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range t.values {
		s += v
	}
	return s / float64(len(t.values))
}

// StdDev reports the sample standard deviation over trials.
func (t *Trials) StdDev() float64 {
	n := len(t.values)
	if n < 2 {
		return 0
	}
	m := t.Mean()
	s := 0.0
	for _, v := range t.values {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// RelStdDev reports StdDev/Mean, a unitless stability indicator.
func (t *Trials) RelStdDev() float64 {
	m := t.Mean()
	if m == 0 {
		return 0
	}
	return t.StdDev() / m
}
