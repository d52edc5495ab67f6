package dataset

import (
	"math"
	"math/rand"
)

// zipfSampler draws exactly the values math/rand's Zipf draws, from the same
// stream of the same *rand.Rand, at half the cost.  rand.Zipf is rejection
// inversion: each attempt takes one Float64 r, maps it to ur on the integral
// h of the density, inverts ur to x = hinv(ur) — a Log and an Exp — rounds x
// to k, and accepts k by two tests.  Both the rounding and the first test only
// compare x with fixed points (k−0.5 and k−s), and hinv is monotone, so the
// same comparisons can be made on ur against h of those points, computed once:
// a guide table over ur finds k, and the first test reads one stored value.
// The second test's threshold is a function of k alone, stored as the standard
// library computes it, so it compares bit for bit.  Where ur lies within a
// relative zipfMargin of a stored boundary, where rounding in either
// computation could decide the comparison, or beyond the table, the attempt
// runs the standard library's own loop body instead.
type zipfSampler struct {
	r *rand.Rand
	// The standard library's constants, computed by its own expressions.
	v, q, s, oneminusQ, oneminusQinv, hxm, hx0minusHxm float64

	// For k < len(cut): lo[k] = h(k−0.5), the ur at which x rounds to k
	// (lo[len(cut)] closes the last range); cut[k] = h(k−s), the least ur that
	// passes the first test (lo[k] when every x rounding to k passes it);
	// tail[k], the second test's threshold.
	lo, cut, tail []float64
	// guide[g] is the k whose range holds lo[0] + g/scale, give or take the
	// rounding of that sum, which the lookup's scans absorb.
	guide []int32
	scale float64
}

const (
	// zipfTableMax bounds the table: a larger imax draws its rarest values
	// through the exact loop body.
	zipfTableMax = 1 << 16
	// zipfMargin is the relative distance from a boundary inside which an
	// attempt takes the exact path.  Log and Exp err by an ulp or so; in ur
	// that is some 1e-15 relative, far inside this margin.
	zipfMargin = 1e-11
)

// newZipf is rand.NewZipf(r, s, v, imax) as a zipfSampler.  It requires what
// rand.NewZipf requires, s > 1 and v ≥ 1: the generators' configs default an
// s ≤ 1 and pass v = 1.
func newZipf(r *rand.Rand, s, v float64, imax uint64) *zipfSampler {
	z := &zipfSampler{r: r, v: v, q: s}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(float64(imax) + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))

	n := int(min(imax, zipfTableMax-1)) + 1
	z.lo = make([]float64, n+1)
	z.cut = make([]float64, n)
	z.tail = make([]float64, n)
	for k := 0; k <= n; k++ {
		z.lo[k] = z.h(float64(k) - 0.5)
	}
	for k := range z.cut {
		kf := float64(k)
		z.cut[k] = z.lo[k]
		if z.s < 0.5 {
			z.cut[k] = z.h(kf - z.s)
		}
		z.tail[k] = z.h(kf+0.5) - math.Exp(-math.Log(kf+z.v)*z.q)
	}
	z.guide = make([]int32, 2*n)
	z.scale = float64(len(z.guide)) / (z.lo[n] - z.lo[0])
	k := 0
	for g := range z.guide {
		for k+1 < n && z.lo[0]+float64(g)/z.scale >= z.lo[k+1] {
			k++
		}
		z.guide[g] = int32(k)
	}
	return z
}

// h and hinv are rand.Zipf's, expression for expression.
func (z *zipfSampler) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipfSampler) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// Uint64 returns the value rand.Zipf's Uint64 would, having consumed the same
// Float64s.
func (z *zipfSampler) Uint64() uint64 {
	for {
		r := z.r.Float64()
		ur := z.hxm + r*z.hx0minusHxm
		if k, ok := z.lookup(ur); ok {
			if ur >= z.cut[k] || ur >= z.tail[k] {
				return uint64(k)
			}
			continue
		}
		// The standard library's loop body.
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}

// lookup finds the k whose range [lo[k], lo[k+1]) holds ur.  It reports false
// when ur lies beyond the table or within zipfMargin of lo[k], lo[k+1] or
// cut[k].
func (z *zipfSampler) lookup(ur float64) (int, bool) {
	n := len(z.cut)
	if !(ur >= z.lo[0] && ur < z.lo[n]) {
		return 0, false
	}
	k := int(z.guide[min(int((ur-z.lo[0])*z.scale), len(z.guide)-1)])
	for ur >= z.lo[k+1] {
		k++
	}
	for ur < z.lo[k] {
		k--
	}
	if nearZipfBoundary(ur, z.lo[k]) || nearZipfBoundary(ur, z.lo[k+1]) || nearZipfBoundary(ur, z.cut[k]) {
		return 0, false
	}
	return k, true
}

func nearZipfBoundary(ur, b float64) bool {
	return math.Abs(ur-b) <= zipfMargin*math.Abs(b)
}
