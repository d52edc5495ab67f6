package kernel

import "math"

// SquaredEuclidean returns ‖a−b‖² as the direct sum of squared differences,
// in four lanes.  It is not the engine's norm-trick distance: k-means
// training, the kd-tree and the brute-force ground truth are fixed to this
// rounding.  Unequal lengths panic rather than silently truncating to the
// shorter vector (callers validate dimensions once at build or decode time,
// so a mismatch reaching this loop is a bug, not an input error).
func SquaredEuclidean(a, b []float32) float32 {
	n := len(a)
	if len(b) != n {
		panic("kernel: dimension mismatch")
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// CosineSimilarity returns a·b / (‖a‖‖b‖), the score HDSearch gives its
// reported nearest neighbour against the brute-force one.  A zero vector
// scores 0.
func CosineSimilarity(a, b []float32) float32 {
	na, nb := Dot(a, a), Dot(b, b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / float32(math.Sqrt(float64(na)*float64(nb)))
}

// BruteForce scores query against every corpus vector with SquaredEuclidean
// and returns the exact k nearest, ties by ID — HDSearch's ground truth.
// IDs index corpus.
func BruteForce(query []float32, corpus [][]float32, k int) []Neighbor {
	top := NewTopK(min(k, len(corpus)))
	for id, v := range corpus {
		top.Consider(uint32(id), SquaredEuclidean(query, v))
	}
	return top.AppendSorted(nil)
}
