package ann

import (
	"math"
	"runtime"

	"musuite/internal/kernel"
)

// Int8Store is the scalar-quantized mirror of a kernel.Store: each row is
// quantized symmetrically to int8 with its own max-abs scale, cutting the
// row block from 4 bytes to 1 byte per element (~3.6× smaller end to end
// with the per-row scale and norm riding along).  Scoring dequantizes on
// the fly — distance = ‖q‖² + ‖roŵ‖² − 2·s·(q · codes) — so the approximate
// pass streams a quarter of the memory the float32 scan would.
type Int8Store struct {
	codes []int8    // n×dim quantized rows
	scale []float32 // per-row dequantization scale
	norms []float32 // per-row ‖dequantized row‖²
	n     int
	dim   int
}

// BuildInt8 quantizes every store row (parallel over rows; the result is
// deterministic because each row's quantization depends only on that row).
func BuildInt8(s *kernel.Store) *Int8Store {
	n, dim := s.Len(), s.Dim()
	st := &Int8Store{
		codes: make([]int8, n*dim),
		scale: make([]float32, n),
		norms: make([]float32, n),
		n:     n,
		dim:   dim,
	}
	kernel.ParallelFor(runtime.NumCPU(), n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := s.Row(i)
			var maxAbs float32
			for _, v := range row {
				if a := float32(math.Abs(float64(v))); a > maxAbs {
					maxAbs = a
				}
			}
			sc := maxAbs / 127
			if sc == 0 {
				sc = 1 // all-zero row quantizes to all-zero codes
			}
			inv := 1 / sc
			code := st.codes[i*dim : (i+1)*dim]
			var nrm float32
			for j, v := range row {
				q := math.Round(float64(v * inv))
				if q > 127 {
					q = 127
				} else if q < -127 {
					q = -127
				}
				code[j] = int8(q)
				dq := sc * float32(code[j])
				nrm += dq * dq
			}
			st.scale[i] = sc
			st.norms[i] = nrm
		}
	})
	return st
}

// Bytes reports the resident size: 1-byte codes plus the per-row scale and
// norm.
func (st *Int8Store) Bytes() int {
	return len(st.codes) + 4*(len(st.scale)+len(st.norms))
}

// Decode appends row i's dequantized elements to dst.  Each element is
// within scale/2 of the original (the symmetric rounding bound) — the
// round-trip property the tests assert.
func (st *Int8Store) Decode(i int, dst []float32) []float32 {
	sc := st.scale[i]
	for _, c := range st.codes[i*st.dim : (i+1)*st.dim] {
		dst = append(dst, sc*float32(c))
	}
	return dst
}

// dist2 is the approximate squared distance between the query and the
// dequantized row, via the norm trick on the mixed f32×i8 dot product.
func (st *Int8Store) dist2(q []float32, qn float32, i int) float32 {
	d := qn + st.norms[i] - 2*st.scale[i]*dotF32I8(q, st.codes[i*st.dim:(i+1)*st.dim])
	if d < 0 {
		return 0
	}
	return d
}

// dotF32I8 is the mixed-precision inner loop: the query stays float32, the
// row dequantizes lane by lane.  4-way unrolled — the win here is memory
// bandwidth (4× fewer row bytes), not FLOPs.
func dotF32I8(q []float32, c []int8) float32 {
	n := len(q)
	c = c[:n]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += q[i] * float32(c[i])
		s1 += q[i+1] * float32(c[i+1])
		s2 += q[i+2] * float32(c[i+2])
		s3 += q[i+3] * float32(c[i+3])
	}
	for ; i < n; i++ {
		s0 += q[i] * float32(c[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// scanSubset scores the candidate rows on the quantized codes and returns
// the r best (ascending approximate distance) — the approximate pass the
// exact re-rank then corrects.
func (st *Int8Store) scanSubset(q []float32, ids []uint32, r int, sc *searchScratch) []kernel.Neighbor {
	qn := kernel.Dot(q, q)
	top := &sc.top
	top.Reset(r)
	thr := top.Threshold()
	for _, id := range ids {
		if int(id) >= st.n {
			continue
		}
		d := st.dist2(q, qn, int(id))
		if d <= thr {
			top.Consider(id, d)
			thr = top.Threshold()
		}
	}
	return top.AppendSorted(sc.approx[:0])
}
