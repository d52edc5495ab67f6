// Package kernel is the leaf compute engine: flat structure-of-arrays
// vector stores, norm-trick dot-product distance kernels with 8-way unrolled
// inner loops, and scans into one bounded top-k heap on the goroutine that
// serves the request — a query's parallelism comes from its shards.  It is
// the software analog of the paper's SIMD-accelerated HDSearch distance
// kernel: once RPC overheads are tamed, leaf compute dominates service time,
// and this package makes that compute cache-shaped.  Offline builds (stores,
// planes, indexes) spread over the cores with ParallelFor.
//
// Every scan path scores a (query, point) pair to the same bits and selects
// in one total order, and its answer equals a diff-squared reference — kept
// in the package's tests — within a documented float tolerance (the norm
// trick reassociates the sum).
package kernel

import (
	"errors"
	"runtime"
	"sync/atomic"
)

// ErrDimensionMismatch reports vectors or rows of unequal length.
var ErrDimensionMismatch = errors.New("kernel: dimension mismatch")

// Store is a flat structure-of-arrays vector set: all rows live in one
// contiguous []float32 block at a fixed stride, with each row's squared norm
// precomputed.  Compared with [][]float32 it removes one pointer chase and
// a slice-header load per point, streams linearly through memory, and feeds
// the norm-trick kernel its ‖p‖² term for free.
type Store struct {
	data  []float32
	norms []float32 // norms[i] = ‖row i‖²
	n     int
	dim   int
}

// BuildStore copies vectors into a flat store, validating once that every
// row has the same dimension — the single place dimension checking happens,
// so the kernels themselves can assume rectangular input.
func BuildStore(vectors [][]float32) (*Store, error) {
	return buildStore(len(vectors), func(i int) []float32 { return vectors[i] })
}

// BuildStoreOrdered is BuildStore over a selection of vectors in a given
// order: row i of the store is vectors[order[i]].  A caller that lays rows
// out in its own order (an HDSearch shard, DESIGN §5.5 "Row order") builds
// straight from the source vectors, with no gathered copy in between.
func BuildStoreOrdered(vectors [][]float32, order []uint32) (*Store, error) {
	return buildStore(len(order), func(i int) []float32 { return vectors[order[i]] })
}

// buildStore fills an n-row store whose row i is at(i), copying each row and
// taking its norm while it is hot, on ParallelFor: rows are independent,
// so the store does not depend on how the range was split.
func buildStore(n int, at func(i int) []float32) (*Store, error) {
	if n == 0 {
		return &Store{}, nil
	}
	dim := len(at(0))
	if dim == 0 {
		return nil, ErrDimensionMismatch
	}
	s := &Store{
		data:  make([]float32, n*dim),
		norms: make([]float32, n),
		n:     n,
		dim:   dim,
	}
	var ragged atomic.Bool
	ParallelFor(runtime.NumCPU(), n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := at(i)
			if len(v) != dim {
				ragged.Store(true)
				return
			}
			row := s.data[i*dim : (i+1)*dim]
			copy(row, v)
			s.norms[i] = dot8(row, row)
		}
	})
	if ragged.Load() {
		return nil, ErrDimensionMismatch
	}
	return s, nil
}

// FromFlat wraps an existing contiguous row-major block (len(data) must be a
// multiple of dim).  The store takes ownership of data.
func FromFlat(data []float32, dim int) (*Store, error) {
	if dim <= 0 || len(data)%dim != 0 {
		return nil, ErrDimensionMismatch
	}
	s := &Store{data: data, n: len(data) / dim, dim: dim}
	s.norms = make([]float32, s.n)
	s.fillNorms()
	return s, nil
}

// FromFloat64 converts a contiguous row-major float64 block (e.g. a trained
// latent-factor matrix) into a float32 store once, so serving never converts
// per point.
func FromFloat64(data []float64, dim int) (*Store, error) {
	if dim <= 0 || len(data)%dim != 0 {
		return nil, ErrDimensionMismatch
	}
	f := make([]float32, len(data))
	for i, v := range data {
		f[i] = float32(v)
	}
	return FromFlat(f, dim)
}

func (s *Store) fillNorms() {
	for i := 0; i < s.n; i++ {
		row := s.data[i*s.dim : (i+1)*s.dim]
		s.norms[i] = dot8(row, row)
	}
}

// Len reports the number of rows.
func (s *Store) Len() int { return s.n }

// Dim reports the row dimensionality.
func (s *Store) Dim() int { return s.dim }

// Row returns row i as a slice aliasing the store's backing block.  Callers
// must not modify it.
func (s *Store) Row(i int) []float32 {
	return s.data[i*s.dim : (i+1)*s.dim : (i+1)*s.dim]
}

// Norm2 returns ‖row i‖², precomputed at build time.
func (s *Store) Norm2(i int) float32 { return s.norms[i] }

// Bytes reports the store's resident size: the flat row block plus the
// precomputed norms.  The compressed ann stores assert their footprint
// against this number.
func (s *Store) Bytes() int { return 4 * (len(s.data) + len(s.norms)) }
