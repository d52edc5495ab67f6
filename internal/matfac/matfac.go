// Package matfac implements the collaborative-filtering math of Recommend:
// a sparse user–item utility matrix and its Non-negative Matrix
// Factorization V ≈ W·H via masked (observed-entries-only) multiplicative
// updates, plus rating prediction from the recovered factors.  It stands in
// for mlpack's NMF module.
//
// The masked multiplicative update is the classic Lee–Seung rule restricted
// to observed cells: it keeps W and H non-negative by construction and
// monotonically non-increases the squared reconstruction error over the
// observed entries — both properties are enforced by this package's tests.
package matfac

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Triplet is one observed cell of the sparse utility matrix.
type Triplet struct {
	Row, Col int
	Val      float64
}

// Sparse is a sparse matrix in triplet form with per-row and per-column
// adjacency, sized for the multiplicative update's access pattern.
type Sparse struct {
	Rows, Cols int
	entries    []Triplet
	byRow      [][]int // entry indexes per row
	byCol      [][]int // entry indexes per column
}

// NewSparse validates and indexes the triplets.
func NewSparse(rows, cols int, data []Triplet) (*Sparse, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("matfac: invalid shape %dx%d", rows, cols)
	}
	s := &Sparse{
		Rows: rows, Cols: cols,
		entries: make([]Triplet, len(data)),
		byRow:   make([][]int, rows),
		byCol:   make([][]int, cols),
	}
	copy(s.entries, data)
	for i, t := range s.entries {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			return nil, fmt.Errorf("matfac: entry (%d,%d) outside %dx%d", t.Row, t.Col, rows, cols)
		}
		if t.Val < 0 {
			return nil, fmt.Errorf("matfac: negative value %v at (%d,%d); NMF requires non-negative data", t.Val, t.Row, t.Col)
		}
		s.byRow[t.Row] = append(s.byRow[t.Row], i)
		s.byCol[t.Col] = append(s.byCol[t.Col], i)
	}
	return s, nil
}

// NNZ reports the number of observed entries.
func (s *Sparse) NNZ() int { return len(s.entries) }

// Config parameterizes factorization.
type Config struct {
	// Rank r is the latent dimensionality — the number of "similarity
	// concepts" NMF identifies (default 8).
	Rank int
	// Iterations bounds the multiplicative update sweeps (default 50).
	Iterations int
	// Tolerance stops early when the relative error improvement per
	// sweep falls below it (default 1e-5; 0 disables).
	Tolerance float64
	// Seed makes the random initialization deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Rank <= 0 {
		c.Rank = 8
	}
	if c.Iterations <= 0 {
		c.Iterations = 50
	}
	if c.Tolerance == 0 {
		c.Tolerance = 1e-5
	}
	return c
}

// Mat is a dense row-major matrix in one contiguous block — the flat layout
// the kernel package's stores expect, so serving converts a trained factor
// matrix once (no per-row slice headers to chase, no per-point conversion).
type Mat struct {
	Data   []float64
	Rows   int
	Stride int // row length (= Rank for factor matrices)
}

// NewMat allocates a zeroed rows×stride matrix.
func NewMat(rows, stride int) Mat {
	return Mat{Data: make([]float64, rows*stride), Rows: rows, Stride: stride}
}

// Row returns row i as a slice aliasing the backing block.
func (m Mat) Row(i int) []float64 {
	return m.Data[i*m.Stride : (i+1)*m.Stride : (i+1)*m.Stride]
}

// Model is the factorization result: V ≈ W·H with W (Rows×Rank) capturing
// row↔concept affinity and H (Rank×Cols) concept↔column affinity.
type Model struct {
	Rank int
	// W row r is row r's latent factor vector (length Rank).
	W Mat
	// H row c is column c's latent factor vector (length Rank); stored
	// column-major for cache-friendly prediction.
	H Mat
	// ErrorTrace records the RMSE over observed entries after each
	// sweep, for convergence inspection and the monotonicity invariant.
	ErrorTrace []float64
}

// ErrEmpty reports factorization of a matrix with no observations.
var ErrEmpty = errors.New("matfac: no observed entries")

const eps = 1e-12

// Factorize runs masked multiplicative-update NMF on s.
func Factorize(s *Sparse, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if s.NNZ() == 0 {
		return nil, ErrEmpty
	}
	r := cfg.Rank
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Initialize with positive uniforms scaled to the data mean so WH
	// starts near the right magnitude.
	mean := 0.0
	for _, t := range s.entries {
		mean += t.Val
	}
	mean /= float64(s.NNZ())
	scale := math.Sqrt(mean / float64(r))
	if scale <= 0 {
		scale = 0.1
	}
	m := &Model{Rank: r, W: NewMat(s.Rows, r), H: NewMat(s.Cols, r)}
	for i := range m.W.Data {
		m.W.Data[i] = scale * (0.5 + rng.Float64())
	}
	for i := range m.H.Data {
		m.H.Data[i] = scale * (0.5 + rng.Float64())
	}

	pred := make([]float64, s.NNZ()) // WH at observed cells
	recompute := func() {
		for i, t := range s.entries {
			pred[i] = dot(m.W.Row(t.Row), m.H.Row(t.Col))
		}
	}
	rmse := func() float64 {
		sum := 0.0
		for i, t := range s.entries {
			d := t.Val - pred[i]
			sum += d * d
		}
		return math.Sqrt(sum / float64(s.NNZ()))
	}

	recompute()
	prev := rmse()
	m.ErrorTrace = append(m.ErrorTrace, prev)

	numer := make([]float64, r)
	denom := make([]float64, r)
	for sweep := 0; sweep < cfg.Iterations; sweep++ {
		// Update W rows: W[i] ∘= (Σ_j V_ij·H[j]) / (Σ_j (WH)_ij·H[j]).
		for row := 0; row < s.Rows; row++ {
			idxs := s.byRow[row]
			if len(idxs) == 0 {
				continue
			}
			for k := 0; k < r; k++ {
				numer[k], denom[k] = 0, 0
			}
			wrow := m.W.Row(row)
			for _, ei := range idxs {
				t := s.entries[ei]
				hrow := m.H.Row(t.Col)
				p := dot(wrow, hrow)
				for k := 0; k < r; k++ {
					numer[k] += t.Val * hrow[k]
					denom[k] += p * hrow[k]
				}
			}
			for k := 0; k < r; k++ {
				wrow[k] *= numer[k] / (denom[k] + eps)
			}
		}
		// Update H columns symmetrically.
		for col := 0; col < s.Cols; col++ {
			idxs := s.byCol[col]
			if len(idxs) == 0 {
				continue
			}
			for k := 0; k < r; k++ {
				numer[k], denom[k] = 0, 0
			}
			hrow := m.H.Row(col)
			for _, ei := range idxs {
				t := s.entries[ei]
				wrow := m.W.Row(t.Row)
				p := dot(wrow, hrow)
				for k := 0; k < r; k++ {
					numer[k] += t.Val * wrow[k]
					denom[k] += p * wrow[k]
				}
			}
			for k := 0; k < r; k++ {
				hrow[k] *= numer[k] / (denom[k] + eps)
			}
		}

		recompute()
		cur := rmse()
		m.ErrorTrace = append(m.ErrorTrace, cur)
		if cfg.Tolerance > 0 && prev > 0 && (prev-cur)/prev < cfg.Tolerance {
			break
		}
		prev = cur
	}
	return m, nil
}

// Predict approximates cell (row, col) of the utility matrix.
func (m *Model) Predict(row, col int) float64 {
	if row < 0 || row >= m.W.Rows || col < 0 || col >= m.H.Rows {
		return 0
	}
	return dot(m.W.Row(row), m.H.Row(col))
}

func dot(a, b []float64) float64 {
	s := 0.0
	for k := range a {
		s += a[k] * b[k]
	}
	return s
}
