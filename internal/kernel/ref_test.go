package kernel

import (
	"cmp"
	"math"
	"slices"
)

// The references the engine is held to.  Each scores every row it is given
// with the direct diff-squared sum (SquaredEuclidean) — no norm trick, no
// SIMD, no filter — or, for cosine, in float64 with per-pair norms, and
// selects by sorting every candidate.  They share no arithmetic and no heap
// with the engine, so an equivalence test against them checks the engine,
// not the engine against itself.

// refSelect returns the k nearest candidates, ascending distance and ties
// by ascending ID, by sorting them all.
func refSelect(cands []Neighbor, k int) []Neighbor {
	out := slices.Clone(cands)
	slices.SortFunc(out, func(a, b Neighbor) int {
		if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out[:max(0, min(k, len(out)))]
}

// refScan is Scan's reference: every row of the store.
func refScan(s *Store, q []float32, k int) []Neighbor {
	cands := make([]Neighbor, s.Len())
	for i := range cands {
		cands[i] = Neighbor{ID: uint32(i), Distance: SquaredEuclidean(q, s.Row(i))}
	}
	return refSelect(cands, k)
}

// refScanSubset is ScanSubset's reference: the listed rows, a repeated ID
// scored each time it is listed and an ID past the store skipped.
func refScanSubset(s *Store, q []float32, ids []uint32, k int) []Neighbor {
	var cands []Neighbor
	for _, id := range ids {
		if int(id) < s.Len() {
			cands = append(cands, Neighbor{ID: id, Distance: SquaredEuclidean(q, s.Row(int(id)))})
		}
	}
	return refSelect(cands, k)
}

// refScanRowSet is ScanRowSet's reference: bit b of word w's mask names row
// 64·w + b, and a row past the store is skipped.
func refScanRowSet(s *Store, q []float32, set RowSet, k int) []Neighbor {
	var cands []Neighbor
	for i, w := range set.Words {
		for b := 0; b < 64; b++ {
			id := uint64(w)<<6 + uint64(b)
			if set.Masks[i]>>b&1 == 1 && id < uint64(s.Len()) {
				cands = append(cands, Neighbor{ID: uint32(id), Distance: SquaredEuclidean(q, s.Row(int(id)))})
			}
		}
	}
	return refSelect(cands, k)
}

// refCosineNeighbors is CosineNeighbors' reference: 1 − cosine similarity in
// float64 with per-pair norms, a zero-norm row at distance 1.
func refCosineNeighbors(s *Store, row int, include []bool, k int) []Neighbor {
	q := s.Row(row)
	var cands []Neighbor
	for i := 0; i < s.Len(); i++ {
		if i == row || (include != nil && !include[i]) {
			continue
		}
		var dot, na, nb float64
		for j, x := range s.Row(i) {
			a, b := float64(q[j]), float64(x)
			dot += a * b
			na += a * a
			nb += b * b
		}
		d := float32(1)
		if na != 0 && nb != 0 {
			d = float32(1 - dot/(math.Sqrt(na)*math.Sqrt(nb)))
		}
		cands = append(cands, Neighbor{ID: uint32(i), Distance: d})
	}
	return refSelect(cands, k)
}
