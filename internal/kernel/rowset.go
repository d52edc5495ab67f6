package kernel

import (
	"errors"
	"math/bits"
	"slices"
)

// RowSet names a set of a store's rows as a sparse bitmap: Words holds the
// indices of the 64-row words that have a member, strictly ascending, and
// Masks[i] the members of word Words[i] — bit b is row Words[i]·64+b.  It is
// the one form HDSearch's candidates take from the mid-tier's index to the
// leaf's scan (DESIGN §5.5.1): candidates hash alike and rows that hash alike
// are stored side by side, so a set costs a word per ~30 rows where a list
// costs an integer per row, and a set is ascending and duplicate-free by
// construction.  A zero mask is legal and names nothing.
type RowSet struct {
	Words []uint32
	Masks []uint64
}

// ErrRowSetShape reports a RowSet whose Words and Masks differ in length.
var ErrRowSetShape = errors.New("kernel: row set has unequal word and mask counts")

// Reset empties the set, keeping its capacity.
func (r *RowSet) Reset() { r.Words, r.Masks = r.Words[:0], r.Masks[:0] }

// Count reports how many rows the set names.
func (r RowSet) Count() int {
	n := 0
	for _, m := range r.Masks {
		n += bits.OnesCount64(m)
	}
	return n
}

// Add puts rows in the set.  IDs that arrive ascending — every producer but
// a tree traversal or a cluster probe — append or OR into the last word; any
// other lands by binary search, so a list in any order, with or without
// repeats, packs to the same set.
func (r *RowSet) Add(ids ...uint32) {
	for _, id := range ids {
		w, bit := id>>6, uint64(1)<<(id&63)
		at := len(r.Words) - 1
		switch {
		case at < 0 || w > r.Words[at]:
			r.Words, r.Masks = append(r.Words, w), append(r.Masks, bit)
			continue
		case w < r.Words[at]:
			var found bool
			if at, found = slices.BinarySearch(r.Words, w); !found {
				r.Words, r.Masks = slices.Insert(r.Words, at, w), slices.Insert(r.Masks, at, 0)
			}
		}
		r.Masks[at] |= bit
	}
}

// Collect refills the set with the non-zero words of a dense bitmap, in
// order, and zeroes them: the dense form is what a lookup dedups in, and its
// words are the set's as they stand.
func (r *RowSet) Collect(dense []uint64) {
	r.Reset()
	for wi, m := range dense {
		if m != 0 {
			dense[wi] = 0
			r.Words, r.Masks = append(r.Words, uint32(wi)), append(r.Masks, m)
		}
	}
}

// AppendIDs appends the set's rows to dst as IDs, ascending — the list view
// for callers that hold IDs (ann's scans, the benchmark's probes).
func (r RowSet) AppendIDs(dst []uint32) []uint32 {
	for i, m := range r.Masks {
		base := r.Words[i] << 6
		for ; m != 0; m &= m - 1 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(m)))
		}
	}
	return dst
}
