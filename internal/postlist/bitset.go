package postlist

import (
	"math/bits"
	"slices"
)

// Dense-range bitset intersection: when two lists overlap a doc-ID range
// that is small relative to their combined length (high selectivity — many
// hits per range word), materializing both lists as bitsets over the overlap
// range and AND-ing 64 documents per word beats galloping, which pays a
// branchy probe per document.  The heuristic and the kernel live here; the
// generic Intersect dispatches per pair.

// bitsetSpanFactor gates the bitset path: the overlap span (in documents)
// must be at most this multiple of the combined list length, so the bitsets
// stay dense enough that whole-word ANDs do useful work and the O(span/64)
// allocation + sweep is bounded by the work galloping would do anyway.
const bitsetSpanFactor = 16

// useBitset reports whether the dense-range kernel should intersect a and b.
func useBitset(a, b *PostingList) bool {
	if len(a.ids) == 0 || len(b.ids) == 0 {
		return false
	}
	lo := max(a.ids[0], b.ids[0])
	hi := min(a.ids[len(a.ids)-1], b.ids[len(b.ids)-1])
	if hi < lo {
		return false
	}
	span := uint64(hi-lo) + 1
	return span <= uint64(bitsetSpanFactor)*uint64(len(a.ids)+len(b.ids))
}

// Intersect2Bitset intersects two lists with the dense-range bitset kernel:
// each list's IDs inside the overlap range set bits in a bitset anchored at
// the range start, the bitsets are AND-ed word by word, and surviving bits
// are converted back to doc IDs with trailing-zero extraction.  The result
// is identical to Intersect2; only the cost shape differs.
func Intersect2Bitset(a, b *PostingList) *PostingList {
	if len(a.ids) == 0 || len(b.ids) == 0 {
		return fromSorted(nil, a.skipSize)
	}
	lo := max(a.ids[0], b.ids[0])
	hi := min(a.ids[len(a.ids)-1], b.ids[len(b.ids)-1])
	if hi < lo {
		return fromSorted(nil, a.skipSize)
	}
	words := (int(hi-lo) >> 6) + 1
	wa := make([]uint64, words)
	wb := make([]uint64, words)
	fillBits(wa, a.ids, lo, hi)
	fillBits(wb, b.ids, lo, hi)
	// AND in place and count survivors so the output allocates exactly once.
	n := 0
	for i := range wa {
		wa[i] &= wb[i]
		n += bits.OnesCount64(wa[i])
	}
	out := make([]uint32, 0, n)
	for i, w := range wa {
		base := lo + uint32(i<<6)
		for w != 0 {
			out = append(out, base+uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return fromSorted(out, a.skipSize)
}

// fillBits sets the bit for every id in [lo, hi], bit index id−lo.
func fillBits(words []uint64, ids []uint32, lo, hi uint32) {
	// Skip the prefix below the overlap range with a binary-ish scan: lists
	// are sorted, so find the first in-range element linearly from whichever
	// end is cheaper is overkill — a simple scan with early exit suffices
	// because out-of-range prefixes/suffixes were already paid for in len().
	for _, id := range ids {
		if id < lo {
			continue
		}
		if id > hi {
			break
		}
		off := id - lo
		words[off>>6] |= 1 << (off & 63)
	}
}

// MergeSortedInto merges already-sorted, deduplicated segments into dst,
// deduplicating across segments — the mid-tier union for leaf results, which
// arrive sorted, so re-sorting the concatenation (O(n log n)) is wasted
// work.  dst is appended to and returned.
//
// The merge is a tournament of two-way merges: each round merges the runs in
// pairs, so an ID is moved ⌈log₂ k⌉ times by a two-cursor loop instead of
// being compared against all k cursors twice.  The rounds ping-pong between
// the output region and a second one of the same size, both carved from
// dst's spare capacity: a caller that reuses dst — the mid-tier's pooled
// merge scratch — merges without allocating.
func MergeSortedInto(dst []uint32, segs [][]uint32) []uint32 {
	var runsArr [8][]uint32
	runs := runsArr[:0]
	total := 0
	for _, seg := range segs {
		if len(seg) > 0 {
			runs = append(runs, seg)
			total += len(seg)
		}
	}
	switch len(runs) {
	case 0:
		return dst
	case 1:
		return append(dst, runs[0]...)
	}
	rounds := bits.Len(uint(len(runs) - 1))
	base := len(dst)
	dst = slices.Grow(dst, min(rounds, 2)*total)
	// The last round must land in the output region, so the first starts in
	// whichever region an alternation from it ends there.
	regions := [2][]uint32{dst[base : base+total], nil}
	if rounds > 1 {
		regions[1] = dst[base+total : base+2*total]
	}
	for r := rounds; r > 0; r-- {
		// Merged runs replace the pairs they came from in place: run i/2 is
		// written after runs i and i+1 were read.
		out, n := regions[(r-1)%2], 0
		next := runs[:0]
		for i := 0; i < len(runs); i += 2 {
			var m int
			if i+1 < len(runs) {
				m = merge2(out[n:], runs[i], runs[i+1])
			} else {
				// The odd run out moves too, so no run is ever read from
				// the region a later round writes.
				m = copy(out[n:], runs[i])
			}
			next = append(next, out[n:n+m])
			n += m
		}
		runs = next
	}
	return dst[:base+len(runs[0])]
}

// merge2 merges the ascending, duplicate-free a and b into out (which has
// room for both), keeping one copy of a shared ID, and returns the count
// written.  Cursors advance by the borrow bit of a subtraction, not by a
// branch that interleaved inputs would mispredict every other ID.
func merge2(out, a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := uint64(a[i]), uint64(b[j])
		out[n] = uint32(min(x, y))
		n++
		i += int((x - y - 1) >> 63) // x ≤ y
		j += int((y - x - 1) >> 63) // y ≤ x
	}
	n += copy(out[n:], a[i:])
	n += copy(out[n:], b[j:])
	return n
}
