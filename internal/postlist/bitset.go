package postlist

import (
	"math"
	"math/bits"
	"slices"
	"sync"
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

// overlap returns the ID range both ascending lists cover; ok is false when
// either is empty or they do not overlap.
func overlap(a, b []uint32) (lo, hi uint32, ok bool) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, false
	}
	lo = max(a[0], b[0])
	hi = min(a[len(a)-1], b[len(b)-1])
	return lo, hi, lo <= hi
}

// useBitset reports whether the dense-range kernel should intersect a and b.
func useBitset(a, b []uint32) bool {
	lo, hi, ok := overlap(a, b)
	return ok && uint64(hi-lo)+1 <= uint64(bitsetSpanFactor)*uint64(len(a)+len(b))
}

// Intersect2Bitset intersects two lists with the dense-range bitset kernel:
// each list's IDs inside the overlap range set bits in a bitset anchored at
// the range start, the bitsets are AND-ed word by word, and surviving bits
// are converted back to doc IDs with trailing-zero extraction.  The result
// is identical to Intersect2; only the cost shape differs.
func Intersect2Bitset(a, b *PostingList) *PostingList {
	var sc IntersectScratch
	return fromSorted(sc.intersectBitset(nil, a.ids, b.ids), a.skipSize)
}

// intersectBitset appends a ∩ b to dst by the bitset kernel, on sc's bitmaps.
// a is spent before the first ID is written, so dst may be a[:0].
func (sc *IntersectScratch) intersectBitset(dst, a, b []uint32) []uint32 {
	lo, hi, ok := overlap(a, b)
	if !ok {
		return dst
	}
	words := (int(hi-lo) >> 6) + 1
	sc.words = slices.Grow(sc.words[:0], 2*words)[:2*words]
	clear(sc.words)
	wa, wb := sc.words[:words], sc.words[words:]
	fillBits(wa, a, lo, hi)
	fillBits(wb, b, lo, hi)
	for i, w := range wa {
		base := lo + uint32(i<<6)
		for w &= wb[i]; w != 0; w &= w - 1 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// fillBits sets the bit for every id in [lo, hi], bit index id−lo.
func fillBits(words []uint64, ids []uint32, lo, hi uint32) {
	// ids ascend: skip those below lo and stop at the first above hi.
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

// unionSpanFactor gates the bitmap union the way bitsetSpanFactor gates the
// bitset intersection: the segments' ID span must be at most this multiple of
// their combined length.  Below it a word of the bitmap holds enough IDs that
// setting and scanning bits beats moving every ID through ⌈log₂ k⌉ merges;
// above it the scan is mostly over empty words.  Fixed by the sweep recorded
// in DESIGN ("Set Algebra's result path").
const unionSpanFactor = 32

// bitmaps recycles the unions' bitmap — at most unionSpanFactor bits an ID
// here, 8·bitmapBytesPerID in SetUnion: no more bytes than the IDs it unites.
// A pooled bitmap is all zero: a union clears each word as it reads it back.
var bitmaps = sync.Pool{New: func() any { return new([]uint64) }}

// MergeSortedInto merges already-sorted, deduplicated segments into dst,
// deduplicating across segments — the mid-tier union for leaf results, which
// arrive sorted, so re-sorting the concatenation (O(n log n)) is wasted
// work.  dst is appended to and returned.
//
// Dense segments (span ≤ unionSpanFactor × IDs) are united in a bitmap, sparse
// ones by a tournament of two-way merges; the result is the same and which
// runs is a property of the input.  A caller that reuses dst — the mid-tier's
// pooled merge scratch — merges without allocating either way.
func MergeSortedInto(dst []uint32, segs [][]uint32) []uint32 {
	var runsArr [8][]uint32
	runs := runsArr[:0]
	total := 0
	lo, hi := uint32(math.MaxUint32), uint32(0)
	for _, seg := range segs {
		if len(seg) > 0 {
			runs = append(runs, seg)
			total += len(seg)
			lo, hi = min(lo, seg[0]), max(hi, seg[len(seg)-1])
		}
	}
	switch len(runs) {
	case 0:
		return dst
	case 1:
		return append(dst, runs[0]...)
	}
	if useBitmap(lo, hi, total) {
		return unionBitmap(dst, runs, lo, int(hi-lo)+1, total)
	}
	return unionTournament(dst, runs, total)
}

// useBitmap reports whether total IDs spanning [lo, hi] are dense enough for
// the bitmap union.
func useBitmap(lo, hi uint32, total int) bool {
	return uint64(hi-lo)+1 <= unionSpanFactor*uint64(total)
}

// unionBitmap appends the union of runs — total IDs, all within span of lo —
// to dst: every ID sets a bit at its offset from lo in a pooled bitmap, and
// the bitmap is read back lowest bit first, which is ascending ID order with
// shared IDs already one bit.  An ID is touched twice whatever the run count.
func unionBitmap(dst []uint32, runs [][]uint32, lo uint32, span, total int) []uint32 {
	pooled := bitmaps.Get().(*[]uint64)
	nwords := (span + 63) >> 6
	if cap(*pooled) < nwords {
		*pooled = make([]uint64, nwords)
	}
	words := (*pooled)[:nwords]
	for _, run := range runs {
		for _, id := range run {
			off := id - lo
			words[off>>6] |= 1 << (off & 63)
		}
	}
	base := len(dst)
	dst = slices.Grow(dst, total)
	out, n := dst[base:base+total], 0
	for i, w := range words {
		if w == 0 {
			continue
		}
		words[i] = 0
		first := lo + uint32(i<<6)
		for ; w != 0; w &= w - 1 {
			out[n] = first + uint32(bits.TrailingZeros64(w))
			n++
		}
	}
	bitmaps.Put(pooled)
	return dst[:base+n]
}

// unionTournament appends the union of runs to dst by a tournament of two-way
// merges: each round merges the runs in pairs, so an ID is moved ⌈log₂ k⌉
// times by a two-cursor loop.  The rounds ping-pong between the output region
// and a second one of the same size, both carved from dst's spare capacity.
func unionTournament(dst []uint32, runs [][]uint32, total int) []uint32 {
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
