// Package postlist implements the document-retrieval substrate of Set
// Algebra: sorted posting lists with skip pointers (Pugh-style skips over a
// sorted doc-ID array), an inverted index with collection-frequency stop
// listing, linear-merge and skip-accelerated intersection, and k-way union —
// the exact operations the paper's leaves and mid-tier perform.
package postlist

import (
	"slices"
	"sort"
)

// DefaultSkipSize is the skip interval; √n-ish skips are classical, but a
// fixed stride keeps construction O(n) and works well across list lengths.
const DefaultSkipSize = 16

// PostingList is the sorted list of document IDs containing one term, with
// skip pointers for sub-linear intersection.  For a term t this is the
// paper's tuple (St, Ct): St the skip sequence, Ct the documents between
// skips.
type PostingList struct {
	ids      []uint32
	skips    []int // indexes into ids at skipSize strides
	skipSize int
}

// New builds a posting list from doc IDs (any order, duplicates tolerated).
func New(ids []uint32) *PostingList {
	return NewWithSkipSize(ids, DefaultSkipSize)
}

// NewWithSkipSize builds a posting list with an explicit skip stride.
func NewWithSkipSize(ids []uint32, skipSize int) *PostingList {
	if skipSize < 2 {
		skipSize = 2
	}
	sorted := make([]uint32, len(ids))
	copy(sorted, ids)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Dedup in place.
	out := sorted[:0]
	for i, id := range sorted {
		if i == 0 || id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return fromSorted(out, skipSize)
}

// Len reports the number of documents in the list.
func (p *PostingList) Len() int { return len(p.ids) }

// IDs returns the sorted document IDs.  The slice must not be modified.
func (p *PostingList) IDs() []uint32 { return p.ids }

// Skips reports the number of skip pointers (diagnostics).
func (p *PostingList) Skips() int { return len(p.skips) }

// Contains reports whether doc is in the list, using skips then a bounded
// scan.
func (p *PostingList) Contains(doc uint32) bool {
	lo, hi := 0, len(p.ids)
	// Narrow with skip pointers first.
	for _, s := range p.skips {
		if p.ids[s] <= doc {
			lo = s
		} else {
			hi = s
			break
		}
	}
	for i := lo; i < hi; i++ {
		if p.ids[i] == doc {
			return true
		}
		if p.ids[i] > doc {
			return false
		}
	}
	return false
}

// Intersect2 computes the intersection of two lists with the classical
// linear merge ("merge" step of merge sort), O(|a|+|b|) — the leaf's
// operation in the paper.
func Intersect2(a, b *PostingList) *PostingList {
	out := make([]uint32, 0, min(len(a.ids), len(b.ids)))
	i, j := 0, 0
	for i < len(a.ids) && j < len(b.ids) {
		switch {
		case a.ids[i] == b.ids[j]:
			out = append(out, a.ids[i])
			i++
			j++
		case a.ids[i] < b.ids[j]:
			i++
		default:
			j++
		}
	}
	return fromSorted(out, a.skipSize)
}

// Intersect2Skip intersects using skip pointers on the longer list: when the
// next skip target is still below the probe document, whole blocks are
// skipped.  Asymptotically better when |a| ≪ |b|.
func Intersect2Skip(a, b *PostingList) *PostingList {
	if len(a.ids) > len(b.ids) {
		a, b = b, a
	}
	return fromSorted(intersectSkip(make([]uint32, 0, len(a.ids)), a.ids, b), a.skipSize)
}

// intersectSkip appends a ∩ b to dst, walking a and skipping through b's
// blocks.  An output never passes the input it came from, so dst may be
// a[:0]: an intermediate result is intersected in place.
func intersectSkip(dst, a []uint32, b *PostingList) []uint32 {
	j := 0        // position in b
	nextSkip := 0 // index into b.skips
	for _, doc := range a {
		// Fast-forward over skip blocks.
		for nextSkip < len(b.skips) && b.ids[b.skips[nextSkip]] <= doc {
			j = b.skips[nextSkip]
			nextSkip++
		}
		for j < len(b.ids) && b.ids[j] < doc {
			j++
		}
		if j < len(b.ids) && b.ids[j] == doc {
			dst = append(dst, doc)
		}
	}
	return dst
}

// Intersect computes the intersection of any number of lists (see
// IntersectScratch for how).  No lists yields an empty result; one list
// yields a copy.
func Intersect(lists ...*PostingList) *PostingList {
	if len(lists) == 0 {
		return fromSorted(nil, DefaultSkipSize)
	}
	sc := IntersectScratch{lists: slices.Clone(lists)}
	out := slices.Clone(sc.intersect())
	return fromSorted(out, sc.lists[0].skipSize)
}

// IntersectScratch is the working state of a multi-list intersection: the
// lists, the running result and the dense kernel's bitmaps.  A caller that
// keeps one across queries (Index.SearchInto) intersects without allocating.
type IntersectScratch struct {
	lists []*PostingList
	acc   []uint32
	words []uint64
}

// intersect intersects sc.lists, shortest first so intermediate results
// shrink fastest.  Each pairwise step picks its kernel: the dense-range bitset
// when the lists' overlap span is small relative to their sizes (high
// selectivity), skip-accelerated galloping otherwise.  The running result is a
// plain ID slice in sc.acc, rewritten in place from the second step on — only
// an indexed list needs a skip table, and an intermediate is always the
// shorter side.  The result is read-only and valid until sc is used again: it
// is sc.acc, or the list itself when there is one.
func (sc *IntersectScratch) intersect() []uint32 {
	switch len(sc.lists) {
	case 0:
		return nil
	case 1:
		return sc.lists[0].ids
	}
	slices.SortFunc(sc.lists, func(a, b *PostingList) int { return len(a.ids) - len(b.ids) })
	acc := sc.lists[0].ids
	sc.acc = slices.Grow(sc.acc[:0], len(acc))
	for _, l := range sc.lists[1:] {
		if len(acc) == 0 {
			break
		}
		if useBitset(acc, l.ids) {
			acc = sc.intersectBitset(sc.acc[:0], acc, l.ids)
		} else {
			acc = intersectSkip(sc.acc[:0], acc, l)
		}
	}
	return acc
}

// Union computes the k-way union (the mid-tier's response-path merge across
// leaf results).
func Union(lists ...*PostingList) *PostingList {
	switch len(lists) {
	case 0:
		return fromSorted(nil, DefaultSkipSize)
	case 1:
		return fromSorted(append([]uint32(nil), lists[0].ids...), lists[0].skipSize)
	}
	// Lists are already sorted and deduplicated, so a linear k-way merge
	// does the union in O(total · k) comparisons with no re-sort.
	total := 0
	segs := make([][]uint32, len(lists))
	for i, l := range lists {
		total += l.Len()
		segs[i] = l.ids
	}
	out := MergeSortedInto(make([]uint32, 0, total), segs)
	return fromSorted(out, lists[0].skipSize)
}

func fromSorted(sorted []uint32, skipSize int) *PostingList {
	p := &PostingList{ids: sorted, skipSize: skipSize}
	for i := skipSize; i < len(sorted); i += skipSize {
		p.skips = append(p.skips, i)
	}
	return p
}
