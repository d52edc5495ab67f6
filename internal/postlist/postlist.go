// Package postlist implements the document-retrieval substrate of Set
// Algebra: sorted posting lists with skip pointers (Pugh-style skips over a
// sorted doc-ID array), an inverted index with collection-frequency stop
// listing, linear-merge and skip-accelerated intersection, and k-way union —
// the exact operations the paper's leaves and mid-tier perform.
package postlist

import (
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
	p := &PostingList{ids: out, skipSize: skipSize}
	for i := skipSize; i < len(out); i += skipSize {
		p.skips = append(p.skips, i)
	}
	return p
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
	out := make([]uint32, 0, len(a.ids))
	j := 0        // position in b
	nextSkip := 0 // index into b.skips
	for _, doc := range a.ids {
		// Fast-forward over skip blocks.
		for nextSkip < len(b.skips) && b.ids[b.skips[nextSkip]] <= doc {
			j = b.skips[nextSkip]
			nextSkip++
		}
		for j < len(b.ids) && b.ids[j] < doc {
			j++
		}
		if j < len(b.ids) && b.ids[j] == doc {
			out = append(out, doc)
		}
	}
	return fromSorted(out, a.skipSize)
}

// Intersect computes the intersection of any number of lists, shortest
// first so intermediate results shrink fastest.  Each pairwise step picks
// its kernel: the dense-range bitset when the lists' overlap span is small
// relative to their sizes (high selectivity), skip-accelerated galloping
// otherwise.  No lists yields an empty result; one list yields a copy.
func Intersect(lists ...*PostingList) *PostingList {
	if len(lists) == 0 {
		return fromSorted(nil, DefaultSkipSize)
	}
	ordered := make([]*PostingList, len(lists))
	copy(ordered, lists)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Len() < ordered[j].Len() })
	acc := fromSorted(append([]uint32(nil), ordered[0].ids...), ordered[0].skipSize)
	for _, l := range ordered[1:] {
		if acc.Len() == 0 {
			break
		}
		if useBitset(acc, l) {
			acc = Intersect2Bitset(acc, l)
		} else {
			acc = Intersect2Skip(acc, l)
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

// UnionIDs unions raw sorted-or-not ID slices — the convenient form for the
// mid-tier, which receives plain ID lists over RPC.
func UnionIDs(lists ...[]uint32) []uint32 {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	all := make([]uint32, 0, total)
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out := all[:0]
	for i, id := range all {
		if i == 0 || id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

func fromSorted(sorted []uint32, skipSize int) *PostingList {
	p := &PostingList{ids: sorted, skipSize: skipSize}
	for i := skipSize; i < len(sorted); i += skipSize {
		p.skips = append(p.skips, i)
	}
	return p
}
