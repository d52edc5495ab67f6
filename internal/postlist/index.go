package postlist

import (
	"cmp"
	"slices"
)

// Index is an inverted index over a document shard: for each term, the
// sorted posting list of local documents containing it.  Terms on the stop
// list — the most collection-frequent terms, which carry little selective
// value — are discarded during indexing, as §III-C describes.  The index is
// flat and term-indexed: term t's postings are ids[off[t]:off[t+1]], and a
// term past the shard's largest word ID has no slot and matches nothing.
type Index struct {
	ids  []uint32 // every term's postings, end to end
	off  []uint32 // len terms+1
	stop []bool   // len terms
	docs int
}

// IndexConfig parameterizes index construction.
type IndexConfig struct {
	// StopTerms is how many of the most frequent terms to stop-list
	// (0 disables stop listing).
	StopTerms int
}

// BuildIndex indexes docs: docs[i] is the word-ID sequence (IDs ≥ 0) of the
// document with local ID i.  It is a two-pass counting sort, count then place.
// Documents are visited in ascending order, so every list comes out sorted,
// and a word repeated in a document finds that document last in its list.
func BuildIndex(docs [][]int, cfg IndexConfig) *Index {
	terms := 0
	for _, words := range docs {
		for _, w := range words {
			terms = max(terms, w+1)
		}
	}
	// Pass 1: collection frequency (total occurrences, per the paper's
	// stop-list definition) and document frequency; last[w] is 1 + the last
	// document counted in w's.
	freq, df, last := make([]int, terms), make([]uint32, terms), make([]int, terms)
	for doc, words := range docs {
		for _, w := range words {
			freq[w]++
			if last[w] != doc+1 {
				last[w] = doc + 1
				df[w]++
			}
		}
	}
	// Stop list: the StopTerms most frequent terms, ties to the lower ID.
	x := &Index{off: make([]uint32, terms+1), stop: make([]bool, terms), docs: len(docs)}
	seen := make([]int, 0, terms)
	for w, n := range freq {
		if n > 0 {
			seen = append(seen, w)
		}
	}
	slices.SortFunc(seen, func(a, b int) int { return cmp.Or(freq[b]-freq[a], a-b) })
	for _, w := range seen[:min(cfg.StopTerms, len(seen))] {
		x.stop[w] = true
	}
	// Pass 2: every non-stop term's slot, then each document's ID at its
	// words' cursors.
	for w := range terms {
		if x.stop[w] {
			df[w] = 0
		}
		x.off[w+1] = x.off[w] + df[w]
	}
	x.ids = make([]uint32, x.off[terms])
	next := slices.Clone(x.off[:terms])
	for doc, words := range docs {
		for _, w := range words {
			at := next[w]
			if x.stop[w] || (at > x.off[w] && x.ids[at-1] == uint32(doc)) {
				continue
			}
			x.ids[at] = uint32(doc)
			next[w] = at + 1
		}
	}
	return x
}

// Docs reports the number of indexed documents.
func (x *Index) Docs() int { return x.docs }

// IsStopWord reports whether term was stop-listed.
func (x *Index) IsStopWord(term int) bool { return uint(term) < uint(len(x.stop)) && x.stop[term] }

// postings is term's posting list, empty if the term has none or no slot.
func (x *Index) postings(term int) []uint32 {
	if uint(term) >= uint(len(x.stop)) {
		return nil
	}
	return x.ids[x.off[term]:x.off[term+1]:x.off[term+1]]
}

// Postings returns the posting list for term (nil if unindexed).
func (x *Index) Postings(term int) *PostingList {
	if ids := x.postings(term); len(ids) > 0 {
		return &PostingList{ids: ids, stride: DefaultSkipSize}
	}
	return nil
}

// Search returns the local doc IDs containing all non-stop query terms, via
// skip-accelerated intersection.  Stop-listed terms are dropped from the
// query (standard IR practice — they select nothing).  A term that is
// neither stopped nor indexed matches no documents, so the result is empty.
// A query of only stop words matches nothing.
//
// The result is read-only: a query with one live term is answered with that
// term's posting list itself, not a copy of it (a single-term reply is the
// longest the index produces, and copying it only to return it was a fifth
// of what a leaf allocated).
func (x *Index) Search(terms []int) []uint32 {
	return x.SearchInto(&IntersectScratch{lists: make([]PostingList, 0, len(terms))}, terms)
}

// SearchInto is Search on caller scratch: a leaf that keeps sc across
// requests searches without allocating.  The result is valid until sc is
// used again.
func (x *Index) SearchInto(sc *IntersectScratch, terms []int) []uint32 {
	sc.lists = sc.lists[:0]
	for _, t := range terms {
		if x.IsStopWord(t) {
			continue
		}
		ids := x.postings(t)
		if len(ids) == 0 {
			return nil
		}
		sc.lists = append(sc.lists, PostingList{ids: ids, stride: DefaultSkipSize})
	}
	return sc.intersect()
}
