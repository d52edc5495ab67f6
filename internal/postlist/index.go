package postlist

import (
	"sort"
)

// Index is an inverted index over a document shard: for each term, the
// sorted posting list of local documents containing it.  Terms on the stop
// list — the most collection-frequent terms, which carry little selective
// value — are discarded during indexing, as §III-C describes.
type Index struct {
	postings map[int]*PostingList
	stop     map[int]bool
	docs     int
}

// IndexConfig parameterizes index construction.
type IndexConfig struct {
	// StopTerms is how many of the most frequent terms to stop-list
	// (0 disables stop listing).
	StopTerms int
	// SkipSize overrides the posting-list skip stride (default
	// DefaultSkipSize).
	SkipSize int
}

// BuildIndex indexes docs: docs[i] is the word-ID sequence of the document
// with local ID i.
func BuildIndex(docs [][]int, cfg IndexConfig) *Index {
	skipSize := cfg.SkipSize
	if skipSize <= 0 {
		skipSize = DefaultSkipSize
	}

	// Pass 1: collection frequency (total occurrences, per the paper's
	// stop-list definition).
	freq := make(map[int]int)
	for _, words := range docs {
		for _, w := range words {
			freq[w]++
		}
	}

	// Stop list: the StopTerms most frequent terms.
	stop := make(map[int]bool, cfg.StopTerms)
	if cfg.StopTerms > 0 && len(freq) > 0 {
		type tf struct{ term, n int }
		all := make([]tf, 0, len(freq))
		for term, n := range freq {
			all = append(all, tf{term, n})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].n != all[j].n {
				return all[i].n > all[j].n
			}
			return all[i].term < all[j].term
		})
		limit := cfg.StopTerms
		if limit > len(all) {
			limit = len(all)
		}
		for _, t := range all[:limit] {
			stop[t.term] = true
		}
	}

	// Pass 2: postings, skipping stop-listed terms.
	raw := make(map[int][]uint32)
	for docID, words := range docs {
		seen := make(map[int]bool, len(words))
		for _, w := range words {
			if stop[w] || seen[w] {
				continue
			}
			seen[w] = true
			raw[w] = append(raw[w], uint32(docID))
		}
	}
	idx := &Index{
		postings: make(map[int]*PostingList, len(raw)),
		stop:     stop,
		docs:     len(docs),
	}
	for term, ids := range raw {
		idx.postings[term] = NewWithSkipSize(ids, skipSize)
	}
	return idx
}

// Docs reports the number of indexed documents.
func (x *Index) Docs() int { return x.docs }

// IsStopWord reports whether term was stop-listed.
func (x *Index) IsStopWord(term int) bool { return x.stop[term] }

// Postings returns the posting list for term (nil if unindexed).
func (x *Index) Postings(term int) *PostingList { return x.postings[term] }

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
	return x.SearchInto(&IntersectScratch{lists: make([]*PostingList, 0, len(terms))}, terms)
}

// SearchInto is Search on caller scratch: a leaf that keeps sc across
// requests searches without allocating.  The result is valid until sc is
// used again.
func (x *Index) SearchInto(sc *IntersectScratch, terms []int) []uint32 {
	sc.lists = sc.lists[:0]
	for _, t := range terms {
		if x.stop[t] {
			continue
		}
		p := x.postings[t]
		if p == nil {
			return nil
		}
		sc.lists = append(sc.lists, p)
	}
	return sc.intersect()
}
