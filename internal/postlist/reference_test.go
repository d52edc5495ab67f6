package postlist

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// refIndex is the map-based inverted index that the flat Index replaced, kept
// as the reference it must equal: a map of term frequencies, a map of
// postings, a seen-set per document and a sort per term.
type refIndex struct {
	postings map[int][]uint32
	stop     map[int]bool
	docs     int
}

func buildRefIndex(docs [][]int, stopTerms int) *refIndex {
	freq := make(map[int]int)
	for _, words := range docs {
		for _, w := range words {
			freq[w]++
		}
	}
	stop := make(map[int]bool, stopTerms)
	if stopTerms > 0 && len(freq) > 0 {
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
		for _, t := range all[:min(stopTerms, len(all))] {
			stop[t.term] = true
		}
	}
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
	for _, ids := range raw {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return &refIndex{postings: raw, stop: stop, docs: len(docs)}
}

// search is the reference's Search: nil when no live term is left or a live
// term is unindexed, otherwise the intersection of the live terms' lists,
// which is empty but not nil when they share no document.
func (r *refIndex) search(terms []int) []uint32 {
	var lists [][]uint32
	for _, t := range terms {
		if r.stop[t] {
			continue
		}
		ids, ok := r.postings[t]
		if !ok {
			return nil
		}
		lists = append(lists, ids)
	}
	if len(lists) == 0 {
		return nil
	}
	return append([]uint32{}, naiveIntersect(lists...)...)
}

// randomDocs draws a small corpus with the shapes an index build must get
// right: empty documents, words repeated within a document, frequency ties
// at the stop-list boundary, and documents made only of the hottest words.
func randomDocs(r *rand.Rand) (docs [][]int, vocab int) {
	vocab = 1 + r.Intn(30)
	docs = make([][]int, r.Intn(40))
	for i := range docs {
		switch k := r.Intn(10); {
		case k == 0: // empty
		case k <= 2: // only the two hottest words, repeated
			for n := 1 + r.Intn(6); n > 0; n-- {
				docs[i] = append(docs[i], r.Intn(min(2, vocab)))
			}
		default:
			for n := r.Intn(12); n > 0; n-- {
				w := r.Intn(vocab)
				docs[i] = append(docs[i], w)
				if r.Intn(4) == 0 {
					docs[i] = append(docs[i], w)
				}
			}
		}
	}
	return docs, vocab
}

// TestIndexMatchesReference: on random corpora the flat index has the map
// index's document count, stop set and posting lists — for every term, the
// ones outside the vocabulary (negative, just past it, huge) included — and
// answers random queries as the reference does, nil where it answers nil.
func TestIndexMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		docs, vocab := randomDocs(r)
		stopTerms := r.Intn(vocab + 3)
		idx, ref := BuildIndex(docs, IndexConfig{StopTerms: stopTerms}), buildRefIndex(docs, stopTerms)
		if idx.Docs() != ref.docs {
			t.Logf("seed %d: %d docs, reference %d", seed, idx.Docs(), ref.docs)
			return false
		}
		probe := []int{-1, math.MinInt, math.MaxInt, vocab + 5}
		for w := 0; w < vocab+2; w++ {
			probe = append(probe, w)
		}
		for _, w := range probe {
			var got []uint32
			if p := idx.Postings(w); p != nil {
				got = p.IDs()
			}
			if idx.IsStopWord(w) != ref.stop[w] || !slices.Equal(got, ref.postings[w]) {
				t.Logf("seed %d, term %d: stop %v postings %v, reference %v %v",
					seed, w, idx.IsStopWord(w), got, ref.stop[w], ref.postings[w])
				return false
			}
		}
		var sc IntersectScratch
		for q := 0; q < 20; q++ {
			terms := make([]int, r.Intn(5))
			for i := range terms {
				terms[i] = probe[r.Intn(len(probe))]
			}
			want := ref.search(terms)
			for _, got := range [][]uint32{idx.Search(terms), idx.SearchInto(&sc, terms)} {
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Logf("seed %d, query %v: %v, reference %v", seed, terms, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
