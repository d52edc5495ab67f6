package recommend

import (
	"fmt"
	"sort"

	"musuite/internal/core"
	"musuite/internal/wire"
)

// MethodTopN is the top-N recommendation query — the extension §III-D
// explicitly proposes: "this algorithm can also be further extended to
// recommend items which were not rated by the user."
const MethodTopN = "recommend.topn"

// ItemRating is one recommended item with its predicted rating.
type ItemRating struct {
	Item   int
	Rating float64
}

// --- wire codecs ---

// EncodeTopNRequest encodes a {user, n} recommendation query.
func EncodeTopNRequest(user, n int) []byte {
	e := wire.NewEncoder(10)
	e.Uvarint(uint64(user))
	e.Uvarint(uint64(n))
	return e.Bytes()
}

// DecodeTopNRequest decodes a recommendation query.
func DecodeTopNRequest(b []byte) (user, n int, err error) {
	d := wire.NewDecoder(b)
	user = int(d.Uvarint())
	n = int(d.Uvarint())
	return user, n, d.Err()
}

// EncodeTopNResponse encodes a leaf's recommendations plus the items the
// user has already rated in that shard (so the mid-tier can exclude items
// the user rated in *any* shard).
func EncodeTopNResponse(recs []ItemRating, rated []uint32) []byte {
	e := wire.NewEncoder(16 + 12*len(recs) + 4*len(rated))
	e.Uvarint(uint64(len(recs)))
	for _, r := range recs {
		e.Uvarint(uint64(r.Item))
		e.Float64(r.Rating)
	}
	e.Uint32s(rated)
	return e.Bytes()
}

// DecodeTopNResponse decodes a leaf's recommendation response.
func DecodeTopNResponse(b []byte) (recs []ItemRating, rated []uint32, err error) {
	d := wire.NewDecoder(b)
	n := int(d.Uvarint())
	if err := d.Err(); err != nil {
		return nil, nil, err
	}
	if n > wire.MaxSliceLen/12 {
		return nil, nil, wire.ErrTooLarge
	}
	recs = make([]ItemRating, n)
	for i := range recs {
		recs[i].Item = int(d.Uvarint())
		recs[i].Rating = d.Float64()
	}
	rated = d.Uint32s()
	return recs, rated, d.Err()
}

// topNHeap is a bounded heap keeping the n best ItemRatings seen so far —
// rating descending, ties broken by ascending item — with the current worst
// on top for O(1) rejection, so selecting n of m items is O(m log n) instead
// of the full O(m log m) sort.  Ratings stay float64 end to end, so the
// order is identical to the sort it replaces.
type topNHeap struct {
	n int
	h []ItemRating
}

// worse reports whether a sorts after b in the final (best-first) order.
func topNWorse(a, b ItemRating) bool {
	if a.Rating != b.Rating {
		return a.Rating < b.Rating
	}
	return a.Item > b.Item
}

func (t *topNHeap) consider(x ItemRating) {
	if t.n <= 0 {
		return
	}
	if len(t.h) < t.n {
		t.h = append(t.h, x)
		i := len(t.h) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !topNWorse(t.h[i], t.h[parent]) {
				break
			}
			t.h[i], t.h[parent] = t.h[parent], t.h[i]
			i = parent
		}
		return
	}
	if !topNWorse(t.h[0], x) {
		return
	}
	t.h[0] = x
	topNSiftDown(t.h, 0)
}

func topNSiftDown(h []ItemRating, i int) {
	n := len(h)
	for {
		worst := i
		if l := 2*i + 1; l < n && topNWorse(h[l], h[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < n && topNWorse(h[r], h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// drainSorted empties the heap, returning its contents best-first.
func (t *topNHeap) drainSorted() []ItemRating {
	h := t.h
	t.h = nil
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		topNSiftDown(h[:end], 0)
	}
	return h
}

// TopN returns this shard's up-to-n best unrated items for user (by the
// factor model's predicted rating), plus the items the user has rated in
// this shard.  ok is false for unknown users.
func (lm *LeafModel) TopN(user, n int) (recs []ItemRating, rated []int, ok bool) {
	if user < 0 || user >= len(lm.userKnown) || !lm.userKnown[user] {
		return nil, nil, false
	}
	if n <= 0 {
		n = 10
	}
	ratedSet := lm.ratedBy[user]
	for item := range ratedSet {
		rated = append(rated, item)
	}
	sort.Ints(rated)

	top := topNHeap{n: n}
	for item, known := range lm.itemKnown {
		if !known || ratedSet[item] {
			continue
		}
		top.consider(ItemRating{Item: item, Rating: clamp(lm.model.Predict(user, item))})
	}
	return top.drainSorted(), rated, true
}

// appendTopN is the leaf-side TopN RPC: the response goes straight into the
// leaf's pooled reply encoder (same wire layout as EncodeTopNResponse).
func (lm *LeafModel) appendTopN(payload []byte, reply *wire.Encoder) error {
	user, n, err := DecodeTopNRequest(payload)
	if err != nil {
		return err
	}
	recs, rated, _ := lm.TopN(user, n)
	reply.Uvarint(uint64(len(recs)))
	for _, r := range recs {
		reply.Uvarint(uint64(r.Item))
		reply.Float64(r.Rating)
	}
	reply.Uvarint(uint64(len(rated)))
	for _, item := range rated {
		reply.Uint32(uint32(item))
	}
	return nil
}

// mergeTopN combines per-leaf recommendations: per-item ratings are averaged
// across the leaves that scored the item, items rated by the user in any
// shard are dropped, and the global top-n remains.
func mergeTopN(results []core.LeafResult, n int) ([]byte, error) {
	type acc struct {
		sum float64
		cnt int
	}
	perItem := make(map[int]*acc)
	ratedAnywhere := make(map[int]bool)
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		recs, rated, err := DecodeTopNResponse(r.Reply)
		if err != nil {
			return nil, err
		}
		for _, item := range rated {
			ratedAnywhere[int(item)] = true
		}
		for _, rec := range recs {
			a := perItem[rec.Item]
			if a == nil {
				a = &acc{}
				perItem[rec.Item] = a
			}
			a.sum += rec.Rating
			a.cnt++
		}
	}
	// n <= 0 means keep everything, which the bounded heap expresses as a
	// bound of len(perItem); the heapsort drain then doubles as the sort.
	bound := n
	if bound <= 0 {
		bound = len(perItem)
	}
	top := topNHeap{n: bound}
	for item, a := range perItem {
		if ratedAnywhere[item] {
			continue
		}
		top.consider(ItemRating{Item: item, Rating: a.sum / float64(a.cnt)})
	}
	return EncodeTopNResponse(top.drainSorted(), nil), nil
}

// TopN asks the service for the user's n best unrated items.
func (c *Client) TopN(user, n int) ([]ItemRating, error) {
	reply, err := c.rpc.Call(MethodTopN, EncodeTopNRequest(user, n))
	if err != nil {
		return nil, err
	}
	recs, _, err := DecodeTopNResponse(reply)
	return recs, err
}

// errUnknownMethod builds the standard rejection.
func errUnknownMethod(tier, method string) error {
	return fmt.Errorf("recommend %s: unknown method %q", tier, method)
}
