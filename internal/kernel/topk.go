package kernel

// Neighbor is one scored result: a point ID and its squared distance (or
// generic score, smaller = nearer).
type Neighbor struct {
	ID       uint32
	Distance float32
}

// TopK is a bounded max-heap over (distance, id) keeping the k nearest
// candidates seen so far, with the current worst on top for O(1) rejection.
// The order is total — ascending distance, ties broken by ascending ID — so
// the same candidate multiset selects the same top-k in any arrival order,
// which is what lets every scan path (and the references in the tests) agree
// bit for bit.  The heap is hand-rolled (no container/heap) so Consider stays inlineable-ish and
// free of interface boxing on the hot path.
type TopK struct {
	k int
	h []Neighbor
}

// NewTopK returns a heap bounded at k.
func NewTopK(k int) *TopK {
	t := &TopK{}
	t.Reset(k)
	return t
}

// Reset empties the heap and re-bounds it at k, retaining capacity.
func (t *TopK) Reset(k int) {
	t.k = k
	if cap(t.h) < k {
		t.h = make([]Neighbor, 0, k)
	} else {
		t.h = t.h[:0]
	}
}

// Len reports the current occupancy.
func (t *TopK) Len() int { return len(t.h) }

// Threshold returns the current worst kept distance, or +range max when the
// heap is not yet full — candidates at or below it might still be admitted
// (ties are resolved by ID), anything strictly above it cannot.
func (t *TopK) Threshold() float32 {
	if len(t.h) < t.k {
		return maxFloat32
	}
	if len(t.h) == 0 {
		// Bounded at k ≤ 0: nothing is ever admitted.
		return -maxFloat32
	}
	return t.h[0].Distance
}

const maxFloat32 = 0x1p127 * (1 + (1 - 0x1p-23)) // math.MaxFloat32 without the import

// further is the heap priority: a sorts after b in the final order.
func further(a, b Neighbor) bool {
	if a.Distance != b.Distance {
		return a.Distance > b.Distance
	}
	return a.ID > b.ID
}

// Consider offers one candidate.
func (t *TopK) Consider(id uint32, dist float32) {
	if t.k <= 0 {
		return
	}
	n := Neighbor{ID: id, Distance: dist}
	if len(t.h) < t.k {
		t.h = append(t.h, n)
		t.siftUp(len(t.h) - 1)
		return
	}
	if !further(t.h[0], n) {
		return
	}
	t.h[0] = n
	t.siftDown(0)
}

// AppendSorted drains the heap into dst in ascending (distance, id) order.
// The heap is emptied; Reset before reuse.
func (t *TopK) AppendSorted(dst []Neighbor) []Neighbor {
	m := len(t.h)
	start := len(dst)
	dst = append(dst, t.h...)
	// Heap-sort in place: repeatedly swap the worst (root) to the end.
	h := dst[start : start+m]
	t.h = t.h[:0]
	for end := m - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDownSlice(h[:end], 0)
	}
	return dst
}

func (t *TopK) siftUp(i int) {
	h := t.h
	for i > 0 {
		parent := (i - 1) / 2
		if !further(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (t *TopK) siftDown(i int) { siftDownSlice(t.h, i) }

func siftDownSlice(h []Neighbor, i int) {
	n := len(h)
	for {
		worst := i
		if l := 2*i + 1; l < n && further(h[l], h[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < n && further(h[r], h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
