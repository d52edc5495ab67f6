package knn

import (
	"sort"
	"testing"
	"testing/quick"

	"musuite/internal/kernel"
)

// selectTop is top-k selection as every caller now does it: offer each
// candidate to a kernel.TopK bounded at k and drain it in order.
func selectTop(cands []Neighbor, k int) []Neighbor {
	top := kernel.NewTopK(k)
	for _, c := range cands {
		top.Consider(c.ID, c.Distance)
	}
	return top.AppendSorted(nil)
}

func TestSelectTieBreaksByID(t *testing.T) {
	cands := []Neighbor{{ID: 9, Distance: 1}, {ID: 3, Distance: 1}, {ID: 7, Distance: 1}}
	got := selectTop(cands, 2)
	if len(got) != 2 || got[0].ID != 3 || got[1].ID != 7 {
		t.Fatalf("tie-break wrong: %v", got)
	}
}

func TestSelectMatchesFullSort(t *testing.T) {
	f := func(raw []uint32, kRaw uint8) bool {
		k := int(kRaw%20) + 1
		cands := make([]Neighbor, len(raw))
		for i, r := range raw {
			cands[i] = Neighbor{ID: uint32(i), Distance: float32(r % 1000)}
		}
		got := selectTop(cands, k)

		ref := make([]Neighbor, len(cands))
		copy(ref, cands)
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].Distance != ref[j].Distance {
				return ref[i].Distance < ref[j].Distance
			}
			return ref[i].ID < ref[j].ID
		})
		if k > len(ref) {
			k = len(ref)
		}
		ref = ref[:k]
		if len(got) != len(ref) {
			return false
		}
		for i := range got {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetRespectsIDListAndBounds(t *testing.T) {
	s, err := kernel.BuildStore([][]float32{{0, 0}, {1, 0}, {0, 2}, {5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := kernel.Default().ScanSubset(s, []float32{0, 0}, []uint32{1, 3, 99}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %v (out-of-range ID not skipped?)", got)
	}
	if got[0].ID != 1 || got[1].ID != 3 {
		t.Fatalf("got %v", got)
	}
}
