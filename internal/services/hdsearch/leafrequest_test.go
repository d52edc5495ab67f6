package hdsearch

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"musuite/internal/dataset"
	"musuite/internal/kernel"
	"musuite/internal/vec"
	"musuite/internal/wire"
)

// ascendingIDs draws a strictly ascending list over [0, rows) at a random
// density — the shape LookupInto hands EncodeLeafRequest.
func ascendingIDs(r *rand.Rand, rows int) []uint32 {
	density := r.Float64()
	var ids []uint32
	for id := 0; id < rows; id++ {
		if r.Float64() < density {
			ids = append(ids, uint32(id))
		}
	}
	return ids
}

// TestLookupIntoAscending: every mid-tier candidate index hands back, per
// shard, a strictly ascending (hence duplicate-free) list of in-range local
// IDs — the CandidateIndex contract the gap-encoded leaf request and the
// leaf's gather scan rely on.  LSH's bitmap drain emits that order; the
// kd-tree and k-means adapters get it from fillByShard.
func TestLookupIntoAscending(t *testing.T) {
	corpus := testCorpus(t)
	shards := ShardCorpus(corpus, 4)
	for _, kind := range []IndexKind{IndexLSH, IndexKDTree, IndexKMeans} {
		index, err := BuildCandidateIndex(kind, shards, IndexConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var byShard [][]uint32
		prop := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			q := slices.Clone(corpus.Vectors[r.Intn(len(corpus.Vectors))])
			for i := range q {
				q[i] += float32(r.NormFloat64()) * 0.05
			}
			byShard = index.LookupInto(q, byShard)
			for s, ids := range byShard {
				for i, id := range ids {
					if int(id) >= shards[s].Store.Len() || (i > 0 && id <= ids[i-1]) {
						t.Logf("%s shard %d: ids[%d] = %d after %v", kind, s, i, id, ids[:i])
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

// TestLeafRequestRoundTrip: encode → decode is the identity on ascending
// lists up to a shard's size, whatever their density.
func TestLeafRequestRoundTrip(t *testing.T) {
	prop := func(seed int64, k uint16) bool {
		r := rand.New(rand.NewSource(seed))
		q := make(vec.Vector, 1+r.Intn(64))
		for i := range q {
			q[i] = float32(r.NormFloat64())
		}
		ids := ascendingIDs(r, 1+r.Intn(25000))
		gq, gids, gk, err := DecodeLeafRequest(EncodeLeafRequest(q, ids, int(k)))
		return err == nil && gk == int(k) && slices.Equal(gq, q) && slices.Equal(gids, ids)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeLeafRequestSortsUnsorted: a list that is not ascending — nothing
// in the tree produces one — is sorted and compacted in a copy: there is one
// leaf-request format and it cannot carry disorder or duplicates.
func TestEncodeLeafRequestSortsUnsorted(t *testing.T) {
	in := []uint32{153, 53, 9, 153, 7, 9}
	keep := slices.Clone(in)
	_, ids, _, err := DecodeLeafRequest(EncodeLeafRequest(vec.Vector{1, 2}, in, 3))
	if err != nil || !slices.Equal(ids, []uint32{7, 9, 53, 153}) {
		t.Fatalf("decoded %v, %v", ids, err)
	}
	if !slices.Equal(in, keep) {
		t.Fatalf("caller's list reordered: %v", in)
	}
}

func testLeaf(t *testing.T) (LeafData, vec.Vector, []uint32) {
	t.Helper()
	corpus := testCorpus(t)
	data := ShardCorpus(corpus, 4)[0]
	var ids []uint32
	for id := 0; id < data.Store.Len(); id += 3 {
		ids = append(ids, uint32(id))
	}
	return data, corpus.Queries(1, 5)[0], ids
}

// TestLeafKNNBoundsK: k crosses the wire unchecked and sizes the scan's
// heaps.  A request naming 2⁴⁰ neighbours is answered with every candidate it
// listed, sorted, from memory proportional to that list — not refused, and
// not an 8 TB allocation.
func TestLeafKNNBoundsK(t *testing.T) {
	data, q, ids := testLeaf(t)
	eng := kernel.New(kernel.Config{Parallelism: 1})
	payload := EncodeLeafRequest(q, ids, 1<<40)
	var reply wire.Encoder
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := leafKNN(eng, data, payload, &reply); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(256*len(ids)) {
		t.Fatalf("a k = 1<<40 call over %d candidates allocated %d bytes", len(ids), grew)
	}
	got, err := DecodeNeighbors(reply.Bytes())
	if err != nil || len(got) != len(ids) {
		t.Fatalf("%d neighbours for %d candidates, err %v", len(got), len(ids), err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Distance < got[i-1].Distance {
			t.Fatalf("reply not sorted at %d", i)
		}
	}
}

// poolsKeepPuts reports whether sync.Pool hands back what it was just given.
// Under the race detector it drops a quarter of all Puts on purpose, and then
// a pooled path's allocation count says nothing about the path.
func poolsKeepPuts() bool {
	news := 0
	p := sync.Pool{New: func() any { news++; return new(int) }}
	for i := 0; i < 200; i++ {
		p.Put(p.Get())
	}
	return news <= 2
}

// TestLeafKNNAllocs: a steady-state scoring call — gap decode into pooled
// scratch, gather scan, reply into the caller's encoder — allocates nothing.
func TestLeafKNNAllocs(t *testing.T) {
	if !poolsKeepPuts() {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	data, q, ids := testLeaf(t)
	eng := kernel.New(kernel.Config{Parallelism: 1})
	payload := EncodeLeafRequest(q, ids, 10)
	var reply wire.Encoder
	call := func() {
		reply.Reset()
		if err := leafKNN(eng, data, payload, &reply); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if a := testing.AllocsPerRun(100, call); a != 0 {
		t.Fatalf("steady-state leafKNN allocates %v per call", a)
	}
}

// FuzzLeafRequestDecode: whatever bytes reach a leaf, decoding them neither
// panics nor sizes anything from a number the payload merely claims — every
// ID and every query element costs the payload at least a byte — what it
// yields is strictly ascending, and the scoring call built on it returns an
// answer or an error.
func FuzzLeafRequestDecode(f *testing.F) {
	q := vec.Vector{1, 2, 3, 4}
	valid := EncodeLeafRequest(q, []uint32{0, 1, 7, 130, 20000}, 3)
	f.Add(valid)
	f.Add(valid[:len(valid)-2])                                     // truncated in the gaps
	f.Add(valid[:3])                                                // truncated in the query
	f.Add(append(EncodeLeafRequest(q, nil, 3)[:18], 0xE8, 0x07, 1)) // count 1000, two bytes left
	f.Add(append(EncodeLeafRequest(q, nil, 3)[:18], 3, 5, 0, 1))    // zero gap
	f.Add(append(EncodeLeafRequest(q, nil, 3)[:18], 2, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F))
	f.Add(EncodeLeafRequest(q, []uint32{2, 3}, 1<<40))
	f.Add(EncodeLeafRequest(q, []uint32{2, 3}, 0)) // a heap bounded at nothing,
	f.Add(EncodeLeafRequest(q, nil, 48))           // asked for or clamped to
	data := ShardCorpus(dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: 300, Dim: len(q), Clusters: 4, Noise: 0.1, Seed: 1,
	}), 1)[0]
	eng := kernel.New(kernel.Config{Parallelism: 1})
	f.Fuzz(func(t *testing.T, payload []byte) {
		query, ids, _, err := DecodeLeafRequest(payload)
		if err == nil {
			if 4*len(query) > len(payload) || len(ids) > len(payload) || cap(ids) > 2*len(payload)+16 {
				t.Fatalf("%d-byte payload decoded to %d floats, %d ids (cap %d)", len(payload), len(query), len(ids), cap(ids))
			}
			for i := 1; i < len(ids); i++ {
				if ids[i] <= ids[i-1] {
					t.Fatalf("decoded %d after %d", ids[i], ids[i-1])
				}
			}
		}
		var reply wire.Encoder
		if kerr := leafKNN(eng, data, payload, &reply); kerr == nil && err != nil {
			t.Fatalf("leafKNN served a payload DecodeLeafRequest rejects: %v", err)
		}
	})
}
