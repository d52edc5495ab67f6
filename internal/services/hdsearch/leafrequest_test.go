package hdsearch

import (
	"bytes"
	"encoding/binary"
	"math"
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
// density.
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

// packIDs is the set a list names.
func packIDs(ids []uint32) kernel.RowSet {
	var set kernel.RowSet
	set.Add(ids...)
	return set
}

// TestLookupIntoWellFormed: every mid-tier candidate index hands back, per
// shard, a set in the form the CandidateIndex contract, the leaf request and
// the leaf's scan rely on — as many masks as words, words strictly ascending,
// no zero mask, every row inside the shard.  LSH's sets are its dedup bitmap's
// words; the kd-tree and k-means adapters set bits through fillByShard.
func TestLookupIntoWellFormed(t *testing.T) {
	corpus := testCorpus(t)
	shards := ShardCorpus(corpus, 4)
	for _, kind := range []IndexKind{IndexLSH, IndexKDTree, IndexKMeans} {
		index, err := BuildCandidateIndex(kind, shards, IndexConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var byShard []kernel.RowSet
		prop := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			q := slices.Clone(corpus.Vectors[r.Intn(len(corpus.Vectors))])
			for i := range q {
				q[i] += float32(r.NormFloat64()) * 0.05
			}
			byShard = index.LookupInto(q, byShard)
			for s, set := range byShard {
				if len(set.Words) != len(set.Masks) {
					t.Logf("%s shard %d: %d words, %d masks", kind, s, len(set.Words), len(set.Masks))
					return false
				}
				for i, w := range set.Words {
					if set.Masks[i] == 0 || (i > 0 && w <= set.Words[i-1]) {
						t.Logf("%s shard %d: entry %d is word %d mask %#x after %v", kind, s, i, w, set.Masks[i], set.Words[:i])
						return false
					}
				}
				if ids := set.AppendIDs(nil); len(ids) > 0 && int(ids[len(ids)-1]) >= shards[s].Store.Len() {
					t.Logf("%s shard %d: row %d of %d", kind, s, ids[len(ids)-1], shards[s].Store.Len())
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

// TestFillByShardSetsEveryBit: the adapters' map → sets step loses nothing and
// invents nothing, whatever order the IDs come in and however often.
func TestFillByShardSetsEveryBit(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		byShard := make(map[int32][]uint32)
		want := make(map[int32][]uint32)
		for _, shard := range r.Perm(6)[:1+r.Intn(5)] {
			ids := ascendingIDs(r, 1+r.Intn(3000))
			want[int32(shard)] = ids
			ids = append(slices.Clone(ids), ids[:len(ids)/3]...)
			r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			byShard[int32(shard)] = ids
		}
		stale := []kernel.RowSet{packIDs([]uint32{1 << 30}), packIDs([]uint32{7})}
		for s, set := range fillByShard(stale, byShard) {
			if !slices.Equal(set.AppendIDs(nil), want[int32(s)]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLeafRequestRoundTrip: encode → decode is the identity on ascending
// lists up to a shard's size, whatever their density, and the payload is the
// one format: k, the query, the set's words as gaps, its masks.
func TestLeafRequestRoundTrip(t *testing.T) {
	prop := func(seed int64, k uint16) bool {
		r := rand.New(rand.NewSource(seed))
		q := make(vec.Vector, 1+r.Intn(64))
		for i := range q {
			q[i] = float32(r.NormFloat64())
		}
		ids := ascendingIDs(r, 1+r.Intn(25000))
		payload := EncodeLeafRequest(q, ids, int(k))
		set := packIDs(ids)
		var e wire.Encoder
		e.Uvarint(uint64(k))
		e.Float32s(q)
		e.AscendingUint32s(set.Words)
		e.Uint64s(set.Masks)
		gq, gids, gk, err := DecodeLeafRequest(payload)
		var viaSet wire.Encoder
		appendLeafRequest(&viaSet, q, set, int(k))
		return bytes.Equal(payload, e.Bytes()) && bytes.Equal(payload, viaSet.Bytes()) &&
			err == nil && gk == int(k) && slices.Equal(gq, q) && slices.Equal(gids, ids)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeLeafRequestPacksAnyOrder: a list that is not ascending — nothing
// in the tree produces one — names the same set: there is one leaf-request
// format and it cannot carry disorder or duplicates.
func TestEncodeLeafRequestPacksAnyOrder(t *testing.T) {
	in := []uint32{153, 53, 9, 153, 7, 9, 20000, 64}
	keep := slices.Clone(in)
	_, ids, _, err := DecodeLeafRequest(EncodeLeafRequest(vec.Vector{1, 2}, in, 3))
	if err != nil || !slices.Equal(ids, []uint32{7, 9, 53, 64, 153, 20000}) {
		t.Fatalf("decoded %v, %v", ids, err)
	}
	if !slices.Equal(in, keep) {
		t.Fatalf("caller's list reordered: %v", in)
	}
}

// rawLeafRequest builds a payload field by field, so a test can send what
// appendLeafRequest never would.
func rawLeafRequest(q []float32, k int, words func(*wire.Encoder), masks []uint64) []byte {
	var e wire.Encoder
	e.Uvarint(uint64(k))
	e.Float32s(q)
	words(&e)
	e.Uint64s(masks)
	return bytes.Clone(e.Bytes())
}

// TestLeafRequestContract pins the leaf side of the format, one case each:
// words that do not strictly ascend and masks that do not pair off with the
// words are errors, not panics; a word past the store is skipped and the last
// word's bits past the last row are masked off; k is clamped to the popcount;
// an all-zero mask is harmless.
func TestLeafRequestContract(t *testing.T) {
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{N: 150, Dim: 8, Clusters: 3, Seed: 2})
	data := ShardCorpus(corpus, 1)[0] // 150 rows: words 0–2, the last 22 rows wide
	q := corpus.Queries(1, 3)[0]
	eng := kernel.New(kernel.Config{Parallelism: 1})
	leaf := data.scoring()
	ascending := func(words ...uint32) func(*wire.Encoder) {
		return func(e *wire.Encoder) { e.AscendingUint32s(words) }
	}
	serve := func(payload []byte) ([]Neighbor, error) {
		var reply wire.Encoder
		if err := leafKNN(eng, leaf, payload, &reply); err != nil {
			return nil, err
		}
		return DecodeNeighbors(reply.Bytes())
	}
	// wantIDs is the answer ScanSubset gives over a list, in global IDs.
	wantIDs := func(ids []uint32, k int) []Neighbor {
		local, err := eng.ScanSubset(data.Store, q, ids, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Neighbor, len(local))
		for i, n := range local {
			out[i] = Neighbor{PointID: data.GlobalID[n.ID], Distance: n.Distance}
		}
		return out
	}

	t.Run("words must ascend", func(t *testing.T) {
		for _, words := range [][]byte{{2, 1, 0}, {2, 5, 0x80, 0}} { // a zero gap, plain and padded
			payload := rawLeafRequest(q, 3, func(e *wire.Encoder) { e.Raw(words) }, []uint64{1, 1})
			if _, err := serve(payload); err == nil {
				t.Fatalf("words % x served", words)
			}
			if _, _, _, err := DecodeLeafRequest(payload); err == nil {
				t.Fatalf("words % x decoded", words)
			}
		}
	})
	t.Run("masks must pair off", func(t *testing.T) {
		for _, masks := range [][]uint64{nil, {1}, {1, 2, 3}} {
			payload := rawLeafRequest(q, 3, ascending(0, 1), masks)
			if _, err := serve(payload); err == nil {
				t.Fatalf("2 words, %d masks served", len(masks))
			}
			if _, _, _, err := DecodeLeafRequest(payload); err == nil {
				t.Fatalf("2 words, %d masks decoded", len(masks))
			}
		}
	})
	t.Run("rows past the store", func(t *testing.T) {
		// Word 2 holds rows 128–191, the store ends at 149; words 3 and 1<<20
		// are past it altogether.
		payload := rawLeafRequest(q, 200, ascending(0, 2, 3, 1<<20), []uint64{0b101, ^uint64(0), ^uint64(0), 1})
		ids := []uint32{0, 2}
		for id := uint32(128); id < 150; id++ {
			ids = append(ids, id)
		}
		got, err := serve(payload)
		if err != nil || !slices.Equal(got, wantIDs(ids, len(ids))) {
			t.Fatalf("got %v, %v; want the %d rows inside the store", got, err, len(ids))
		}
	})
	t.Run("k clamped to the popcount", func(t *testing.T) {
		got, err := serve(rawLeafRequest(q, 1<<40, ascending(1), []uint64{0b1011}))
		if err != nil || !slices.Equal(got, wantIDs([]uint32{64, 65, 67}, 3)) {
			t.Fatalf("got %v, %v", got, err)
		}
	})
	t.Run("zero mask", func(t *testing.T) {
		got, err := serve(rawLeafRequest(q, 2, ascending(0, 1, 2), []uint64{0, 1 << 9, 0}))
		if err != nil || !slices.Equal(got, wantIDs([]uint32{73}, 2)) {
			t.Fatalf("got %v, %v", got, err)
		}
		if got, err = serve(rawLeafRequest(q, 2, ascending(1), []uint64{0})); err != nil || len(got) != 0 {
			t.Fatalf("nothing but a zero mask: got %v, %v", got, err)
		}
	})
}

// testLeaf is one shard of the test corpus in a leaf's scoring form, a query,
// and every third row of the shard.
func testLeaf(t *testing.T) (LeafData, vec.Vector, []uint32) {
	t.Helper()
	corpus := testCorpus(t)
	data := ShardCorpus(corpus, 4)[0]
	var ids []uint32
	for id := 0; id < data.Store.Len(); id += 3 {
		ids = append(ids, uint32(id))
	}
	return data.scoring(), corpus.Queries(1, 5)[0], ids
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

// TestLeafKNNAllocs: a steady-state scoring call — set decode into pooled
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
// word, every mask and every query element costs the payload at least a byte
// — what it yields is strictly ascending, and the scoring call built on it
// returns an answer or an error.
func FuzzLeafRequestDecode(f *testing.F) {
	q := vec.Vector{1, 2, 3, 4}
	valid := EncodeLeafRequest(q, []uint32{0, 1, 7, 130, 20000}, 3)
	head := EncodeLeafRequest(q, nil, 3)[:18] // k and the query
	f.Add(valid)
	f.Add(valid[:len(valid)-2])                      // truncated in the masks
	f.Add(valid[:20])                                // truncated in the words
	f.Add(valid[:3])                                 // truncated in the query
	f.Add(append(slices.Clone(head), 0xE8, 0x07, 1)) // 1000 words, two bytes left
	f.Add(append(slices.Clone(head), 3, 5, 0, 1))    // zero gap
	f.Add(append(slices.Clone(head), 2, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F))
	f.Add(append(slices.Clone(head), 2, 0, 1, 1, 9, 0, 0, 0, 0, 0, 0, 0)) // 2 words, 1 mask
	f.Add(append(slices.Clone(head), 1, 4, 0xE8, 0x07))                   // 1000 masks, no bytes left
	f.Add(EncodeLeafRequest(q, []uint32{2, 3}, 1<<40))
	f.Add(EncodeLeafRequest(q, []uint32{2, 3}, 0)) // a heap bounded at nothing,
	f.Add(EncodeLeafRequest(q, nil, 48))           // asked for or clamped to
	data := ShardCorpus(dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: 300, Dim: len(q), Clusters: 4, Noise: 0.1, Seed: 1,
	}), 1)[0].scoring()
	eng := kernel.New(kernel.Config{Parallelism: 1})
	f.Fuzz(func(t *testing.T, payload []byte) {
		query, set, _, err := decodeLeafRequest(payload, nil, kernel.RowSet{})
		if err == nil {
			if 4*len(query) > len(payload) || 9*len(set.Words) > len(payload) || cap(set.Words) > 2*len(payload)+16 || cap(set.Masks) > len(payload) {
				t.Fatalf("%d-byte payload decoded to %d floats, %d words (cap %d), %d masks (cap %d)",
					len(payload), len(query), len(set.Words), cap(set.Words), len(set.Masks), cap(set.Masks))
			}
			for i := 1; i < len(set.Words); i++ {
				if set.Words[i] <= set.Words[i-1] {
					t.Fatalf("decoded word %d after %d", set.Words[i], set.Words[i-1])
				}
			}
		}
		var reply wire.Encoder
		if kerr := leafKNN(eng, data, payload, &reply); kerr == nil && err != nil {
			t.Fatalf("leafKNN served a payload decodeLeafRequest rejects: %v", err)
		}
	})
}

// oddVectors are the values a filter's error bound is most easily wrong
// about, one vector each, cycled to dim: signed zeros, denormals, signs that
// cancel, norms that overflow, the largest finite values (rounding their upper
// half carries into the Inf exponent), NaN, and ±Inf.
func oddVectors(dim int) []vec.Vector {
	tiny := math.Float32frombits(1)
	kinds := [][]float32{
		{0, float32(math.Copysign(0, -1))},
		{tiny, -tiny, math.Float32frombits(0x007FFFFF), math.Float32frombits(0x00008000)},
		{3, -3, 1e-3, -1e-3, 0.25},
		{1e19, -1e19, 2e19},
		{math.MaxFloat32, -math.MaxFloat32, math.Float32frombits(0x7F7F8000), 1},
		{float32(math.NaN()), 1, 2},
		{float32(math.Inf(1)), float32(math.Inf(-1)), 0.5},
		{1e-20, 1e20, -1},
	}
	out := make([]vec.Vector, len(kinds))
	for i, vals := range kinds {
		out[i] = make(vec.Vector, dim)
		for j := range out[i] {
			out[i][j] = vals[(j+j/len(vals))%len(vals)]
		}
	}
	return out
}

// FuzzLeafKNNRowSet: whatever set a well-formed request names — words inside
// the store and far past it, any masks, any k — and whichever query asks —
// an ordinary one or one of oddVectors — the leaf answers exactly what
// ScanSubset answers over the rows of it that the fp32 store has, one row in
// seven of which is an oddVectors row too: where the filter's bound cannot be
// trusted the leaf must read exactly, and a row whose distance is NaN or Inf
// is treated as the fp32 scan treats it.  The rows are wide enough for the
// assembly.  The bytes are read as (gap, mask) pairs: two bytes of gap to the
// next word, eight of mask.  A qsel with its top bit set asks an empty shard
// of the same width instead, with a query of qsel's low four bits' floats:
// it answers nothing and does not fail, whatever the query's length.
func FuzzLeafKNNRowSet(f *testing.F) {
	f.Add([]byte{0, 0, 0xFF, 0, 0, 0, 0, 0, 0, 0x80, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(5), uint8(0))
	f.Add([]byte{4, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint16(100), uint8(0)) // the store's last word, every bit
	f.Add([]byte{0, 0x40, 1, 0, 0, 0, 0, 0, 0, 0}, uint16(1), uint8(0))                        // one word, far past the store
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(3), uint8(0))                           // one zero mask
	f.Add([]byte{}, uint16(2), uint8(0))
	everyRow := bytes.Repeat([]byte{0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 5)
	for qsel := uint8(0); qsel < 10; qsel++ {
		f.Add(everyRow, uint16(5), qsel)
		f.Add(everyRow, uint16(500), qsel)
	}
	for _, qsel := range []uint8{0x80, 0x81, 0x88, 0x8F} { // an empty shard: 0, 1, 8 and 15 floats
		f.Add(everyRow, uint16(5), qsel)
	}
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{N: 300, Dim: 32, Clusters: 4, Noise: 0.1, Seed: 1})
	odd := oddVectors(corpus.Dim)
	for g := 3; g < len(corpus.Vectors); g += 7 {
		corpus.Vectors[g] = odd[g/7%len(odd)]
	}
	data := ShardCorpus(corpus, 1)[0] // 300 rows: words 0–4, the last 44 rows wide
	leaf := data.scoring()
	queries := append(corpus.Queries(2, 2), odd...)
	none, err := kernel.FromFlat(nil, corpus.Dim)
	if err != nil {
		f.Fatal(err)
	}
	empty := LeafData{Store: none}.scoring()
	eng := kernel.New(kernel.Config{Parallelism: 1})
	f.Fuzz(func(t *testing.T, raw []byte, k uint16, qsel uint8) {
		q := queries[int(qsel)%len(queries)]
		if qsel&0x80 != 0 {
			q = q[:qsel&15]
		}
		var set kernel.RowSet
		var ids []uint32
		next := uint32(0)
		for ; len(raw) >= 10; raw = raw[10:] {
			word := next + uint32(binary.LittleEndian.Uint16(raw))
			mask := binary.LittleEndian.Uint64(raw[2:])
			next = word + 1
			set.Words, set.Masks = append(set.Words, word), append(set.Masks, mask)
			for b := uint32(0); b < 64; b++ {
				if id := word<<6 + b; mask>>b&1 != 0 && int(id) < data.Store.Len() {
					ids = append(ids, id)
				}
			}
		}
		var req, reply wire.Encoder
		appendLeafRequest(&req, q, set, int(k))
		if qsel&0x80 != 0 {
			if err := leafKNN(eng, empty, req.Bytes(), &reply); err != nil {
				t.Fatalf("an empty shard asked with a %d-float query: %v", len(q), err)
			}
			if got, err := DecodeNeighbors(reply.Bytes()); err != nil || len(got) != 0 {
				t.Fatalf("an empty shard answered %v, %v", got, err)
			}
			return
		}
		if err := leafKNN(eng, leaf, req.Bytes(), &reply); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeNeighbors(reply.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.ScanSubset(data.Store, q, ids, int(k), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d neighbours, ScanSubset over %d rows gives %d", len(got), len(ids), len(want))
		}
		for i, n := range want {
			if got[i].PointID != data.GlobalID[n.ID] || math.Float32bits(got[i].Distance) != math.Float32bits(n.Distance) {
				t.Fatalf("rank %d: %+v, ScanSubset %+v (global %d)", i, got[i], n, data.GlobalID[n.ID])
			}
		}
	})
}
