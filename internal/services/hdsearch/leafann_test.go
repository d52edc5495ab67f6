package hdsearch

import (
	"bytes"
	"slices"
	"testing"

	"musuite/internal/ann"
	"musuite/internal/dataset"
	"musuite/internal/kernel"
	"musuite/internal/wire"
)

// annShard is a 500-row, 32-d shard with kind's leaf-resident index built
// over it, and two queries.
func annShard(t testing.TB, kind IndexKind) (LeafData, [][]float32) {
	t.Helper()
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{N: 500, Dim: 32, Clusters: 4, Noise: 0.1, Seed: 1})
	data := ShardCorpus(corpus, 1)[0]
	cfg, _ := LeafANNConfig(kind, ann.Config{NList: 8, Seed: 3})
	if err := buildLeafANN(&data, cfg, 0); err != nil {
		t.Fatal(err)
	}
	return data, corpus.Queries(2, 2)
}

// annProbe encodes an ANN probe with the given knob slots (k, nprobe/ef,
// rerank).
func annProbe(q []float32, knobs [3]int) []byte {
	var e wire.Encoder
	appendLeafANNRequest(&e, q, knobs[0], knobs[1], knobs[2])
	return e.Bytes()
}

// TestLeafANNBoundsKnobs: an ANN probe's knobs cross the wire unchecked, and
// HNSW's ef (the nprobe slot) and the compressed kinds' rerank size heaps.
// A probe naming 2⁴⁰ in any slot answers, byte for byte, what the same probe
// naming the shard's row count answers — not a fatal out-of-memory that no
// recover can catch.
func TestLeafANNBoundsKnobs(t *testing.T) {
	for _, kind := range []IndexKind{IndexHNSW, IndexIVFSQ, IndexIVFPQ} {
		data, queries := annShard(t, kind)
		n := data.Store.Len()
		eng := kernel.New(kernel.Config{})
		answer := func(q []float32, knobs [3]int) []byte {
			var reply wire.Encoder
			if err := leafANN(eng, data, annProbe(q, knobs), &reply); err != nil {
				t.Fatalf("%s %v: %v", kind, knobs, err)
			}
			return slices.Clone(reply.Bytes())
		}
		for _, q := range queries {
			for slot := range 3 {
				huge, rows := [3]int{5, 0, 0}, [3]int{5, 0, 0}
				huge[slot], rows[slot] = 1<<40, n
				if got, want := answer(q, huge), answer(q, rows); !bytes.Equal(got, want) {
					t.Fatalf("%s: knobs %v answered %x, knobs %v %x", kind, huge, got, rows, want)
				}
			}
		}
	}
}

// FuzzLeafANNRequest: whatever bytes an ANN probe carries, an HNSW or IVF-PQ
// leaf does not panic, and what it answers is at most k neighbours, each a
// point of the shard.  shard's low bit picks the kind.
func FuzzLeafANNRequest(f *testing.F) {
	kinds := []IndexKind{IndexHNSW, IndexIVFPQ}
	var shards []LeafData
	var queries [][]float32
	for _, kind := range kinds {
		data, qs := annShard(f, kind)
		shards, queries = append(shards, data), qs
	}
	for i := range kinds {
		for _, knobs := range [][3]int{{5, 0, 0}, {1 << 40, 0, 0}, {5, 1 << 40, 0}, {5, 0, 1 << 40}, {1 << 40, 1 << 40, 1 << 40}, {0, 0, 0}} {
			f.Add(uint8(i), annProbe(queries[0], knobs))
		}
		f.Add(uint8(i), annProbe(queries[1][:7], [3]int{5, 0, 0})) // a short query
		f.Add(uint8(i), []byte{})
	}
	eng := kernel.New(kernel.Config{})
	f.Fuzz(func(t *testing.T, shard uint8, payload []byte) {
		data := shards[shard&1]
		var reply wire.Encoder
		if err := leafANN(eng, data, payload, &reply); err != nil {
			return
		}
		got, err := DecodeNeighbors(reply.Bytes())
		if err != nil {
			t.Fatalf("undecodable reply: %v", err)
		}
		k := int(wire.NewDecoder(payload).Uvarint())
		if len(got) > max(k, 0) {
			t.Fatalf("%d neighbours for k = %d", len(got), k)
		}
		for _, nb := range got {
			if !slices.Contains(data.GlobalID, nb.PointID) {
				t.Fatalf("neighbour %d is not a point of the shard", nb.PointID)
			}
		}
	})
}
