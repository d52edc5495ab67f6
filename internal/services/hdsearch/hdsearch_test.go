package hdsearch

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/kernel"
	"musuite/internal/trace"
)

func testCorpus(t *testing.T) *dataset.ImageCorpus {
	t.Helper()
	return dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: 1200, Dim: 32, Clusters: 10, Noise: 0.12, Seed: 42,
	})
}

func startTestCluster(t *testing.T, corpus *dataset.ImageCorpus) *Cluster {
	t.Helper()
	return startShardedCluster(t, corpus, 4)
}

func startShardedCluster(t *testing.T, corpus *dataset.ImageCorpus, shards int) *Cluster {
	t.Helper()
	cl, err := StartCluster(ClusterConfig{
		Corpus:  corpus,
		Shards:  shards,
		MidTier: core.Options{Workers: 2, ResponseThreads: 2},
		Leaf:    core.LeafOptions{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestCodecsRoundTrip(t *testing.T) {
	q := []float32{1.5, -2, 0.25}
	b := EncodeSearchRequest(q, 7)
	gq, k, err := DecodeSearchRequest(b)
	if err != nil || k != 7 || len(gq) != 3 || gq[1] != -2 {
		t.Fatalf("search codec: %v %d %v", gq, k, err)
	}

	lb := EncodeLeafRequest(q, []uint32{3, 9}, 2)
	lq, ids, lk, err := DecodeLeafRequest(lb)
	if err != nil || lk != 2 || len(lq) != 3 || len(ids) != 2 || ids[1] != 9 {
		t.Fatalf("leaf codec: %v %v %d %v", lq, ids, lk, err)
	}

	ns := []Neighbor{{PointID: 5, Distance: 0.5}, {PointID: 1, Distance: 1.25}}
	gns, err := DecodeNeighbors(EncodeNeighbors(ns))
	if err != nil || len(gns) != 2 || gns[0] != ns[0] || gns[1] != ns[1] {
		t.Fatalf("neighbor codec: %v %v", gns, err)
	}
	// Empty list round-trips.
	empty, err := DecodeNeighbors(EncodeNeighbors(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty codec: %v %v", empty, err)
	}
	// Garbage is rejected, not panicked on.
	if _, err := DecodeNeighbors([]byte{0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEndToEndSearchExactTopK(t *testing.T) {
	corpus := testCorpus(t)
	cl := startTestCluster(t, corpus)
	client, err := DialClient(cl.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	queries := corpus.Queries(40, 7)
	const k = 5
	for qi, q := range queries {
		got, err := client.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatalf("query %d: empty result", qi)
		}
		if len(got) > k {
			t.Fatalf("query %d: %d results for k=%d", qi, len(got), k)
		}
		// Results must be distance-sorted and globally valid.
		for i := range got {
			if int(got[i].PointID) >= len(corpus.Vectors) {
				t.Fatalf("query %d: bogus point %d", qi, got[i].PointID)
			}
			if i > 0 && got[i].Distance < got[i-1].Distance {
				t.Fatalf("query %d: results unsorted", qi)
			}
			// Reported distance must match a recomputation.
			want := kernel.SquaredEuclidean(q, corpus.Vectors[got[i].PointID])
			if diff := got[i].Distance - want; diff > 1e-3 || diff < -1e-3 {
				t.Fatalf("query %d: distance %v, recomputed %v", qi, got[i].Distance, want)
			}
		}
	}
}

// TestAccuracyFloor reproduces the paper's tuning target: ≥93% accuracy
// (cosine similarity between reported and true NN) across queries.
func TestAccuracyFloor(t *testing.T) {
	corpus := testCorpus(t)
	cl := startTestCluster(t, corpus)
	client, err := DialClient(cl.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	queries := corpus.Queries(100, 9)
	sum := float32(0)
	for _, q := range queries {
		got, err := client.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		sum += cl.Accuracy(q, got)
	}
	mean := sum / float32(len(queries))
	if mean < 0.93 {
		t.Fatalf("mean accuracy %.3f < 0.93", mean)
	}
	t.Logf("mean accuracy %.4f", mean)
}

// TestRecallAgainstBruteForce: the end-to-end top-1 equals brute force for
// the overwhelming majority of queries.
func TestRecallAgainstBruteForce(t *testing.T) {
	corpus := testCorpus(t)
	cl := startTestCluster(t, corpus)
	client, err := DialClient(cl.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	queries := corpus.Queries(100, 11)
	hits := 0
	for _, q := range queries {
		got, err := client.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		truth := kernel.BruteForce(q, corpus.Vectors, 1)[0].ID
		if len(got) > 0 && got[0].PointID == truth {
			hits++
		}
	}
	if float64(hits)/float64(len(queries)) < 0.9 {
		t.Fatalf("recall@1 = %d/%d", hits, len(queries))
	}
}

func TestUnknownMethodsRejected(t *testing.T) {
	corpus := testCorpus(t)
	cl := startTestCluster(t, corpus)
	client, err := DialClient(cl.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, err = client.rpc.Call("bogus", nil)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err=%v", err)
	}
}

func TestMalformedQueryRejected(t *testing.T) {
	corpus := testCorpus(t)
	cl := startTestCluster(t, corpus)
	client, err := DialClient(cl.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.rpc.Call(MethodSearch, []byte{0x01}); err == nil {
		t.Fatal("malformed query accepted")
	}
}

func TestBuildIndexNoShards(t *testing.T) {
	if _, err := BuildIndex(nil, IndexConfig{}); err == nil {
		t.Fatal("no-shard index accepted")
	}
}

// TestLeafCallsIssuedInShardOrder: the mid-tier builds its leaf calls from
// per-shard lists, not by ranging over a map, so a traced request's client
// spans start in ascending shard order and two runs of one seed export
// traces that line up span for span.
func TestLeafCallsIssuedInShardOrder(t *testing.T) {
	corpus := testCorpus(t)
	rec := trace.NewRecorder("midtier", 1<<12)
	cl, err := StartCluster(ClusterConfig{
		Corpus:  corpus,
		Shards:  4,
		MidTier: core.Options{Workers: 2, ResponseThreads: 2, Spans: rec},
		Leaf:    core.LeafOptions{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	client, err := DialClient(cl.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const requests = 20
	for _, q := range corpus.Queries(requests, 23) {
		call := client.GoSpan(q, 5, trace.NewRootContext(), nil)
		<-call.Done
		if call.Err != nil {
			t.Fatal(call.Err)
		}
		call.Release()
	}
	// Client spans are recorded as replies land, all before the request's
	// own reply; the mid-tier's server span trails it.
	byTrace := make(map[trace.ID][]trace.Span)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		clear(byTrace)
		servers := 0
		for _, s := range rec.Snapshot() {
			if s.Kind == trace.KindClient && s.Name == MethodLeafKNN {
				byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
			} else if s.Kind == trace.KindServer {
				servers++
			}
		}
		if servers == requests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recorded %d of %d server spans", servers, requests)
		}
	}
	if len(byTrace) != requests {
		t.Fatalf("%d traces with leaf calls, want %d", len(byTrace), requests)
	}
	multi := 0
	for id, spans := range byTrace {
		slices.SortStableFunc(spans, func(a, b trace.Span) int { return int(a.Start - b.Start) })
		var order []string
		for _, s := range spans {
			order = append(order, s.Notes[len(s.Notes)-1]) // "shard=N", N < 10
		}
		if !slices.IsSorted(order) {
			t.Fatalf("trace %x issued its leaf calls in order %v", id, order)
		}
		if len(order) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no request fanned out to more than one shard: the order was never tested")
	}
}

// TestMidTiersOfDifferentWidthsShareAProcess: the handler's request scratch
// comes from a process-wide pool, so a 2-shard mid-tier is handed candidate
// lists a 7-shard one filled.  It must not issue leaf calls from them.
func TestMidTiersOfDifferentWidthsShareAProcess(t *testing.T) {
	corpus := testCorpus(t)
	queries := corpus.Queries(30, 29)
	for _, shards := range []int{7, 2, 7} {
		client, err := DialClient(startShardedCluster(t, corpus, shards).Addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if ns, err := client.Search(q, 5); err != nil || len(ns) == 0 {
				t.Fatalf("%d shards: %d neighbours, err %v", shards, len(ns), err)
			}
		}
		client.Close()
	}
}

// FuzzDecodeNeighbors: whatever bytes come back as a reply, decoding them
// sizes nothing from a count the bytes behind it do not bear out — every
// neighbour costs the reply eight bytes — stops at the first error, and
// yields exactly what a well-formed reply encodes.  The first two seeds are
// the defect: a five-byte reply whose count of 2²⁵ used to size 268 MB of
// zero neighbours, and a count of 1000 over a single entry.
func FuzzDecodeNeighbors(f *testing.F) {
	f.Add([]byte{0x80, 0x80, 0x80, 0x10, 0x00})
	f.Add(append([]byte{0xe8, 0x07}, make([]byte, 8)...))
	f.Add(EncodeNeighbors(nil))
	f.Add(EncodeNeighbors([]Neighbor{{PointID: 5, Distance: 0.5}, {PointID: 1, Distance: 1.25}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		keep := []Neighbor{{PointID: 77, Distance: 7}}
		got, err := DecodeNeighborsInto(keep, b)
		if len(got) < 1 || got[0] != keep[0] {
			t.Fatalf("the caller's entries were disturbed: %v", got)
		}
		// slices.Grow may round the one growth up to a size class.
		if room := 1 + len(b)/8; cap(got) > 2*room+8 {
			t.Fatalf("%d bytes sized room for %d neighbours", len(b), cap(got))
		}
		if err != nil {
			if len(got) != 1 {
				t.Fatalf("a reply refused with %v still appended %d neighbours", err, len(got)-1)
			}
			return
		}
		// Compared as bytes: a distance may be a NaN.
		canon := EncodeNeighbors(got[1:])
		again, err := DecodeNeighbors(canon)
		if err != nil || !bytes.Equal(EncodeNeighbors(again), canon) {
			t.Fatalf("decoded %v, which round-trips to %v, %v", got[1:], again, err)
		}
	})
}
