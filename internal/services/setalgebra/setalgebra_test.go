package setalgebra

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/postlist"
	"musuite/internal/wire"
)

func testCorpus(t *testing.T) *dataset.DocCorpus {
	t.Helper()
	return dataset.NewDocCorpus(dataset.DocCorpusConfig{
		Docs: 600, VocabSize: 1500, MeanDocLen: 70, Seed: 11,
	})
}

func startTestCluster(t *testing.T, corpus *dataset.DocCorpus) (*Cluster, *Client) {
	t.Helper()
	cl, err := StartCluster(ClusterConfig{
		Corpus:  corpus,
		Shards:  4,
		MidTier: core.Options{Workers: 2, ResponseThreads: 2},
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
	t.Cleanup(func() { client.Close() })
	return cl, client
}

func TestCodecs(t *testing.T) {
	terms, err := DecodeTerms(EncodeTerms([]int{3, 0, 99999}))
	if err != nil || len(terms) != 3 || terms[2] != 99999 {
		t.Fatalf("terms codec: %v %v", terms, err)
	}
	empty, err := DecodeTerms(EncodeTerms(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty terms: %v %v", empty, err)
	}
	enc, err := EncodeDocIDs([]uint32{1, 2, 300})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := DecodeDocIDs(enc)
	if err != nil || !slices.Equal(ids, []uint32{1, 2, 300}) {
		t.Fatalf("ids codec: %v %v", ids, err)
	}
	if _, err := EncodeDocIDs([]uint32{2, 2}); err == nil {
		t.Fatal("a duplicate ID encoded")
	}
	if _, err := DecodeTerms([]byte{0xFF}); err == nil {
		t.Fatal("garbage terms accepted")
	}
}

func TestShardCorpusCoversAllDocs(t *testing.T) {
	corpus := testCorpus(t)
	shards := ShardCorpus(corpus, 4, 5)
	seen := make(map[uint32]bool)
	for _, sh := range shards {
		if sh.Index.Docs() != len(sh.GlobalID) {
			t.Fatal("index doc count mismatches global map")
		}
		for _, gid := range sh.GlobalID {
			if seen[gid] {
				t.Fatalf("doc %d in two shards", gid)
			}
			seen[gid] = true
		}
	}
	if len(seen) != len(corpus.Docs) {
		t.Fatalf("sharded %d of %d docs", len(seen), len(corpus.Docs))
	}
}

// referenceSearch computes ground truth: docs containing every query term,
// with terms stop-listed per shard exactly as the service does.
func referenceSearch(corpus *dataset.DocCorpus, shards []LeafData, terms []int) []uint32 {
	var out []uint32
	for _, sh := range shards {
		var live []int
		for _, term := range terms {
			if !sh.Index.IsStopWord(term) {
				live = append(live, term)
			}
		}
		if len(live) == 0 {
			continue
		}
		for local, gid := range sh.GlobalID {
			_ = local
			has := make(map[int]bool)
			for _, w := range corpus.Docs[gid] {
				has[w] = true
			}
			all := true
			for _, term := range live {
				if !has[term] {
					all = false
					break
				}
			}
			if all {
				out = append(out, gid)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestEndToEndMatchesReference(t *testing.T) {
	corpus := testCorpus(t)
	cl, client := startTestCluster(t, corpus)
	queries := corpus.Queries(60, 5, 13)
	for qi, q := range queries {
		got, err := client.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceSearch(corpus, cl.Shards, q)
		if len(got) != len(want) {
			t.Fatalf("query %d (%v): got %d docs want %d", qi, q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: doc %d is %d want %d", qi, i, got[i], want[i])
			}
		}
	}
}

func TestResultsSortedAndUnique(t *testing.T) {
	corpus := testCorpus(t)
	_, client := startTestCluster(t, corpus)
	for _, q := range corpus.Queries(40, 4, 17) {
		got, err := client.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("unsorted/duplicate results: %v", got)
			}
		}
	}
}

func TestSingleTermQueryReturnsAllContainingDocs(t *testing.T) {
	corpus := testCorpus(t)
	cl, client := startTestCluster(t, corpus)
	// Pick a moderately common non-stop term from shard 0's index.
	term := -1
	for w := 0; w < corpus.VocabSize; w++ {
		stopped := false
		indexedSomewhere := false
		for _, sh := range cl.Shards {
			if sh.Index.IsStopWord(w) {
				stopped = true
			}
			if sh.Index.Postings(w) != nil {
				indexedSomewhere = true
			}
		}
		if !stopped && indexedSomewhere {
			term = w
			break
		}
	}
	if term < 0 {
		t.Skip("no suitable term")
	}
	got, err := client.Search([]int{term})
	if err != nil {
		t.Fatal(err)
	}
	want := referenceSearch(corpus, cl.Shards, []int{term})
	if len(got) != len(want) {
		t.Fatalf("got %d want %d", len(got), len(want))
	}
}

func TestEmptyAndStopOnlyQueries(t *testing.T) {
	corpus := testCorpus(t)
	cl, client := startTestCluster(t, corpus)
	got, err := client.Search(nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty query: %v %v", got, err)
	}
	// Find a term stop-listed on every shard (the globally hottest word
	// is typically stopped everywhere).
	for w := 0; w < corpus.VocabSize; w++ {
		all := true
		for _, sh := range cl.Shards {
			if !sh.Index.IsStopWord(w) {
				all = false
				break
			}
		}
		if all {
			got, err := client.Search([]int{w})
			if err != nil || len(got) != 0 {
				t.Fatalf("stop-only query: %v %v", got, err)
			}
			return
		}
	}
	t.Log("no universally stopped term; skipping stop-only case")
}

func TestUnknownTermMatchesNothing(t *testing.T) {
	corpus := testCorpus(t)
	_, client := startTestCluster(t, corpus)
	got, err := client.Search([]int{corpus.VocabSize + 100})
	if err != nil || len(got) != 0 {
		t.Fatalf("unknown term: %v %v", got, err)
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	corpus := testCorpus(t)
	_, client := startTestCluster(t, corpus)
	if _, err := client.rpc.Call("setalgebra.phrase", nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err=%v", err)
	}
}

func TestMalformedQueryRejected(t *testing.T) {
	corpus := testCorpus(t)
	_, client := startTestCluster(t, corpus)
	if _, err := client.rpc.Call(MethodSearch, []byte{0xFF}); err == nil {
		t.Fatal("malformed query accepted")
	}
}

// TestCheckTermsAgreesWithDecodeTerms: the walk that keeps nothing accepts
// exactly the queries the decoder accepts — every prefix of a valid query, a
// count with no terms behind it, an overlong varint — and allocates nothing.
func TestCheckTermsAgreesWithDecodeTerms(t *testing.T) {
	valid := EncodeTerms([]int{3, 0, 99999, 1 << 40})
	inputs := [][]byte{nil, {0xFF}, {5}, {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1}}
	for cut := 0; cut <= len(valid); cut++ {
		inputs = append(inputs, valid[:cut])
	}
	for _, in := range inputs {
		_, decodeErr := DecodeTerms(in)
		if checkErr := CheckTerms(in); (checkErr == nil) != (decodeErr == nil) {
			t.Errorf("%x: CheckTerms says %v, DecodeTerms %v", in, checkErr, decodeErr)
		}
	}
	if err := CheckTerms(valid); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { CheckTerms(valid) }); allocs != 0 {
		t.Fatalf("CheckTerms allocates %v times", allocs)
	}
	// A count is not believed beyond the bytes behind it.
	lie := []byte{0xFF, 0xFF, 0xFF, 0x0F, 1}
	if allocs := testing.AllocsPerRun(10, func() { DecodeTerms(lie) }); allocs != 0 {
		t.Fatalf("DecodeTerms sized %v allocations from a count it then rejected", allocs)
	}
}

// TestShardCorpusGlobalIDsAscend: every shard's local→global map ascends
// strictly, which is all that stands between the leaf's one-pass map-and-gap
// encode and an unsorted reply; and a LeafData whose map does not ascend fails
// the request, it does not answer wrongly.
func TestShardCorpusGlobalIDsAscend(t *testing.T) {
	corpus := testCorpus(t)
	for _, n := range []int{1, 3, 4, 7} {
		for s, sh := range ShardCorpus(corpus, n, 5) {
			for local := 1; local < len(sh.GlobalID); local++ {
				if sh.GlobalID[local] <= sh.GlobalID[local-1] {
					t.Fatalf("%d shards, shard %d: global ID %d follows %d at local %d",
						n, s, sh.GlobalID[local], sh.GlobalID[local-1], local)
				}
			}
		}
	}
	// Reversed, the map's ends give it away and the gap form fails; with two
	// of the longest term's documents swapped, the ends still ascend and the
	// reply is a bitmap until the loop meets the swap.
	sh := ShardCorpus(corpus, 4, 5)[0]
	term := longestTerm(corpus, sh)
	swapped := slices.Clone(sh.GlobalID)
	docs := sh.Index.Postings(term).IDs()
	a, b := docs[len(docs)/2], docs[len(docs)/2+1]
	swapped[a], swapped[b] = swapped[b], swapped[a]
	reversed := slices.Clone(sh.GlobalID)
	slices.Reverse(reversed)
	for name, m := range map[string][]uint32{"descending": reversed, "swapped": swapped} {
		var reply wire.Encoder
		if err := intersectEncoded(LeafData{Index: sh.Index, GlobalID: m}, EncodeTerms([]int{term}), &reply); err == nil || reply.Len() != 0 {
			t.Fatalf("a %s map answered (err %v, %d reply bytes)", name, err, reply.Len())
		}
	}
}

// longestTerm returns the indexed term with the longest posting list on sh.
func longestTerm(corpus *dataset.DocCorpus, sh LeafData) int {
	best, n := -1, 0
	for w := 0; w < corpus.VocabSize; w++ {
		if p := sh.Index.Postings(w); p != nil && p.Len() > n {
			best, n = w, p.Len()
		}
	}
	return best
}

// TestResultPathSteadyStateAllocatesNothing: on warmed pooled scratch a leaf
// intersects and encodes, and the mid-tier decodes, unions and re-encodes,
// without allocating — for a one-term query (the longest reply, which both
// hops send as a bitmap) and for multi-term ones.
func TestResultPathSteadyStateAllocatesNothing(t *testing.T) {
	// Under the race detector sync.Pool drops a quarter of all Puts on
	// purpose, and a pooled path's allocation count says nothing about it.
	news := 0
	probe := sync.Pool{New: func() any { news++; return new(int) }}
	for i := 0; i < 200; i++ {
		probe.Put(probe.Get())
	}
	if news > 2 {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	corpus := testCorpus(t)
	shards := ShardCorpus(corpus, 4, 5)
	queries := append(corpus.Queries(16, 6, 21), []int{longestTerm(corpus, shards[0])})
	for qi, q := range queries {
		payload := EncodeTerms(q)
		results := make([]core.LeafResult, len(shards))
		var leafReply, reply wire.Encoder
		for s, sh := range shards {
			leafReply.Reset()
			if err := intersectEncoded(sh, payload, &leafReply); err != nil {
				t.Fatal(err)
			}
			results[s] = core.LeafResult{Shard: s, Reply: slices.Clone(leafReply.Bytes())}
			if allocs := testing.AllocsPerRun(20, func() {
				leafReply.Reset()
				intersectEncoded(sh, payload, &leafReply)
			}); allocs != 0 {
				t.Errorf("query %v, shard %d: %v allocations per intersectEncoded", q, s, allocs)
			}
		}
		if err := unionEncoded(results, &reply); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			reply.Reset()
			unionEncoded(results, &reply)
		}); allocs != 0 {
			t.Errorf("query %v: %v allocations per unionEncoded", q, allocs)
		}
		// And the bytes are the answer.
		got, err := DecodeDocIDs(reply.Bytes())
		if want := referenceSearch(corpus, shards, q); err != nil || !slices.Equal(got, want) {
			t.Errorf("query %v: got %v (%v), want %v", q, got, err, want)
		}
		if qi == len(queries)-1 && (!isBitmap(results[0].Reply) || !isBitmap(reply.Bytes())) {
			t.Errorf("query %v: the longest reply did not take the bitmap path", q)
		}
	}
}

// isBitmap reports whether an ID-set field is in the bitmap form.
func isBitmap(b []byte) bool { return len(b) > 1 && b[0] == 0 }

// bitmapSeeds are bitmap-form replies for the fuzzers to start from: a valid
// one, and one of each kind the decoders must refuse.
func bitmapSeeds() [][]byte {
	header := func(n, base, size uint64, words ...uint64) []byte {
		var e wire.Encoder
		e.Uint8(0)
		e.Uint8(1)
		e.Uvarint(n)
		e.Uvarint(base)
		e.Uvarint(size)
		for _, w := range words {
			e.Uint64(w)
		}
		return e.Bytes()
	}
	return [][]byte{
		header(6, 3, 16, 0xF0, 0x3),
		header(5, 3, 16, 0xF0, 0x3),                   // popcount ≠ n
		header(4, 3, 16, 0, 0xF),                      // a zero first word
		header(4, 3, 16, 0xF, 0),                      // a zero last word
		header(4, 3, 1<<20, 0xF),                      // a word count past the payload
		header(4, 1<<26, 8, 0xF),                      // a base word past 2²⁶
		header(64, 1<<26-1, 8, math.MaxUint64),        // the last word of the ID space
		header(10, 1<<20, 16, math.MaxUint8, 1<<63|1), // far from the others
	}
}

// FuzzDocIDsDecode: no reply — valid in either form, cut short, with a zero
// gap, with a gap that carries past uint32, with a count it has not the bytes
// for, a bitmap whose popcount is not its count, whose first or last word is
// empty, whose words run past the payload or the ID space — panics the
// front-end decoder or makes it allocate more than eight IDs (32 B) per input
// byte (one bitmap byte names eight), and whatever it accepts ascends strictly
// and survives a round trip.
func FuzzDocIDsDecode(f *testing.F) {
	valid, _ := EncodeDocIDs([]uint32{0, 1, 200, 70000, 1 << 31, math.MaxUint32})
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	f.Add([]byte{0})
	f.Add([]byte{3, 5, 0, 1})                         // zero gap
	f.Add([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1}) // carries past uint32
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 1, 1})    // 2²⁸ IDs claimed
	for _, seed := range bitmapSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, reply []byte) {
		ids, err := DecodeDocIDs(reply)
		// The one slice the decode makes holds at most eight IDs per input
		// byte (size classes round a small one up).
		if 4*cap(ids) > 32*len(reply)+64 {
			t.Fatalf("decoding %d bytes made a slice of %d IDs", len(reply), cap(ids))
		}
		if err != nil {
			if len(ids) != 0 {
				t.Fatalf("an error (%v) came with %d IDs", err, len(ids))
			}
			return
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("accepted %d after %d", ids[i], ids[i-1])
			}
		}
		again, err := EncodeDocIDs(ids)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := DecodeDocIDs(again); err != nil || !slices.Equal(back, ids) {
			t.Fatalf("re-encoded reply decodes to %v (%v), want %v", back, err, ids)
		}
	})
}

// FuzzUnionDecode: no set of leaf replies the mid-tier did not encode — the
// fuzzer's bytes in either form, mixed — panics its union or makes it size
// anything from a count the bytes do not back; it fails exactly when one of
// the replies does not decode, and what it accepts is the union of what the
// front end decodes from each reply.
func FuzzUnionDecode(f *testing.F) {
	gap, _ := EncodeDocIDs([]uint32{5, 200, 201, 202, 70000})
	dense, _ := EncodeDocIDs([]uint32{192, 193, 194, 195, 200, 250, 255})
	seeds := append(bitmapSeeds(), gap, dense, []byte{0}, nil)
	for i, a := range seeds {
		f.Add(a, seeds[(i+1)%len(seeds)], seeds[(i+3)%len(seeds)], dense)
	}
	f.Fuzz(func(t *testing.T, a, b, c, d []byte) {
		replies := [][]byte{a, b, c, d}
		results := make([]core.LeafResult, len(replies))
		for s, r := range replies {
			results[s] = core.LeafResult{Shard: s, Reply: r}
		}
		var reply wire.Encoder
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := unionEncoded(results, &reply)
		runtime.ReadMemStats(&after)
		in := len(a) + len(b) + len(c) + len(d)
		// Scratch for every ID (≤ 8 a byte), a second copy for the merge, and
		// the reply; a word past the bytes would show as megabytes.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(256*in+1<<16) {
			t.Fatalf("a union of %d reply bytes allocated %d bytes", in, grew)
		}
		var decoded [][]uint32
		var decodeErr error
		for _, r := range replies {
			ids, err := DecodeDocIDs(r)
			decodeErr = errors.Join(decodeErr, err)
			decoded = append(decoded, ids)
		}
		if (err == nil) != (decodeErr == nil) {
			t.Fatalf("the union says %v, the replies' decode %v", err, decodeErr)
		}
		if err != nil {
			return
		}
		got, err := DecodeDocIDs(reply.Bytes())
		if want := postlist.MergeSortedInto(nil, decoded); err != nil || !slices.Equal(got, want) {
			t.Fatalf("union decodes to %d IDs (%v), want %d", len(got), err, len(want))
		}
	})
}
