package router

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"musuite/internal/core"
	"musuite/internal/memcache"
	"musuite/internal/rpc"
	"musuite/internal/wire"
)

// warmCluster starts the benchmark's Router shape (4 leaves × 2 replicas,
// default options), stores one key and issues 500 calls so that every pool
// on the path — calls, frame buffers, encoders, fan-outs — is populated.
func warmCluster(t testing.TB) (client *Client, key string, value []byte) {
	t.Helper()
	cl, err := StartCluster(ClusterConfig{Leaves: 4, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	client, err = DialClient(cl.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	key, value = "key:00000042", bytes.Repeat([]byte("v"), 1024)
	for i := 0; i < 250; i++ {
		if err := client.Set(key, value); err != nil {
			t.Fatal(err)
		}
		if got, found, err := client.Get(key); err != nil || !found || !bytes.Equal(got, value) {
			t.Fatalf("warm-up get: found=%v err=%v", found, err)
		}
	}
	return client, key, value
}

// TestSetAllocs pins what a 1 KiB set of a resident key allocates across all
// three tiers.  AllocsPerRun counts the whole process, so the bound is the
// request's end-to-end figure, the benchmark's allocs_per_req.  Nothing
// remains (DESIGN §5.3 "What a request allocates"): every per-request object
// comes from a pool and goes back to it — the Requests of the mid-tier and
// both leaves, the mid-tier's Ctx, its fan-out, the frame buffers and
// encoders — and the merge is a package-level function, not a closure.  The client encodes into a pooled encoder and the
// reply is empty; the mid-tier forwards the payload it received; the leaf
// overwrites the resident entry in place.  The bound leaves room for a
// background allocation (a timer, a pool refill after a GC) landing inside
// the measured runs.
func TestSetAllocs(t *testing.T) {
	skipIfPoolsDropPuts(t)
	client, key, value := warmCluster(t)
	got := testing.AllocsPerRun(200, func() {
		if err := client.Set(key, value); err != nil {
			t.Error(err)
		}
	})
	t.Logf("set: %.2f allocs", got)
	if got > 1 {
		t.Errorf("a 1 KiB set of a resident key allocates %.2f times end to end, want ≤ 1 (nothing, plus one; 5 before Requests and contexts were pooled, 1 while the merge was a closure)", got)
	}
}

// TestGetAllocs pins a get's allocations the same way.  What remains: the
// value Get returns — the caller's own copy, decoded out of the reply's
// pooled buffer.
func TestGetAllocs(t *testing.T) {
	skipIfPoolsDropPuts(t)
	client, key, _ := warmCluster(t)
	got := testing.AllocsPerRun(200, func() {
		if _, found, err := client.Get(key); err != nil || !found {
			t.Errorf("get: found=%v err=%v", found, err)
		}
	})
	t.Logf("get: %.2f allocs", got)
	if got > 2 {
		t.Errorf("a get allocates %.2f times end to end, want ≤ 2 (the caller's value, plus one)", got)
	}
}

// TestClientReturnsWhatItBorrows: the typed client's synchronous calls put
// their request encoder and the reply's frame buffer back, every tier
// returns the Requests and contexts it served them with, and every reader
// its read buffer.
func TestClientReturnsWhatItBorrows(t *testing.T) {
	client, key, value := warmCluster(t)
	bufs, encs, reqs, ctxs, readBufs := rpc.BufsInUse(), wire.EncodersInUse(), rpc.RequestsInUse(), core.ContextsInUse(), rpc.ReadBufsInUse()
	for i := 0; i < 100; i++ {
		if err := client.Set(key, value); err != nil {
			t.Fatal(err)
		}
		if _, _, err := client.Get(key); err != nil {
			t.Fatal(err)
		}
		if _, _, err := client.Get(fmt.Sprintf("absent:%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// The last reply is in the caller's hands only after every tier has
	// handed its own buffers back except the mid-tier's and leaves' request
	// buffers, which are released right after the reply is queued.
	waitFlat(t, "frame buffers", bufs, rpc.BufsInUse)
	waitFlat(t, "encoders", encs, wire.EncodersInUse)
	// Every tier recycles its Requests and contexts (counted in a
	// musuite_debug build, zero otherwise) just after its reply too.
	waitFlat(t, "requests", reqs, rpc.RequestsInUse)
	waitFlat(t, "request contexts", ctxs, core.ContextsInUse)
	waitFlat(t, "read buffers", readBufs, rpc.ReadBufsInUse)
}

// TestLeafKeepsNoViewOfTheRequest: the leaf looks keys up through a view of
// the request bytes, so the store must own the key it inserts — scribbling
// over the request afterwards changes nothing.
func TestLeafKeepsNoViewOfTheRequest(t *testing.T) {
	store := memcache.New(memcache.Config{})
	reply := wire.NewEncoder(64)
	req := EncodeKeyValue("alpha", []byte("one"))
	if err := applyOp(store, MethodSet, req, reply); err != nil {
		t.Fatal(err)
	}
	for i := range req {
		req[i] = 'x'
	}
	if v, ok := store.Get("alpha"); !ok || string(v) != "one" {
		t.Fatalf("after the request buffer was reused the store holds %q (present=%v), want \"one\"", v, ok)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d items, want 1", store.Len())
	}
}

// skipIfPoolsDropPuts skips a test that counts a pooled path's allocations
// when sync.Pool does not hand back what it was just given: under the race
// detector it drops a quarter of all Puts on purpose, and a musuite_debug
// build's loud pools reuse nothing.
func skipIfPoolsDropPuts(t *testing.T) {
	t.Helper()
	if rpc.LoudPools {
		t.Skip("pools are loud (musuite_debug): nothing is reused")
	}
	news := 0
	p := sync.Pool{New: func() any { news++; return new(int) }}
	for i := 0; i < 200; i++ {
		p.Put(p.Get())
	}
	if news > 2 {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
}

// waitFlat waits for a process-wide pool count to fall back to base (tiers
// release their buffers on their own threads, just after the reply is sent).
func waitFlat(t *testing.T, what string, base int64, read func() int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for read() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s in use: %d, want back at %d", what, read(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
