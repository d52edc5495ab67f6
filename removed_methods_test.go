package musuite_test

import (
	"strings"
	"testing"
	"time"

	"musuite"
	"musuite/internal/core"
	"musuite/internal/rpc"
	"musuite/internal/services/recommend"
	"musuite/internal/services/router"
)

// TestRemovedMethodsRejected: router.delete and recommend.topn are no longer
// served.  Each is refused at the mid-tier with the tier's unknown-method
// error, promptly, the connection keeps serving, and nothing the refusal
// borrowed stays out: frame buffers, and request contexts (counted in a
// musuite_debug build).
func TestRemovedMethodsRejected(t *testing.T) {
	rc, err := musuite.StartRouterCluster(musuite.RouterClusterConfig{Leaves: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	corpus := musuite.NewRatingCorpus(musuite.RatingCorpusConfig{Users: 30, Items: 40, Ratings: 400, Rank: 3, Seed: 5})
	mc, err := musuite.StartRecommendCluster(musuite.RecommendClusterConfig{Corpus: corpus, Shards: 2, Rank: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	bufs, ctxs := rpc.BufsInUse(), core.ContextsInUse()
	for _, tc := range []struct {
		addr, method string
		payload      []byte
		served       string // a method the tier still serves, with its payload
		servedArg    []byte
	}{
		{rc.Addr, "router.delete", router.EncodeKey("k"), router.MethodGet, router.EncodeKey("k")},
		{mc.Addr, "recommend.topn", recommend.EncodePredictRequest(0, 5), recommend.MethodPredict, recommend.EncodePredictRequest(0, 1)},
	} {
		c, err := rpc.Dial(tc.addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		call := c.Go(tc.method, tc.payload, nil, nil)
		select {
		case <-call.Done:
		case <-time.After(3 * time.Second):
			t.Fatalf("%s: no reply after 3s", tc.method)
		}
		if want := "unknown method \"" + tc.method + "\""; call.Err == nil || !strings.Contains(call.Err.Error(), want) {
			t.Errorf("%s: err %v, want one naming %s", tc.method, call.Err, want)
		}
		call.Release()
		if _, err := c.Call(tc.served, tc.servedArg); err != nil {
			t.Errorf("%s after %s: %v", tc.served, tc.method, err)
		}
		c.Close()
	}
	// A tier releases its request's buffer and context just after it queues
	// the reply, so the counts fall back a moment after the caller has it.
	for _, held := range []struct {
		what string
		base int64
		read func() int64
	}{{"frame buffers", bufs, rpc.BufsInUse}, {"request contexts", ctxs, core.ContextsInUse}} {
		for deadline := time.Now().Add(2 * time.Second); held.read() > held.base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s in use: %d, want back at %d", held.what, held.read(), held.base)
			}
		}
	}
}
