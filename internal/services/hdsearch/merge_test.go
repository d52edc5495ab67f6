package hdsearch

import (
	"errors"
	"testing"

	"musuite/internal/core"
	"musuite/internal/rpc"
	"musuite/internal/wire"
)

// TestMergeMatchesClosureForm: the top-k merge, a package-level function
// handed its Ctx that reads k back from the request, answers the same leaf
// replies with the same bytes as the closure it replaced, which captured the
// k its handler decoded — k below, at and above the neighbours on offer, and
// a failed or garbled shard.
func TestMergeMatchesClosureForm(t *testing.T) {
	list := func(first uint32, dists ...float32) []byte {
		ns := make([]Neighbor, len(dists))
		for i, d := range dists {
			ns[i] = Neighbor{PointID: first + uint32(i), Distance: d}
		}
		return EncodeNeighbors(ns)
	}
	leaves := [][]byte{list(0, 0.5, 1, 4), list(100, 0.25, 1, 2, 8), list(200), list(300, 0.75, 3)}
	for _, tc := range []struct {
		name    string
		k       int
		replies [][]byte
	}{
		{"k=1", 1, leaves},
		{"k=5", 5, leaves},
		{"k=0 means 1", 0, leaves},
		{"k beyond the lists", 50, leaves},
		{"failed shard", 5, [][]byte{leaves[0], nil, leaves[2], leaves[3]}},
		{"garbled shard", 5, [][]byte{leaves[0], {9}, leaves[2], leaves[3]}},
	} {
		payload := EncodeSearchRequest([]float32{1, 2}, tc.k)
		closure := func(ctx *core.Ctx) func([]core.LeafResult) {
			_, k, err := DecodeSearchRequest(ctx.Req.Payload)
			if err != nil {
				t.Error(err)
			}
			k = max(k, 1)
			return func(results []core.LeafResult) { replyTopK(ctx, results, k) }
		}
		static, closed := mergeBothWays(t, tc.replies, payload, mergeTopK, closure)
		if static != closed {
			t.Errorf("%s: merged %q, the closure form %q", tc.name, static, closed)
		}
	}
}

// mergeBothWays answers one request through a mid-tier over len(replies)
// leaves, leaf i replying replies[i] to every call (failing it when
// replies[i] is nil), twice: merged by merge,
// handed its Ctx (FanoutAllTo), and by the closure form (FanoutAll through the
// adapter) that closure builds for the request's Ctx.  It returns what the
// front end received each time: the reply's bytes, or the error's text.
func mergeBothWays(t *testing.T, replies [][]byte, payload []byte, merge func(*core.Ctx, []core.LeafResult), closure func(*core.Ctx) func([]core.LeafResult)) (static, closed string) {
	t.Helper()
	addrs := make([]string, len(replies))
	for i, r := range replies {
		leaf := core.NewLeafEncoded(func(_ string, _ []byte, e *wire.Encoder) error {
			if r == nil {
				return errors.New("leaf failed")
			}
			e.Raw(r)
			return nil
		}, nil)
		addr, err := leaf.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(leaf.Close)
		addrs[i] = addr
	}
	mt := core.NewMidTier(func(ctx *core.Ctx) {
		if ctx.Req.Method == "static" {
			ctx.FanoutAllTo("canned", ctx.Req.Payload, merge)
			return
		}
		ctx.FanoutAll("canned", ctx.Req.Payload, closure(ctx))
	}, nil)
	t.Cleanup(mt.Close)
	if err := mt.ConnectLeaves(addrs); err != nil {
		t.Fatal(err)
	}
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	answer := func(method string) string {
		b, err := c.Call(method, payload)
		if err != nil {
			return "error: " + err.Error()
		}
		return string(b)
	}
	return answer("static"), answer("closure")
}
