package router

import (
	"errors"
	"testing"

	"musuite/internal/core"
	"musuite/internal/rpc"
	"musuite/internal/wire"
)

// TestMergeMatchesClosureForm: each Router merge, a package-level function
// handed its Ctx, answers the same leaf replies with the same bytes as the
// closure it replaced, which captured ctx (its body kept here as it was).
func TestMergeMatchesClosureForm(t *testing.T) {
	closureSet := func(ctx *core.Ctx) func([]core.LeafResult) {
		return func(results []core.LeafResult) {
			for _, r := range results {
				if r.Err != nil {
					ctx.ReplyError(r.Err)
					return
				}
			}
			ctx.Reply(nil)
		}
	}
	closureGet := func(ctx *core.Ctx) func([]core.LeafResult) {
		return func(results []core.LeafResult) {
			r := results[0]
			if r.Err != nil {
				ctx.ReplyError(r.Err)
				return
			}
			ctx.Reply(r.Reply)
		}
	}
	for _, tc := range []struct {
		name    string
		merge   func(*core.Ctx, []core.LeafResult)
		closure func(*core.Ctx) func([]core.LeafResult)
		replies [][]byte
	}{
		{"get hit", mergeGet, closureGet, [][]byte{EncodeGetResponse(true, []byte("value"))}},
		{"get miss", mergeGet, closureGet, [][]byte{EncodeGetResponse(false, nil)}},
		{"get failed", mergeGet, closureGet, [][]byte{nil}},
		{"set", mergeSet, closureSet, [][]byte{{}, {}}},
		{"set half failed", mergeSet, closureSet, [][]byte{{}, nil}},
	} {
		static, closed := mergeBothWays(t, tc.replies, EncodeKey("k"), tc.merge, tc.closure)
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
