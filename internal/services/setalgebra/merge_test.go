package setalgebra

import (
	"errors"
	"testing"

	"musuite/internal/core"
	"musuite/internal/rpc"
	"musuite/internal/wire"
)

// TestMergeMatchesClosureForm: the union, a package-level function handed its
// Ctx, answers the same leaf replies with the same bytes as the closure it
// replaced, which captured ctx — sparse and dense ID sets, an empty one, and a
// failed or garbled shard.
func TestMergeMatchesClosureForm(t *testing.T) {
	closure := func(ctx *core.Ctx) func([]core.LeafResult) {
		return func(results []core.LeafResult) {
			e := wire.GetEncoder()
			defer wire.PutEncoder(e)
			if err := unionEncoded(results, e); err != nil {
				ctx.ReplyError(err)
				return
			}
			ctx.Reply(e.Bytes())
		}
	}
	ids := func(from, to, step uint32) []byte {
		var list []uint32
		for id := from; id < to; id += step {
			list = append(list, id)
		}
		b, err := EncodeDocIDs(list)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name    string
		replies [][]byte
	}{
		{"sparse", [][]byte{ids(3, 900, 97), ids(5, 900, 89), ids(0, 0, 1), ids(7, 5000, 301)}},
		{"dense", [][]byte{ids(0, 4096, 2), ids(1, 4096, 3), ids(64, 640, 1), ids(0, 0, 1)}},
		{"mixed", [][]byte{ids(0, 2048, 1), ids(3, 90000, 997), ids(0, 0, 1), ids(2048, 2200, 5)}},
		{"failed shard", [][]byte{ids(0, 64, 1), nil, ids(0, 0, 1), ids(1, 9, 2)}},
		{"garbled shard", [][]byte{ids(0, 64, 1), {0xff, 0xff}, ids(0, 0, 1), ids(1, 9, 2)}},
	} {
		static, closed := mergeBothWays(t, tc.replies, EncodeTerms([]int{1, 2}), mergeUnion, closure)
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
