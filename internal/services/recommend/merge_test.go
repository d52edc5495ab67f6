package recommend

import (
	"errors"
	"testing"

	"musuite/internal/core"
	"musuite/internal/rpc"
	"musuite/internal/wire"
)

// TestMergeMatchesClosureForm: Recommend's merge, a package-level function
// handed its Ctx, answers the same leaf replies with the same bytes as the
// closure it replaced (its body kept here as it was).
func TestMergeMatchesClosureForm(t *testing.T) {
	predict := func(ctx *core.Ctx) func([]core.LeafResult) {
		return func(results []core.LeafResult) {
			var sum float64
			var n int
			for _, r := range results {
				if r.Err != nil {
					ctx.ReplyError(r.Err)
					return
				}
				rating, ok, err := DecodePredictResponse(r.Reply)
				if err != nil {
					ctx.ReplyError(err)
					return
				}
				if ok {
					sum += rating
					n++
				}
			}
			e := wire.GetEncoder()
			if n == 0 {
				e.Bool(false)
				e.Float64(0)
			} else {
				e.Bool(true)
				e.Float64(sum / float64(n))
			}
			ctx.Reply(e.Bytes())
			wire.PutEncoder(e)
		}
	}
	rating := func(ok bool, r float64) []byte {
		e := wire.NewEncoder(9)
		e.Bool(ok)
		e.Float64(r)
		return e.Bytes()
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		merge   func(*core.Ctx, []core.LeafResult)
		closure func(*core.Ctx) func([]core.LeafResult)
		replies [][]byte
	}{
		{"predict", EncodePredictRequest(3, 4), replyPredict, predict, [][]byte{rating(true, 4), rating(false, 0), rating(true, 2.5), rating(true, 1)}},
		{"predict unrated", EncodePredictRequest(3, 4), replyPredict, predict, [][]byte{rating(false, 0), rating(false, 0)}},
		{"predict garbled", EncodePredictRequest(3, 4), replyPredict, predict, [][]byte{rating(true, 4), {1}}},
	} {
		static, closed := mergeBothWays(t, tc.replies, tc.payload, tc.merge, tc.closure)
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
