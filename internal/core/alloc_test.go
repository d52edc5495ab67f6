package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"musuite/internal/rpc"
	"musuite/internal/wire"
)

// TestFanoutAllToAllocatesNothing: a request through a mid-tier that
// broadcasts to three echo leaves with FanoutAllTo and a package-level merge
// allocates nothing end to end — client, mid-tier and leaves in one process,
// AllocsPerRun counting them all.  The client borrows its call and the reply's
// buffer and hands both back, so it keeps nothing either; the Requests, the
// Ctx, the fan-out and the frame buffers all come from pools, and a merge
// that captures nothing costs nothing to pass.
func TestFanoutAllToAllocatesNothing(t *testing.T) {
	if !poolsKeepPuts() {
		t.Skip("pools drop Puts (race detector) or reuse nothing (musuite_debug)")
	}
	addrs := make([]string, 3)
	for i := range addrs {
		leaf := NewLeafEncoded(func(_ string, payload []byte, e *wire.Encoder) error {
			e.Raw(payload)
			return nil
		}, nil)
		addr, err := leaf.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(leaf.Close)
		addrs[i] = addr
	}
	mt := NewMidTier(func(ctx *Ctx) {
		ctx.FanoutAllTo("echo", ctx.Req.Payload, replyAgreedEcho)
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
	t.Cleanup(func() { c.Close() })
	payload := []byte("a payload every leaf echoes")
	request := func() {
		call := c.Go("bcast", payload, nil, nil)
		<-call.Done
		if call.Err != nil || !bytes.Equal(call.Reply, payload) {
			t.Errorf("reply %q, %v; want the payload echoed", call.Reply, call.Err)
		}
		call.Release()
	}
	for i := 0; i < 500; i++ {
		request()
	}
	if got := testing.AllocsPerRun(200, request); got != 0 {
		t.Errorf("a FanoutAllTo request allocates %.2f times end to end, want 0", got)
	}
}

// replyAgreedEcho answers with the leaves' common reply, or an error when
// they disagree.
func replyAgreedEcho(ctx *Ctx, results []LeafResult) {
	for _, r := range results {
		if r.Err != nil {
			ctx.ReplyError(r.Err)
			return
		}
		if !bytes.Equal(r.Reply, results[0].Reply) {
			ctx.ReplyError(errors.New("leaves disagree"))
			return
		}
	}
	ctx.Reply(results[0].Reply)
}

// poolsKeepPuts reports whether the pools hand back what they were just
// given: under the race detector sync.Pool drops a quarter of all Puts on
// purpose, and a musuite_debug build's loud pools reuse nothing.
func poolsKeepPuts() bool {
	if rpc.LoudPools {
		return false
	}
	news := 0
	p := sync.Pool{New: func() any { news++; return new(int) }}
	for i := 0; i < 200; i++ {
		p.Put(p.Get())
	}
	return news <= 2
}
