package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"musuite/internal/rpc"
)

// pooledCounts is what the pools report in use: Requests handed to handlers
// and not recycled, contexts taken and not returned (both zero outside a
// musuite_debug build), and read buffers borrowed (counted in every build).
type pooledCounts struct{ reqs, ctxs, readBufs int64 }

func pooledNow() pooledCounts {
	return pooledCounts{reqs: rpc.RequestsInUse(), ctxs: ContextsInUse(), readBufs: rpc.ReadBufsInUse()}
}

// waitPooledBack waits for the pool counts to fall back to base: a tier
// returns its Request and Ctx a moment after the reply, on whichever thread
// drops the last hold, and a reader returns its read buffer before it
// delivers or parks.
func waitPooledBack(t *testing.T, base pooledCounts) {
	t.Helper()
	waitFor(t, "every Request to be recycled", func() bool { return rpc.RequestsInUse() <= base.reqs })
	waitFor(t, "every Ctx to be returned", func() bool { return ContextsInUse() <= base.ctxs })
	waitFor(t, "every read buffer to be returned", func() bool { return rpc.ReadBufsInUse() <= base.readBufs })
}

// TestEdgeAfterReplyPinsNothing: a handler that resolves a named edge after
// it has replied gets an error, and no snapshot pin is left behind for a
// drain of that edge to wait on.
func TestEdgeAfterReplyPinsNothing(t *testing.T) {
	base := pooledNow()
	edgeErr := make(chan error, 1)
	mt := NewMidTier(func(ctx *Ctx) {
		ctx.Reply(nil)
		_, err := ctx.Edge("side")
		edgeErr <- err
	}, nil)
	a, _ := startLeaf(t, nil)
	b, _ := startLeaf(t, nil)
	if err := mt.ConnectEdge("side", [][]string{{a}, {b}}, EdgePolicy{}); err != nil {
		t.Fatal(err)
	}
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mt.Close)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("q", nil); err != nil {
		t.Fatal(err)
	}
	if err := <-edgeErr; err == nil {
		t.Error("Edge after the reply resolved the edge; want an error")
	}
	if err := mt.edges["side"].topo.DrainGroup(1, 300*time.Millisecond); err != nil {
		t.Fatalf("drain after a post-reply Edge: %v", err)
	}
	c.Close()
	mt.Close()
	waitPooledBack(t, base)
}

// TestPooledContextsUnderRecovery drives every path that can touch a request
// after its handler returns at once — hedges at 50 µs, a retry after a
// dropped leaf connection, fan-out timeouts with attempts still in flight,
// batched leaf calls, a named edge, and a second fan-out started from the
// first one's merge — and checks every answer.  Under -tags musuite_debug
// the pools are loud: a Request or Ctx touched after its return panics, and
// both must all be back once the tiers close.
func TestPooledContextsUnderRecovery(t *testing.T) {
	const (
		callers   = 8
		perCaller = 250
		slowEvery = 25 // requests n ≡ 0 (mod slowEvery) outlast the timeout
		slowFor   = 40 * time.Millisecond
		timeout   = 20 * time.Millisecond
	)
	base := pooledNow()
	var dropped atomic.Bool
	var leaves []*Leaf
	newLeaf := func(slow bool) string {
		leaf := NewLeaf(func(method string, payload []byte) ([]byte, error) {
			n, err := strconv.Atoi(string(payload))
			if err != nil || method != "double" {
				return nil, fmt.Errorf("leaf: %s %q", method, payload)
			}
			if slow && n%slowEvery == 0 {
				time.Sleep(slowFor)
			}
			return []byte(strconv.Itoa(2 * n)), nil
		}, &LeafOptions{Workers: 2})
		addr, err := leaf.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(leaf.Close)
		leaves = append(leaves, leaf)
		return addr
	}
	// The default edge: two shards of two replicas, one replica behind a
	// proxy that drops its first busy connection (the retry's cause).
	groups := [][]string{
		{flakyProxy(t, newLeaf(true), &dropped, 5*time.Millisecond), newLeaf(true)},
		{newLeaf(true), newLeaf(true)},
	}
	side := [][]string{{newLeaf(false), newLeaf(false)}, {newLeaf(false), newLeaf(false)}}
	tail := TailPolicy{HedgeDelay: 50 * time.Microsecond, LeafRetries: 1, RetryBudgetRatio: 1, RetryBudgetBurst: 1000}
	batch := BatchPolicy{MaxBatch: 16}

	sum := func(results []LeafResult) (int, error) {
		total := 0
		for _, r := range results {
			if r.Err != nil {
				return 0, r.Err
			}
			n, err := strconv.Atoi(string(r.Reply))
			if err != nil {
				return 0, err
			}
			total += n
		}
		return total, nil
	}
	mt := NewMidTier(func(ctx *Ctx) {
		// Stage 1 forwards the request's own payload: n → 2n per shard.
		ctx.FanoutAll("double", ctx.Req.Payload, func(results []LeafResult) {
			s, err := sum(results)
			if err != nil {
				ctx.ReplyError(err)
				return
			}
			// Stage 2, from the first merge, on the named edge with an
			// encoder the handler fills: s → 2s per shard.
			ec, err := ctx.Edge("side")
			if err != nil {
				ctx.ReplyError(err)
				return
			}
			e := ctx.LeafEncoder()
			e.Raw(strconv.AppendInt(nil, int64(s), 10))
			ec.FanoutAll("double", e.Bytes(), func(results []LeafResult) {
				s2, err := sum(results)
				if err != nil {
					ctx.ReplyError(err)
					return
				}
				ctx.Reply([]byte(strconv.Itoa(s2)))
			})
		})
	}, &Options{EdgePolicy: EdgePolicy{Timeout: timeout, Tail: tail, Batch: batch}})
	if err := mt.ConnectLeafGroups(groups); err != nil {
		t.Fatal(err)
	}
	if err := mt.ConnectEdge("side", side, EdgePolicy{Tail: tail, Batch: batch}); err != nil {
		t.Fatal(err)
	}
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		mt.Close()
		t.Fatal(err)
	}

	var timedOut, lost atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				n := w*perCaller + i
				reply, err := c.CallTimeout("q", []byte(strconv.Itoa(n)), 10*time.Second)
				// A slow request's calls outlast the timeout on every
				// replica; a fast one may too, queued behind a slow one at
				// its leaf or in its carrier.  A call caught on the dropped
				// connection with its one retry spent fails with it.
				// Nothing else may fail.
				switch {
				case err != nil && strings.Contains(err.Error(), ErrFanoutTimeout.Error()):
					timedOut.Add(1)
				case err != nil && strings.Contains(err.Error(), rpc.ErrClientClosed.Error()):
					lost.Add(1)
				case n%slowEvery == 0:
					t.Errorf("request %d outlasts the timeout on every replica: got %q, %v; want %v", n, reply, err, ErrFanoutTimeout)
				case err != nil:
					t.Errorf("request %d: %v", n, err)
				case string(reply) != strconv.Itoa(16*n):
					t.Errorf("request %d: got %q, want %d", n, reply, 16*n)
				}
			}
		}(w)
	}
	wg.Wait()
	st := mt.Stats()
	c.Close()
	mt.Close()
	// A closing leaf drops the calls still queued for its workers, and with
	// them their Requests: let each finish what losers and late hedges left
	// it first.
	for _, leaf := range leaves {
		waitFor(t, "a leaf to go idle", func() bool { return leaf.running.Load() == 0 })
		leaf.Close()
	}
	if timedOut.Load() == 0 {
		t.Error("no fan-out timed out with attempts in flight")
	}
	if !dropped.Load() {
		t.Error("no leaf connection was dropped: nothing was retried")
	}
	if lost.Load() > callers {
		t.Errorf("%d requests failed with the one dropped connection, want at most one a caller", lost.Load())
	}
	if st.Hedges == 0 {
		t.Error("no call was hedged")
	}
	waitPooledBack(t, base)
}

// TestLoudPoolsPanicOnUseAfterReturn: in a musuite_debug build, a handler
// that keeps its Ctx past every hold and touches it later panics instead of
// answering somebody else's request.
func TestLoudPoolsPanicOnUseAfterReturn(t *testing.T) {
	if !rpc.LoudPools {
		t.Skip("pools are loud only under -tags musuite_debug")
	}
	base := pooledNow()
	kept := make(chan *Ctx, 1)
	mt := NewMidTier(func(ctx *Ctx) {
		ctx.Reply(nil)
		kept <- ctx
	}, nil)
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mt.Close)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("q", nil); err != nil {
		t.Fatal(err)
	}
	ctx := <-kept
	waitPooledBack(t, base)
	for name, use := range map[string]func(){
		"Ctx.Reply":       func() { ctx.Reply(nil) },
		"Ctx.NumLeaves":   func() { ctx.NumLeaves() },
		"Ctx.Edge":        func() { ctx.Edge("") },
		"Request.Reply":   func() { ctx.Req.Reply(nil) },
		"Request.Recycle": func() { ctx.Req.Recycle() },
	} {
		if !panics(use) {
			t.Errorf("%s on a returned context did not panic", name)
		}
	}
}

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() {
		if r := recover(); r != nil {
			did = true
		}
	}()
	f()
	return false
}
