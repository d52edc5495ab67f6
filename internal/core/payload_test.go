package core

import (
	"bytes"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"musuite/internal/rpc"
)

// flakyProxy forwards TCP connections to backend, except that the first
// connection to carry any bytes is held for hold and then dropped with those
// bytes undelivered — a leaf that dies with a request in its socket.
func flakyProxy(t *testing.T, backend string, dropped *atomic.Bool, hold time.Duration) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	track := func(c net.Conn) {
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
	}
	t.Cleanup(func() {
		lis.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			down, err := lis.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				down.Close()
				return
			}
			track(down)
			track(up)
			wg.Add(2)
			go func() { // leaf → mid-tier
				defer wg.Done()
				io.Copy(down, up)
				down.Close()
			}()
			go func() { // mid-tier → leaf
				defer wg.Done()
				defer up.Close()
				first := make([]byte, 4096)
				n, err := down.Read(first)
				if err != nil {
					return
				}
				if dropped.CompareAndSwap(false, true) {
					time.Sleep(hold)
					down.Close()
					return
				}
				if _, err := up.Write(first[:n]); err == nil {
					io.Copy(up, down)
				}
			}()
		}
	}()
	return lis.Addr().String()
}

// TestInlinePayloadSurvivesNextFrame: a request owns its payload bytes, so a
// handler that forwards Req.Payload into a fan-out can run on the poller and
// return, the poller can read the connection's next frame, and a copy of the
// first request issued only afterwards — a hedge, a retry, a batch flush —
// still carries the first request's bytes.  (Reading every frame into one
// connection buffer, as the poller used to, sent the second request's.)
func TestInlinePayloadSurvivesNextFrame(t *testing.T) {
	payloadA, payloadB := bytes.Repeat([]byte("A"), 64), bytes.Repeat([]byte("B"), 64)
	const hold = 50 * time.Millisecond
	variants := []struct {
		name    string
		opts    Options
		flaky   bool // leaf connections go through a flakyProxy
		copiesA int  // how many copies of A the leaves must receive
	}{
		// A's primary is held at its leaf; the hedge goes out after B is in.
		{name: "hedge", opts: Options{EdgePolicy: EdgePolicy{Tail: TailPolicy{HedgeDelay: 5 * time.Millisecond, RetryBudgetRatio: 1, RetryBudgetBurst: 100}}}, copiesA: 2},
		// A's primary dies with its connection; the retry goes out after B.
		{name: "retry", opts: Options{EdgePolicy: EdgePolicy{Tail: TailPolicy{LeafRetries: 1, RetryBudgetRatio: 1, RetryBudgetBurst: 100}}}, flaky: true, copiesA: 1},
		// A's call sits in the batch queue until after B has joined it.
		{name: "batch", opts: Options{EdgePolicy: EdgePolicy{Batch: BatchPolicy{MaxBatch: 8, Delay: 20 * time.Millisecond}}}, copiesA: 1},
	}
	for _, mode := range []DispatchMode{Inline, DispatchAuto} {
		for _, v := range variants {
			t.Run(mode.String()+"/"+v.name, func(t *testing.T) {
				bufsBefore := rpc.BufsInUse()

				var mu sync.Mutex
				var seen []string
				var heldOne, dropped atomic.Bool
				var leaves []*Leaf
				newLeaf := func() string {
					leaf := NewLeaf(func(_ string, payload []byte) ([]byte, error) {
						mu.Lock()
						seen = append(seen, string(payload))
						mu.Unlock()
						if !v.flaky && bytes.Equal(payload, payloadA) && heldOne.CompareAndSwap(false, true) {
							time.Sleep(hold) // the first attempt of A
						}
						return []byte("ok"), nil
					}, nil)
					addr, err := leaf.Start("127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(leaf.Close)
					leaves = append(leaves, leaf)
					if v.flaky {
						addr = flakyProxy(t, addr, &dropped, hold)
					}
					return addr
				}
				replicas := []string{newLeaf(), newLeaf()}

				issued := make(chan struct{}, 2)
				opts := v.opts
				opts.Dispatch = mode
				mt := NewMidTier(func(ctx *Ctx) {
					ctx.FanoutAll("work", ctx.Req.Payload, func(results []LeafResult) {
						if err := results[0].Err; err != nil {
							ctx.ReplyError(err)
							return
						}
						ctx.Reply(results[0].Reply)
					})
					issued <- struct{}{}
				}, &opts)
				if err := mt.ConnectLeafGroups([][]string{replicas}); err != nil {
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

				done := make(chan *rpc.Call, 2)
				c.Go("q", payloadA, nil, done)
				<-issued // A's handler has issued its primary and returned
				c.Go("q", payloadB, nil, done)
				for i := 0; i < 2; i++ {
					select {
					case call := <-done:
						if call.Err != nil || string(call.Reply) != "ok" {
							t.Errorf("request %q: %q %v", call.Payload[:1], call.Reply, call.Err)
						}
						call.Release()
					case <-time.After(10 * time.Second):
						t.Fatal("requests hung")
					}
				}
				c.Close()
				mt.Close()
				for _, leaf := range leaves {
					leaf.Close() // waits out the held attempt of A
				}

				mu.Lock()
				gotA, gotB := 0, 0
				for _, p := range seen {
					switch p {
					case string(payloadA):
						gotA++
					case string(payloadB):
						gotB++
					default:
						t.Errorf("a leaf received %q", p)
					}
				}
				mu.Unlock()
				if gotA != v.copiesA || gotB < 1 {
					t.Errorf("leaves received %d copies of A and %d of B, want %d and at least 1", gotA, gotB, v.copiesA)
				}
				// Every tier is closed: nothing may still hold a frame
				// buffer (the proxies' connections unwind on their own
				// goroutines, hence the wait).
				waitFor(t, "every frame buffer to be returned", func() bool { return rpc.BufsInUse() <= bufsBefore })
			})
		}
	}
}
