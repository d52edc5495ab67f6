package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"musuite/internal/rpc"
	"musuite/internal/wire"
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
				bufsBefore, pooled := rpc.BufsInUse(), pooledNow()

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
				waitPooledBack(t, pooled)
			})
		}
	}
}

// ownedPayload is what TestFanoutOwnsEncodedPayloads' handler encodes for
// shard of request req: both numbers, then a run whose length and byte are
// functions of the pair, so bytes of any other payload — a later request's,
// written into a recycled encoder — cannot pass for it.
func ownedPayload(e *wire.Encoder, req uint32, shard int) {
	e.Uint32(req)
	e.Uint8(uint8(shard))
	for i, fill := 0, byte(req*7+uint32(shard)); i < 40+int(req%50); i++ {
		e.Uint8(fill)
	}
}

// checkOwnedPayload reports what is wrong with p as shard's payload, and the
// request it names.
func checkOwnedPayload(p []byte, shard int) (req uint32, problem string) {
	if len(p) < 5 {
		return 0, "short"
	}
	req = binary.LittleEndian.Uint32(p)
	var want wire.Encoder
	ownedPayload(&want, req, shard)
	if !bytes.Equal(p, want.Bytes()) {
		return req, "not the bytes encoded for this shard"
	}
	return req, ""
}

// TestFanoutOwnsEncodedPayloads: a handler encodes a distinct payload per
// shard into the encoder Ctx.LeafEncoder hands it, and the fan-out owns that
// encoder until nothing can issue a slot any more — so every copy a leaf
// receives, however late it was sent (a hedge, a retry after its connection
// died, a batch flush, attempts still out when the fan-out timed out), is the
// payload encoded for that shard of that request, while a stream of later
// requests keeps the encoder pool turning over.  Once every tier is closed
// the frame buffers and the encoders are all back.
func TestFanoutOwnsEncodedPayloads(t *testing.T) {
	const shards, requests, callers = 3, 240, 4
	const hold = 20 * time.Millisecond
	generous := TailPolicy{RetryBudgetRatio: 1, RetryBudgetBurst: 1000}
	hedged, retried := generous, generous
	hedged.HedgeDelay = 2 * time.Millisecond
	retried.LeafRetries = 1
	variants := []struct {
		name     string
		policy   EdgePolicy
		flaky    bool          // leaf connections go through a flakyProxy
		slowOne  int           // the first arrival of every slowOne-th request is held at its leaf
		holdFor  time.Duration // how long a held arrival is held (default hold)
		timeouts bool          // held requests are expected to fail with ErrFanoutTimeout
	}{
		{name: "hedge", policy: EdgePolicy{Tail: hedged}, slowOne: 8},
		{name: "retry", policy: EdgePolicy{Tail: retried}, flaky: true},
		{name: "batch", policy: EdgePolicy{Batch: BatchPolicy{MaxBatch: 16}}},
		// The timeout must be far above the issue loop's time under -race
		// (a descheduled issuer waits out 4 ms scheduler ticks): a fan-out
		// that expires mid-loop rightly never sends its remaining slots, and
		// then a shard would miss a payload through no fault of the fan-out.
		{name: "timeout", policy: EdgePolicy{Timeout: 50 * time.Millisecond}, slowOne: 6, holdFor: 150 * time.Millisecond, timeouts: true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			bufsBefore, encsBefore, pooled := rpc.BufsInUse(), wire.EncodersInUse(), pooledNow()

			var mu sync.Mutex
			arrivals := make(map[[2]uint32]int) // (request, shard) → copies received
			var dropped atomic.Bool
			var leaves []*Leaf
			groups := make([][]string, shards)
			for s := 0; s < shards; s++ {
				for r := 0; r < 2; r++ {
					leaf := NewLeaf(func(_ string, payload []byte) ([]byte, error) {
						req, problem := checkOwnedPayload(payload, s)
						if problem != "" {
							t.Errorf("shard %d received a payload naming request %d that is %s: %q", s, req, problem, payload)
							return nil, nil
						}
						mu.Lock()
						arrivals[[2]uint32{req, uint32(s)}]++
						first := arrivals[[2]uint32{req, uint32(s)}] == 1
						mu.Unlock()
						if first && v.slowOne > 0 && req%uint32(v.slowOne) == 0 {
							time.Sleep(cmp.Or(v.holdFor, hold))
						}
						return nil, nil
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
					groups[s] = append(groups[s], addr)
				}
			}

			mt := NewMidTier(func(ctx *Ctx) {
				req := binary.LittleEndian.Uint32(ctx.Req.Payload)
				e := ctx.LeafEncoder()
				var calls [shards]LeafCall
				for s := range calls {
					start := e.Len()
					ownedPayload(e, req, s)
					calls[s] = LeafCall{Shard: s, Method: "work", Payload: e.Bytes()[start:]}
				}
				ctx.Fanout(calls[:], func(results []LeafResult) {
					for _, r := range results {
						if r.Err != nil {
							ctx.ReplyError(r.Err)
							return
						}
					}
					ctx.Reply(nil)
				})
			}, &Options{EdgePolicy: v.policy})
			if err := mt.ConnectLeafGroups(groups); err != nil {
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

			var failed atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < callers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for req := uint32(w); req < requests; req += callers {
						_, err := c.CallTimeout("q", binary.LittleEndian.AppendUint32(nil, req), 10*time.Second)
						if err == nil {
							continue
						}
						failed.Add(1)
						if !v.timeouts || !strings.Contains(err.Error(), ErrFanoutTimeout.Error()) {
							t.Errorf("request %d: %v", req, err)
						}
					}
				}(w)
			}
			wg.Wait()
			c.Close()
			mt.Close()
			for _, leaf := range leaves {
				leaf.Close() // waits out the held attempts
			}

			mu.Lock()
			for req := uint32(0); req < requests; req++ {
				for s := uint32(0); s < shards; s++ {
					if arrivals[[2]uint32{req, s}] == 0 {
						t.Errorf("shard %d never received request %d's payload", s, req)
					}
				}
			}
			mu.Unlock()
			if v.timeouts && failed.Load() == 0 {
				t.Error("no fan-out timed out: the variant did not have attempts in flight at expiry")
			}
			if v.flaky && !dropped.Load() {
				t.Error("no connection was dropped: the variant did not retry")
			}
			waitFor(t, "every frame buffer to be returned", func() bool { return rpc.BufsInUse() <= bufsBefore })
			waitFor(t, "every encoder to be returned", func() bool { return wire.EncodersInUse() <= encsBefore })
			waitPooledBack(t, pooled)
		})
	}
}
