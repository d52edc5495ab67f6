package core

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"musuite/internal/rpc"
	"musuite/internal/telemetry"
)

// The dispatch rule, tested on its signal rather than on a clock: a request
// with nothing buffered behind its frame runs on the poller that decoded it;
// one with more input already waiting goes to the worker pool.

// rawFrames encodes one untraced request frame per method (ids 1, 2, …) back
// to back, in internal/rpc's wire layout: u32 body length | u8 kind | u64 id |
// u16 method length | method | payload.
func rawFrames(methods []string, payload []byte) []byte {
	var out []byte
	for i, method := range methods {
		out = binary.LittleEndian.AppendUint32(out, uint32(1+8+2+len(method)+len(payload)))
		out = append(out, 1) // kindRequest
		out = binary.LittleEndian.AppendUint64(out, uint64(i+1))
		out = binary.LittleEndian.AppendUint16(out, uint16(len(method)))
		out = append(out, method...)
		out = append(out, payload...)
	}
	return out
}

// sendBurst writes one request frame per method to addr in one Write — so
// they reach the server's poller together, every frame but the last with
// input buffered behind it — and returns the connection to read replies from.
func sendBurst(t *testing.T, addr string, methods []string, payload []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(rawFrames(methods, payload)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// Reply frame kinds of internal/rpc's wire layout.
const (
	wireResponse = 2
	wireError    = 3
	wireReject   = 5
)

// readReplies reads n reply frames off conn and returns each request id's
// reply kind.
func readReplies(t *testing.T, conn net.Conn, n int) map[uint64]byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	kinds := make(map[uint64]byte)
	for len(kinds) < n {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			t.Fatalf("after %d of %d replies: %v", len(kinds), n, err)
		}
		body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatal(err)
		}
		kinds[binary.LittleEndian.Uint64(body[1:9])] = body[0]
	}
	return kinds
}

// burst sends n frames of one method in one Write and reads n successful
// replies back.
func burst(t *testing.T, addr string, n int, method string, payload []byte) {
	t.Helper()
	methods := make([]string, n)
	for i := range methods {
		methods[i] = method
	}
	for id, kind := range readReplies(t, sendBurst(t, addr, methods, payload), n) {
		if kind != wireResponse {
			t.Fatalf("request %d: reply kind %d", id, kind)
		}
	}
}

// replyingMidTier starts a mid-tier whose handler replies at once, so the
// only pool that can dequeue anything is the request worker pool.
func replyingMidTier(t *testing.T, opts Options) (string, *MidTier) {
	t.Helper()
	mt := NewMidTier(func(ctx *Ctx) { ctx.Reply(ctx.Req.Payload) }, &opts)
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mt.Close)
	return addr, mt
}

// dequeues is how many tasks the probed worker pools have picked up: every
// pickup observes one Active-Exe sample.
func dequeues(p *telemetry.Probe) uint64 {
	return p.OverheadSnapshot(telemetry.OverheadActiveExe).Count
}

// TestLoneRequestRunsOnItsPoller: requests issued one at a time have nothing
// behind them — at the mid-tier or at the leaves it fans out to — so every
// one is run to completion on its poller and no worker is ever woken.  Leaf
// responses still cross the response pool.
func TestLoneRequestRunsOnItsPoller(t *testing.T) {
	probe := telemetry.NewProbe()
	leafAddr, leaf := startLeaf(t, probe)
	addr, mt := startMidTier(t, []string{leafAddr}, &Options{Probe: probe})
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 20
	for i := 0; i < n; i++ {
		if reply, err := c.Call("sum", []byte("21")); err != nil || string(reply) != "42" {
			t.Fatalf("sum: %q %v", reply, err)
		}
	}
	if got := mt.Stats().Inlined; got != n {
		t.Errorf("mid-tier ran %d of %d lone requests on the poller", got, n)
	}
	if got := leaf.Stats().Inlined; got != n {
		t.Errorf("leaf ran %d of %d lone requests on the poller", got, n)
	}
	if got := dequeues(probe); got != 0 {
		t.Errorf("%d worker-pool dequeues for lone requests, want 0", got)
	}
	if got := probe.OverheadSnapshot(telemetry.OverheadSched).Count; got != n {
		t.Errorf("%d response-pool hand-offs, want %d: leaf responses are not in-lined", got, n)
	}
}

// TestBurstBehindAFrameDispatches: 32 frames that arrive in one read leave
// input waiting behind all but the last, so the poller hands requests to the
// workers — and still every one is answered.
func TestBurstBehindAFrameDispatches(t *testing.T) {
	const n = 32
	t.Run("midtier", func(t *testing.T) {
		probe := telemetry.NewProbe()
		addr, mt := replyingMidTier(t, Options{Probe: probe})
		burst(t, addr, n, "q", []byte("x"))
		st := mt.Stats()
		if st.Served != n || st.Inlined >= n || st.Inlined+dequeues(probe) != n {
			t.Errorf("served %d, %d on the poller, %d dispatched; want %d served, some dispatched",
				st.Served, st.Inlined, dequeues(probe), n)
		}
	})
	t.Run("leaf", func(t *testing.T) {
		probe := telemetry.NewProbe()
		addr, leaf := startLeaf(t, probe)
		burst(t, addr, n, "echo", []byte("x"))
		st := leaf.Stats()
		if st.Served != n || st.Inlined >= n || st.Inlined+dequeues(probe) != n {
			t.Errorf("served %d, %d on the poller, %d dispatched; want %d served, some dispatched",
				st.Served, st.Inlined, dequeues(probe), n)
		}
	})
}

// TestBlockingHandlerServesFramesBehindIt: a handler that blocks on the
// poller (here, waiting out its own leaf call) delays the frames that arrive
// behind it only until it returns.
func TestBlockingHandlerServesFramesBehindIt(t *testing.T) {
	entered := make(chan struct{}, 3)
	leaf := NewLeaf(func(string, []byte) ([]byte, error) {
		time.Sleep(20 * time.Millisecond)
		return []byte("ok"), nil
	}, nil)
	leafAddr, err := leaf.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leaf.Close)
	mt := NewMidTier(func(ctx *Ctx) {
		entered <- struct{}{}
		answered := make(chan struct{})
		ctx.FanoutTo([]LeafCall{{Shard: 0, Method: "slow"}}, func(_ *Ctx, results []LeafResult) {
			defer close(answered)
			if err := results[0].Err; err != nil {
				ctx.ReplyError(err)
				return
			}
			ctx.Reply(results[0].Reply)
		})
		<-answered
	}, nil)
	if err := mt.ConnectLeaves([]string{leafAddr}); err != nil {
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

	done := make(chan *rpc.Call, 3)
	c.Go("a", nil, nil, done)
	<-entered // the poller is inside a's handler, blocked on the leaf
	c.Go("b", nil, nil, done)
	c.Go("c", nil, nil, done)
	for i := 0; i < 3; i++ {
		select {
		case call := <-done:
			if call.Err != nil || string(call.Reply) != "ok" {
				t.Fatalf("%s: %q %v", call.Method, call.Reply, call.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of 3 requests answered", i)
		}
	}
	if got := mt.Stats().Inlined; got == 0 {
		t.Error("no request ran on the poller")
	}
}

// TestFixedModesNeverSwitch: the §VII ablation's two fixed modes stay fixed
// whatever is or is not waiting behind a frame — Dispatched never runs a
// handler on the poller, Inline never wakes a worker — so with the default
// (the tests above) the ablation has three distinguishable rows.
func TestFixedModesNeverSwitch(t *testing.T) {
	const n = 32
	t.Run("dispatched", func(t *testing.T) {
		probe := telemetry.NewProbe()
		addr, mt := replyingMidTier(t, Options{Dispatch: Dispatched, Probe: probe})
		c, err := rpc.Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < n; i++ { // lone requests: the default would in-line each
			if _, err := c.Call("q", nil); err != nil {
				t.Fatal(err)
			}
		}
		if st := mt.Stats(); st.Inlined != 0 || dequeues(probe) != n {
			t.Errorf("%d on the poller, %d dispatched; want 0 and %d", st.Inlined, dequeues(probe), n)
		}
	})
	t.Run("inline", func(t *testing.T) {
		probe := telemetry.NewProbe()
		addr, mt := replyingMidTier(t, Options{Dispatch: Inline, Probe: probe})
		burst(t, addr, n, "q", nil) // a burst: the default would dispatch most
		if st := mt.Stats(); st.Inlined != n || dequeues(probe) != 0 {
			t.Errorf("%d on the poller, %d dispatched; want %d and 0", st.Inlined, dequeues(probe), n)
		}
	})
}

func TestDispatchModeNames(t *testing.T) {
	for mode, want := range map[DispatchMode]string{DispatchAuto: "auto", Dispatched: "dispatched", Inline: "inline"} {
		if mode.String() != want {
			t.Errorf("mode %d is %q, want %q", mode, mode.String(), want)
		}
	}
	if (Options{}).Dispatch != DispatchAuto {
		t.Error("the zero Options do not select DispatchAuto")
	}
}
