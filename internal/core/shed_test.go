package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"musuite/internal/rpc"
	"musuite/internal/telemetry"
	"musuite/internal/trace"
)

func TestUnboundedPoolNeverSheds(t *testing.T) {
	p := NewWorkerPool(1, WaitBlocking, nil, telemetry.OverheadActiveExe)
	defer p.Stop()
	release := make(chan struct{})
	started := make(chan struct{})
	submit(p, func() {
		close(started)
		<-release
	})
	<-started
	var wg sync.WaitGroup
	for i := 0; i < 500; i++ {
		wg.Add(1)
		if err := submit(p, func() { wg.Done() }); err != nil {
			t.Fatalf("unbounded submit %d: %v", i, err)
		}
	}
	close(release)
	wg.Wait()
}

// TestClosedPoolShedReleasesItsHolds drives the one path on which a tier
// turns a request away after taking it off the wire and before running its
// handler: a hand-off to a stopped worker pool.  On a mid-tier the request
// has by then been admitted and pinned a topology snapshot, and its Ctx holds
// the handler's and the reply's holds; every one must be given back without
// the request counting as served.
func TestClosedPoolShedReleasesItsHolds(t *testing.T) {
	t.Run("midtier", func(t *testing.T) {
		base := pooledNow()
		rec := trace.NewRecorder("mid", 0)
		gate, entered := make(chan struct{}), make(chan struct{}, 1)
		open := sync.OnceFunc(func() { close(gate) })
		mt := NewMidTier(func(ctx *Ctx) {
			if ctx.Req.Method == "block" {
				entered <- struct{}{}
				<-gate
			}
			ctx.Reply(nil)
		}, &Options{Spans: rec, Admit: AdmitPolicy{MaxInflight: 64}})
		a, _ := startLeaf(t, nil)
		b, _ := startLeaf(t, nil)
		if err := mt.ConnectLeaves([]string{a, b}); err != nil {
			t.Fatal(err)
		}
		addr, err := mt.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mt.Close)
		t.Cleanup(open) // first: Close waits for the parked handler

		blocked := parkOnPoller(t, addr, entered)
		mt.workers.Stop()
		expectPoolClosed(t, addr, rec)
		waitFor(t, "the sheds' admission slots", func() bool { return mt.admit.currentInflight() == 1 })
		open()
		if call := <-blocked; call.Err != nil {
			t.Fatal(call.Err)
		}
		waitPooledBack(t, base)
		waitFor(t, "every admission slot", func() bool { return mt.admit.currentInflight() == 0 })
		if got := mt.Stats().Served; got != 1 {
			t.Fatalf("served %d, want only the parked request", got)
		}
		// A pin a shed kept would hold the drain to its deadline.
		if err := mt.DrainLeafGroup(1, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("leaf", func(t *testing.T) {
		base := pooledNow()
		rec := trace.NewRecorder("leaf", 0)
		gate, entered := make(chan struct{}), make(chan struct{}, 1)
		open := sync.OnceFunc(func() { close(gate) })
		leaf := NewLeaf(func(method string, _ []byte) ([]byte, error) {
			if method == "block" {
				entered <- struct{}{}
				<-gate
			}
			return nil, nil
		}, &LeafOptions{Spans: rec})
		addr, err := leaf.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(leaf.Close)
		t.Cleanup(open) // first: Close waits for the parked handler

		blocked := parkOnPoller(t, addr, entered)
		leaf.workers.Stop()
		expectPoolClosed(t, addr, rec)
		open()
		if call := <-blocked; call.Err != nil {
			t.Fatal(call.Err)
		}
		waitPooledBack(t, base)
	})
}

// parkOnPoller sends a lone "block" request, which runs on its connection's
// poller, and returns once the handler has signalled entered.  While it is
// parked every other request to the tier is handed to the worker pool.
func parkOnPoller(t *testing.T, addr string, entered chan struct{}) chan *rpc.Call {
	t.Helper()
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	done := make(chan *rpc.Call, 1)
	c.Go("block", nil, nil, done)
	<-entered
	return done
}

// expectPoolClosed sends a one-Write burst and one traced call to a tier
// whose worker pool is stopped, and checks that each gets the pool's error
// and that the traced one's server span carries it.
func expectPoolClosed(t *testing.T, addr string, rec *trace.Recorder) {
	t.Helper()
	const n = 6
	methods := make([]string, n)
	for i := range methods {
		methods[i] = "q"
	}
	for id, kind := range readReplies(t, sendBurst(t, addr, methods, nil), n) {
		if kind != wireError {
			t.Fatalf("request %d: reply kind %d, want an error", id, kind)
		}
	}
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan *rpc.Call, 1)
	c.GoSpan("q", nil, trace.NewRootContext(), nil, done)
	if call := <-done; call.Err == nil || !strings.Contains(call.Err.Error(), ErrPoolClosed.Error()) {
		t.Fatalf("traced call: err=%v, want %v", call.Err, ErrPoolClosed)
	}
	assertShedSpans(t, rec, 1, ErrPoolClosed.Error())
}
