package core

import (
	"errors"
	"sync"
	"testing"

	"musuite/internal/telemetry"
)

func TestBoundedPoolShedsBeyondDepth(t *testing.T) {
	p := NewBoundedWorkerPool(1, 3, WaitBlocking, nil, telemetry.OverheadActiveExe)
	defer p.Stop()

	// Occupy the worker.
	release := make(chan struct{})
	started := make(chan struct{})
	p.Submit(func() {
		close(started)
		<-release
	})
	<-started

	// Fill the queue to its bound.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		if err := p.Submit(func() { wg.Done() }); err != nil {
			t.Fatalf("submit %d within bound: %v", i, err)
		}
	}
	// The next submit sheds.
	if err := p.Submit(func() {}); err != ErrQueueFull {
		t.Fatalf("over-bound submit: %v want ErrQueueFull", err)
	}
	// Queued work still runs after the worker frees up.
	close(release)
	wg.Wait()
	// And capacity is available again.
	done := make(chan struct{})
	if err := p.Submit(func() { close(done) }); err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
	<-done
}

func TestUnboundedPoolNeverSheds(t *testing.T) {
	p := NewWorkerPool(1, WaitBlocking, nil, telemetry.OverheadActiveExe)
	defer p.Stop()
	release := make(chan struct{})
	started := make(chan struct{})
	p.Submit(func() {
		close(started)
		<-release
	})
	<-started
	var wg sync.WaitGroup
	for i := 0; i < 500; i++ {
		wg.Add(1)
		if err := p.Submit(func() { wg.Done() }); err != nil {
			t.Fatalf("unbounded submit %d: %v", i, err)
		}
	}
	close(release)
	wg.Wait()
}

// TestMidTierShedsUnderOverload floods a deliberately tiny mid-tier: shed
// requests must fail fast with the queue-full error while accepted ones
// complete, and the shed counter must account for the rejections.  The flood
// is one Write, so it meets the dispatch queue under the zero-value Options
// too: a request in-lines only when no other is queued or running.
func TestMidTierShedsUnderOverload(t *testing.T) {
	for _, mode := range []DispatchMode{DispatchAuto, Dispatched} {
		t.Run(mode.String(), func(t *testing.T) {
			leafAddr, _ := startLeaf(t, nil)
			gate := make(chan struct{})
			mt := NewMidTier(func(ctx *Ctx) {
				<-gate // every request blocks until released
				ctx.Reply(nil)
			}, &Options{Dispatch: mode, Workers: 1, MaxQueueDepth: 2})
			if err := mt.ConnectLeaves([]string{leafAddr}); err != nil {
				t.Fatal(err)
			}
			addr, err := mt.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(mt.Close)

			const n = 12
			methods := make([]string, n)
			for i := range methods {
				methods[i] = "q"
			}
			conn := sendBurst(t, addr, methods, nil)
			// At most 1 running + 2 queued are accepted; pickup timing may
			// shed one more.  The sheds are answered while the accepted
			// requests still block on the gate.
			waitFor(t, "the burst to be shed", func() bool { return mt.Stats().Shed >= n-3 })
			close(gate)

			successes, sheds := 0, 0
			for id, kind := range readReplies(t, conn, n) {
				switch kind {
				case wireResponse:
					successes++
				case wireReject:
					sheds++
				default:
					t.Fatalf("request %d: reply kind %d", id, kind)
				}
			}
			if successes < 1 || successes > 3 {
				t.Fatalf("successes=%d want 1..3", successes)
			}
			if sheds != n-successes {
				t.Fatalf("sheds=%d successes=%d", sheds, successes)
			}
			if got := mt.Stats().Shed; got != uint64(sheds) {
				t.Fatalf("Shed()=%d want %d", got, sheds)
			}
			if got := mt.Stats().Inlined; got != 0 {
				t.Fatalf("%d requests of the flood bypassed the queue on the poller", got)
			}
		})
	}
}

func TestShedErrorIsDistinguishable(t *testing.T) {
	if !errors.Is(ErrQueueFull, ErrQueueFull) || errors.Is(ErrQueueFull, ErrPoolClosed) {
		t.Fatal("sentinel identity broken")
	}
}
