package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"musuite/internal/rpc"
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
// complete, and the shed counter must account for the rejections.
func TestMidTierShedsUnderOverload(t *testing.T) {
	leafAddr, _ := startLeaf(t, nil)
	gate := make(chan struct{})
	mt := NewMidTier(func(ctx *Ctx) {
		<-gate // every request blocks until released
		ctx.Reply(nil)
	}, &Options{Workers: 1, MaxQueueDepth: 2})
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

	const n = 12
	done := make(chan *rpc.Call, n)
	for i := 0; i < n; i++ {
		c.Go("q", nil, nil, done)
	}
	// Let the poller process the whole burst (shed replies arrive while
	// accepted requests still block on the gate), then release.
	time.Sleep(300 * time.Millisecond)
	close(gate)

	successes, sheds := 0, 0
	timeout := time.After(20 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case call := <-done:
			if call.Err != nil {
				sheds++
			} else {
				successes++
			}
		case <-timeout:
			t.Fatalf("resolved only %d of %d", successes+sheds, n)
		}
	}
	// At most 1 running + 2 queued are accepted; pickup timing may shed
	// one more.  The load must be mostly shed, quickly, and accounted.
	if successes < 1 || successes > 3 {
		t.Fatalf("successes=%d want 1..3", successes)
	}
	if sheds != n-successes {
		t.Fatalf("sheds=%d successes=%d", sheds, successes)
	}
	if got := mt.Stats().Shed; got != uint64(sheds) {
		t.Fatalf("Shed()=%d want %d", got, sheds)
	}
}

func TestShedErrorIsDistinguishable(t *testing.T) {
	if !errors.Is(ErrQueueFull, ErrQueueFull) || errors.Is(ErrQueueFull, ErrPoolClosed) {
		t.Fatal("sentinel identity broken")
	}
}
