package core

import (
	"sync"
	"testing"

	"musuite/internal/rpc"
	"musuite/internal/telemetry"
)

// TestPriorityOvertakesQueuedWork blocks the single worker, queues normal
// tasks, then a high-priority one: the high-priority task must run before
// every queued normal task.
func TestPriorityOvertakesQueuedWork(t *testing.T) {
	p := NewWorkerPool(1, WaitBlocking, nil, telemetry.OverheadActiveExe)
	defer p.Stop()

	release := make(chan struct{})
	started := make(chan struct{})
	p.Submit(func() {
		close(started)
		<-release
	})
	<-started

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	record := func(name string) func() {
		wg.Add(1)
		return func() {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			wg.Done()
		}
	}
	p.Submit(record("n1"))
	p.Submit(record("n2"))
	p.SubmitPriority(record("hi"), PriorityHigh)
	p.Submit(record("n3"))

	if depth := p.QueueDepth(); depth != 4 {
		t.Fatalf("queue depth=%d want 4", depth)
	}
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if order[0] != "hi" {
		t.Fatalf("execution order %v: high priority did not overtake", order)
	}
	for i, want := range []string{"n1", "n2", "n3"} {
		if order[i+1] != want {
			t.Fatalf("normal FIFO broken: %v", order)
		}
	}
}

// TestMidTierClassifierPrioritizesRequests wires a classifier that marks
// "urgent" methods high-priority and verifies they overtake a backlog of
// slow normal requests through the full RPC path — under the zero-value
// Options too: the requests arrive in one Write, so none of them is alone and
// every one goes through the queue that reorders.
func TestMidTierClassifierPrioritizesRequests(t *testing.T) {
	for _, mode := range []DispatchMode{DispatchAuto, Dispatched} {
		t.Run(mode.String(), func(t *testing.T) { classifierPrioritizes(t, mode) })
	}
}

func classifierPrioritizes(t *testing.T, mode DispatchMode) {
	leafAddr, _ := startLeaf(t, nil)

	var mu sync.Mutex
	var handled []string
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	mt := NewMidTier(func(ctx *Ctx) {
		if ctx.Req.Method == "block" {
			started <- struct{}{}
			<-gate
			ctx.Reply(nil)
			return
		}
		mu.Lock()
		handled = append(handled, ctx.Req.Method)
		mu.Unlock()
		ctx.Reply(nil)
	}, &Options{
		Dispatch: mode,
		Workers:  1, // single worker so queueing order is observable
		Classify: func(req *rpc.Request) Priority {
			if req.Method == "urgent" {
				return PriorityHigh
			}
			return PriorityNormal
		},
	})
	if err := mt.ConnectLeaves([]string{leafAddr}); err != nil {
		t.Fatal(err)
	}
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mt.Close)

	// "block" occupies the worker with the backlog queued behind it.  (Were
	// the worker slow to wake, it would find "urgent" first and "block"
	// second: the order among the other three is the same.)
	conn := sendBurst(t, addr, []string{"block", "normal-a", "normal-b", "urgent"}, nil)
	<-started
	waitFor(t, "the backlog to enqueue", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return mt.workers.QueueDepth()+len(handled) == 3
	})
	close(gate)

	for id, kind := range readReplies(t, conn, 4) {
		if kind != wireResponse {
			t.Fatalf("request %d: reply kind %d", id, kind)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(handled) != 3 || handled[0] != "urgent" {
		t.Fatalf("handled order %v: urgent did not overtake", handled)
	}
	if got := mt.Stats().Inlined; got != 0 {
		t.Fatalf("%d requests bypassed the queue on the poller", got)
	}
}
