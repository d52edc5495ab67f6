package core

import (
	"testing"
	"time"

	"musuite/internal/rpc"
	"musuite/internal/trace"
)

// TestTracerCapturesFullPipeline drives traced requests through the mid-tier
// and verifies every stage was stamped in order: all of them under Dispatched
// (the whole dispatch pipeline), and under the zero-value Options — lone
// requests, which run on their poller — everything but the queue stages.
func TestTracerCapturesFullPipeline(t *testing.T) {
	t.Run("default", func(t *testing.T) { traceFullPipeline(t, DispatchAuto) })
	t.Run("dispatched", func(t *testing.T) { traceFullPipeline(t, Dispatched) })
}

func traceFullPipeline(t *testing.T, mode DispatchMode) {
	leafAddrs := make([]string, 2)
	for i := range leafAddrs {
		leafAddrs[i], _ = startLeaf(t, nil)
	}
	tracer := trace.NewTracer(1, 16) // sample everything
	opts := Options{Dispatch: mode, Workers: 2, ResponseThreads: 2, Tracer: tracer}
	addr, _ := startMidTier(t, leafAddrs, &opts)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 25
	for i := 0; i < n; i++ {
		if _, err := c.Call("sum", []byte("3")); err != nil {
			t.Fatal(err)
		}
	}
	// A trace completes when its ReplySent stage is stamped, after the reply.
	waitFor(t, "every trace to complete", func() bool { return tracer.Completed() >= n })
	if got := tracer.Completed(); got != n {
		t.Fatalf("completed traces=%d want %d", got, n)
	}
	for _, tr := range tracer.Recent(16) {
		b := tr.Breakdown()
		if dispatched := mode == Dispatched; b.Complete != dispatched {
			t.Fatalf("queue stages stamped=%v, want %v: %s", b.Complete, dispatched, b)
		}
		if b.Total <= 0 || b.Total > 5*time.Second {
			t.Fatalf("implausible total: %s", b)
		}
		// Stage ordering: every stamped timestamp non-decreasing.
		prev := tr.At(trace.StageArrival)
		for s := trace.StageEnqueued; s <= trace.StageReplySent; s++ {
			at := tr.At(s)
			if at.IsZero() && mode != Dispatched && s == trace.StageEnqueued {
				continue // no hand-off: the poller ran the handler
			}
			if at.Before(prev) {
				t.Fatalf("stage %v precedes predecessor", s)
			}
			prev = at
		}
		// The leaf round trip must account for real time.
		if b.LeafWait <= 0 {
			t.Fatalf("zero leaf wait: %s", b)
		}
	}
	// Aggregate report sanity.
	if tracer.StageQuantile("total", 0.5) <= 0 {
		t.Fatal("no aggregate total")
	}
}

// TestTracerSamplingThroughMidTier verifies 1-in-N sampling holds across
// the RPC path.
func TestTracerSamplingThroughMidTier(t *testing.T) {
	leafAddr, _ := startLeaf(t, nil)
	tracer := trace.NewTracer(5, 64)
	opts := Options{Workers: 2, Tracer: tracer}
	addr, _ := startMidTier(t, []string{leafAddr}, &opts)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := c.Call("echo1", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every sampled trace to complete", func() bool { return tracer.Completed() >= n/5 })
	if got := tracer.Completed(); got != n/5 {
		t.Fatalf("completed=%d want %d", got, n/5)
	}
}

// TestTracerInlineMode: in-line requests skip the queue stages but still
// yield total latency.
func TestTracerInlineMode(t *testing.T) {
	leafAddr, _ := startLeaf(t, nil)
	tracer := trace.NewTracer(1, 8)
	opts := Options{Dispatch: Inline, Tracer: tracer}
	addr, _ := startMidTier(t, []string{leafAddr}, &opts)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("sum", []byte("1")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the trace to complete", func() bool { return tracer.Completed() >= 1 })
	trs := tracer.Recent(1)
	if len(trs) != 1 {
		t.Fatal("no trace")
	}
	b := trs[0].Breakdown()
	if b.Complete {
		t.Fatal("in-line trace claims the dispatch stages")
	}
	if b.Total <= 0 {
		t.Fatalf("in-line total=%v", b.Total)
	}
}
