package bench

import (
	"testing"
	"time"

	"musuite/internal/core"
	"musuite/internal/trace"
)

// TestTraceRunProducesConnectedTrees drives every service with span sampling
// on and checks the end-to-end tracing invariants: each sampled request
// yields a single connected span tree rooted at the front-end client span,
// and the critical path through the tree partitions the root span exactly —
// its segment sum equals the recorded end-to-end latency by construction.
// The mid-tier's server span carries the request's stage record, which is
// all the -experiment trace table is computed from.
func TestTraceRunProducesConnectedTrees(t *testing.T) {
	s := tinyScale()
	for _, name := range ServiceNames {
		spans, res, err := TraceRun(name, s, FrameworkMode{}, 150, 400*time.Millisecond, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Errors > 0 {
			t.Errorf("%s: %d failed requests", name, res.Errors)
		}
		if len(spans) == 0 {
			t.Fatalf("%s: no spans recorded", name)
		}
		if svc, ok := ServiceForTrace(spans); !ok || svc != name {
			t.Errorf("%s: ServiceForTrace = %q, %v", name, svc, ok)
		}
		trees := trace.BuildTrees(spans)
		if len(trees) == 0 {
			t.Fatalf("%s: no trees built from %d spans", name, len(spans))
		}
		for _, tree := range trees {
			if !tree.Connected() {
				t.Fatalf("%s: trace %x not connected (%d spans, %d roots)",
					name, tree.TraceID, len(tree.Spans), len(tree.Roots))
			}
			root := tree.Root()
			// The root must be the front-end client span, and a mid-tier
			// server span must hang off it.
			if root.Span.Kind != trace.KindClient {
				t.Errorf("%s: root kind %q, want client", name, root.Span.Kind)
			}
			if len(root.Children) == 0 {
				t.Fatalf("%s: trace %x root has no server child", name, tree.TraceID)
			}
			mid := &root.Children[0].Span
			if st := mid.Stages; mid.Err == "" && (st == nil || st.LeafWait <= 0 || st.Sum() > time.Duration(mid.Duration)) {
				t.Errorf("%s: mid-tier span lasted %v with stage record %v", name, time.Duration(mid.Duration), st)
			}
			path := tree.CriticalPath()
			if len(path) == 0 {
				t.Fatalf("%s: empty critical path", name)
			}
			if got, want := trace.PathTotal(path), tree.EndToEnd(); got != want {
				t.Errorf("%s: critical path sums to %v, end-to-end is %v", name, got, want)
			}
		}
	}
}

// TestTraceRunWithHedgingRecordsLosers forces aggressive hedging and checks
// abandoned-loser spans appear, annotated and parented into the same tree.
func TestTraceRunWithHedgingRecordsLosers(t *testing.T) {
	s := tinyScale()
	s.LeafReplicas = 2
	var mode FrameworkMode
	mode.MidTier.Tail = core.TailPolicy{
		HedgeDelay:       50 * time.Microsecond,
		RetryBudgetRatio: 10,
		RetryBudgetBurst: 1 << 20,
	}
	spans, _, err := TraceRun("HDSearch", s, mode, 200, 500*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	abandoned := 0
	for i := range spans {
		if spans[i].HasNote("abandoned") {
			abandoned++
			if spans[i].Kind != trace.KindClient {
				t.Errorf("abandoned span has kind %q, want client", spans[i].Kind)
			}
		}
	}
	if abandoned == 0 {
		t.Skip("no hedges lost in this run (timing-dependent); invariant untested")
	}
	// Abandoned spans must still parent into connected trees.
	for _, tree := range trace.BuildTrees(spans) {
		if !tree.Connected() {
			t.Fatalf("trace %x with losers not connected", tree.TraceID)
		}
	}
}

// TestReplayRunReproducesArrivals replays a recorded trace's arrival process
// and checks every replayed request completes.
func TestReplayRunReproducesArrivals(t *testing.T) {
	s := tinyScale()
	spans, _, err := TraceRun("SetAlgebra", s, FrameworkMode{}, 200, 300*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	offsets := trace.ArrivalOffsets(spans)
	if len(offsets) == 0 {
		t.Fatal("no arrivals recorded")
	}
	res, err := ReplayRun("SetAlgebra", s, FrameworkMode{}, spans, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != uint64(len(offsets)) {
		t.Errorf("replay offered %d requests, trace had %d arrivals", res.Offered, len(offsets))
	}
	if res.Errors > 0 || res.Dropped > 0 {
		t.Errorf("replay failed requests: %d errors, %d dropped", res.Errors, res.Dropped)
	}
}
