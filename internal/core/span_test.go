package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"musuite/internal/rpc"
	"musuite/internal/trace"
)

// startSpanLeaf is startWorkLeaf with span recording attached.
func startSpanLeaf(t *testing.T, rec *trace.Recorder, handler LeafHandler) (string, *Leaf) {
	t.Helper()
	leaf := NewLeaf(handler, &LeafOptions{Workers: 4, Spans: rec})
	addr, err := leaf.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leaf.Close)
	return addr, leaf
}

func echoAfter(d time.Duration) LeafHandler {
	return func(method string, payload []byte) ([]byte, error) {
		if d > 0 {
			time.Sleep(d)
		}
		out := make([]byte, len(payload))
		copy(out, payload)
		return out, nil
	}
}

// tracedCall issues one sampled request and waits for its reply.
func tracedCall(t *testing.T, c *rpc.Client) {
	t.Helper()
	call := c.GoSpan("work", []byte("x"), trace.NewRootContext(), nil, nil)
	<-call.Done
	if call.Err != nil {
		t.Fatal(call.Err)
	}
}

// snapshotWhen polls the recorder until cond accepts the span set and every
// trace in it is connected.  Spans are recorded where the work ends — a
// tier's server span after its reply is written, a loser's when it is
// cancelled — so the last few can trail the client's reply by a scheduling
// quantum, in any order.
func snapshotWhen(t *testing.T, rec *trace.Recorder, cond func([]trace.Span) bool) []trace.Span {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		spans := rec.Snapshot()
		if (cond(spans) && disconnected(spans) == nil) || time.Now().After(deadline) {
			return spans
		}
		time.Sleep(time.Millisecond)
	}
}

// disconnected returns the first trace whose spans do not form one tree.
func disconnected(spans []trace.Span) *trace.Tree {
	for _, tree := range trace.BuildTrees(spans) {
		if !tree.Connected() {
			return tree
		}
	}
	return nil
}

func assertConnected(t *testing.T, spans []trace.Span) {
	t.Helper()
	if tree := disconnected(spans); tree != nil {
		t.Fatalf("trace %x not connected: %d spans, %d roots",
			tree.TraceID, len(tree.Spans), len(tree.Roots))
	}
}

// TestHedgeLoserSpansParented forces a hedge on every request (fixed 100µs
// hedge delay against 10ms leaves) and checks the losing attempt is
// recorded: annotated "abandoned", kind client, and parented to the same
// span as the winning attempt — so winner and loser are siblings in the
// request's tree.
func TestHedgeLoserSpansParented(t *testing.T) {
	rec := trace.NewRecorder("test", 1<<16)
	addrA, _ := startSpanLeaf(t, rec, echoAfter(10*time.Millisecond))
	addrB, _ := startSpanLeaf(t, rec, echoAfter(10*time.Millisecond))
	addr, _ := startTailMidTier(t, [][]string{{addrA, addrB}}, &Options{
		Workers: 4,
		Spans:   rec,
		EdgePolicy: EdgePolicy{Tail: TailPolicy{
			HedgeDelay:       100 * time.Microsecond,
			HedgeMinDelay:    100 * time.Microsecond,
			RetryBudgetRatio: 10,
			RetryBudgetBurst: 1 << 20,
		}},
	}, nil)
	c, err := rpc.Dial(addr, &rpc.ClientOptions{Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const requests = 20
	for i := 0; i < requests; i++ {
		tracedCall(t, c)
	}
	spans := snapshotWhen(t, rec, func(spans []trace.Span) bool {
		n := 0
		for i := range spans {
			if spans[i].HasNote("abandoned") {
				n++
			}
		}
		return n >= requests
	})

	abandoned := 0
	for i := range spans {
		s := &spans[i]
		if !s.HasNote("abandoned") {
			continue
		}
		abandoned++
		if s.Kind != trace.KindClient {
			t.Errorf("abandoned span %s has kind %q, want client", s.Name, s.Kind)
		}
		// The winner must be a sibling: same parent, same trace, not
		// abandoned.
		winner := false
		for j := range spans {
			w := &spans[j]
			if w.TraceID == s.TraceID && w.ParentID == s.ParentID &&
				w.SpanID != s.SpanID && w.Kind == trace.KindClient && !w.HasNote("abandoned") {
				winner = true
				break
			}
		}
		if !winner {
			t.Errorf("abandoned span %x in trace %x has no winning sibling", s.SpanID, s.TraceID)
		}
	}
	// With a 100µs hedge against 10ms leaves, every request hedges and one
	// attempt always loses.
	if abandoned < requests {
		t.Errorf("recorded %d abandoned spans for %d always-hedged requests", abandoned, requests)
	}
	assertConnected(t, spans)
}

// TestRetrySpansRecorded kills one replica while traced fan-outs are in
// flight on it (retries only fire on transport-class failures, never on
// application errors) and checks both attempts surface in the trace: the
// failed attempt carrying its connection error, the re-issue annotated
// "retry", and the two parented as siblings under the request's span.
func TestRetrySpansRecorded(t *testing.T) {
	rec := trace.NewRecorder("test", 1<<16)
	// Replica A holds each request 50ms and reports the first one to enter
	// its handler, so the kill below provably lands on in-flight work.
	var inA atomic.Int32
	holdA := echoAfter(50 * time.Millisecond)
	addrA, leafA := startSpanLeaf(t, rec, func(method string, payload []byte) ([]byte, error) {
		inA.Add(1)
		return holdA(method, payload)
	})
	addrB, _ := startSpanLeaf(t, rec, echoAfter(10*time.Millisecond))
	addr, mt := startTailMidTier(t, [][]string{{addrA, addrB}}, &Options{
		Workers: 4,
		Spans:   rec,
		EdgePolicy: EdgePolicy{Tail: TailPolicy{
			LeafRetries:      2,
			RetryBudgetRatio: 10,
			RetryBudgetBurst: 1 << 20,
		}},
	}, nil)

	// Launch a burst of traced requests so join-the-shortest-queue spreads
	// in-flight attempts over both replicas, then kill replica A under
	// them.  Its pending attempts fail with a connection error, and every
	// retry lands on replica B (maybeRetry excludes the failed replica).
	const requests = 32
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for g := 0; g < requests; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := rpc.Dial(addr, &rpc.ClientOptions{Spans: rec})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			call := c.GoSpan("work", []byte("x"), trace.NewRootContext(), nil, nil)
			<-call.Done
			if call.Err != nil {
				errs <- call.Err
			}
		}()
	}
	// Wait until A is executing a request, give the rest of the burst a
	// moment to reach a replica, then kill A while they are pending —
	// closing earlier risks a request issuing its primary to the
	// already-dead replica and burning its retries on the same corpse (a
	// fresh JSQ pick favours the idle dead replica).
	for deadline := time.Now().Add(5 * time.Second); inA.Load() == 0; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("replica A never received a request")
		}
	}
	time.Sleep(5 * time.Millisecond)
	leafA.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if mt.Stats().Retries == 0 {
		t.Fatal("no retries fired: the leaf kill raced past the in-flight window")
	}

	spans := snapshotWhen(t, rec, func(spans []trace.Span) bool {
		for i := range spans {
			if spans[i].HasNote("retry") {
				return true
			}
		}
		return false
	})
	retries := 0
	for i := range spans {
		s := &spans[i]
		if !s.HasNote("retry") {
			continue
		}
		retries++
		if s.Kind != trace.KindClient {
			t.Errorf("retry span has kind %q, want client", s.Kind)
		}
		// The superseded attempt must be a sibling: normally recorded with
		// the transport error that triggered the retry, or — when the
		// failure races attempt registration — retired by the cancel sweep
		// as an abandoned loser.
		sibling := false
		for j := range spans {
			w := &spans[j]
			if w.TraceID == s.TraceID && w.ParentID == s.ParentID &&
				w.SpanID != s.SpanID && (w.Err != "" || w.HasNote("abandoned")) {
				sibling = true
				break
			}
		}
		if !sibling {
			t.Errorf("retry span %x in trace %x has no superseded sibling attempt", s.SpanID, s.TraceID)
		}
	}
	if retries == 0 {
		t.Fatal("retries fired but no attempt span carries the retry note")
	}
	failed := 0
	for i := range spans {
		if spans[i].Kind == trace.KindClient && spans[i].Err != "" {
			failed++
		}
	}
	if failed == 0 {
		t.Error("no attempt span carries the connection error that forced the retries")
	}
	assertConnected(t, spans)
}

// TestBatchedMemberSpansParented runs traced requests through a coalescing
// mid-tier and checks every batched member carries its own child span,
// parented under its OWN request's span — coalescing must not reparent
// members onto the carrier's trace.
func TestBatchedMemberSpansParented(t *testing.T) {
	rec := trace.NewRecorder("test", 1<<16)
	addrA, _ := startSpanLeaf(t, rec, echoAfter(0))
	addrB, _ := startSpanLeaf(t, rec, echoAfter(0))
	addr, _ := startTailMidTier(t, [][]string{{addrA}, {addrB}}, &Options{
		Workers:    4,
		Spans:      rec,
		EdgePolicy: EdgePolicy{Batch: BatchPolicy{MaxBatch: 8, Delay: 200 * time.Microsecond}},
	}, nil)

	const goroutines, perG = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := rpc.Dial(addr, &rpc.ClientOptions{Spans: rec})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perG; i++ {
				call := c.GoSpan("work", []byte("x"), trace.NewRootContext(), nil, nil)
				<-call.Done
				if call.Err != nil {
					errs <- call.Err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const total = goroutines * perG
	spans := snapshotWhen(t, rec, func(spans []trace.Span) bool {
		n := 0
		for i := range spans {
			if spans[i].Kind == trace.KindServer && spans[i].ParentID != 0 && spans[i].Name == "work" {
				// one mid-tier server span (the members' parent, recorded
				// after the reply) and two leaf server spans per request
				n++
			}
		}
		return n >= 3*total
	})

	batched := 0
	byID := make(map[[2]trace.ID]*trace.Span, len(spans))
	for i := range spans {
		byID[[2]trace.ID{spans[i].TraceID, spans[i].SpanID}] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		if !s.HasNote("batched") {
			continue
		}
		batched++
		parent := byID[[2]trace.ID{s.TraceID, s.ParentID}]
		if parent == nil {
			t.Fatalf("batched member span %x: parent %x missing from trace %x",
				s.SpanID, s.ParentID, s.TraceID)
		}
		if parent.Kind != trace.KindServer {
			t.Errorf("batched member parented to %q span %s, want its request's server span",
				parent.Kind, parent.Name)
		}
	}
	// Every leaf call passes through the batcher in batching mode, and every
	// request fans out to both shards.
	if batched != 2*total {
		t.Errorf("%d batched member spans, want %d (one per leaf call)", batched, 2*total)
	}
	assertConnected(t, spans)
}

// TestAttemptTrackedAfterFireRecordsOnce pins who retires an attempt whose
// reply lands — and fires the slot — before the issuer has tracked it.  If
// the issuer gets the slot lock ahead of the cancel sweep, the sweep will
// still find the attempt and record it as the winner, so the issuer must
// not claim the span; only an attempt tracked after the sweep is the
// issuer's.  Both claiming was the one-span-too-many tree
// bench.TestTraceRunProducesConnectedTrees read about 1 run in 25 beside a
// CPU-bound neighbour: the same span ID recorded as abandoned and as winner.
func TestAttemptTrackedAfterFireRecordsOnce(t *testing.T) {
	root := trace.NewSampler(1).Context()
	slot := &fanoutSlot{}
	slot.attempts = slot.attemptsArr[:0]
	won := attempt{ref: (&rpc.Call{}).Ref(), span: root.Child()}

	slot.fired.Store(true) // the reply beat the issuer to the slot
	if fired, record, booked := slot.track(won); !fired || record || booked {
		t.Fatalf("tracked before the sweep: fired=%v record=%v won=%v, want the sweep to retire it", fired, record, booked)
	}
	if win, found := slot.cancelLosers(won.ref, time.Now()); !found || win.span != won.span {
		t.Fatalf("sweep did not find the tracked winner (found=%v)", found)
	}

	late := attempt{ref: (&rpc.Call{}).Ref(), span: root.Child()}
	if fired, record, booked := slot.track(late); !fired || !record || booked {
		t.Fatalf("tracked after the sweep: fired=%v record=%v won=%v, want the issuer to retire it as a loser", fired, record, booked)
	}

	// The sweep ran for an attempt it could not find yet — a leaf answering
	// on its poller beat the issuer to the slot lock: the issuer books the win.
	slot = &fanoutSlot{}
	slot.attempts = slot.attemptsArr[:0]
	slot.fired.Store(true)
	if _, found := slot.cancelLosers(won.ref, time.Now()); found {
		t.Fatal("sweep found an attempt nobody tracked")
	}
	if fired, record, booked := slot.track(won); !fired || !record || !booked {
		t.Fatalf("winner tracked after its own sweep: fired=%v record=%v won=%v, want the issuer to book it", fired, record, booked)
	}
}
