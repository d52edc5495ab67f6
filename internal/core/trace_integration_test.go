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

// serverSpans filters the mid-tier's own server spans out of a recorder that
// also holds its per-attempt client spans.
func serverSpans(rec *trace.Recorder) []trace.Span {
	var out []trace.Span
	for _, s := range rec.Snapshot() {
		if s.Kind == trace.KindServer {
			out = append(out, s)
		}
	}
	return out
}

// TestServerSpanCarriesStageRecord drives traced requests through the
// mid-tier and reads each one's stage record off its server span: every
// stamp in order, the queue stages present under Dispatched (the whole
// dispatch pipeline) and absent under Inline and under the zero-value
// Options — lone requests, which run on their poller — and the five segments
// never accounting for more than the span's duration.
func TestServerSpanCarriesStageRecord(t *testing.T) {
	for _, mode := range []DispatchMode{DispatchAuto, Dispatched, Inline} {
		t.Run(mode.String(), func(t *testing.T) {
			leafAddrs := make([]string, 2)
			for i := range leafAddrs {
				leafAddrs[i], _ = startLeaf(t, nil)
			}
			rec := trace.NewRecorder("mid", 0)
			// A request's stamp record is not recycled, so the handler can
			// keep it for the test to read once the span is in.
			var mu sync.Mutex
			var kept []*trace.Stamps
			mt := NewMidTier(func(ctx *Ctx) {
				mu.Lock()
				kept = append(kept, ctx.tr)
				mu.Unlock()
				ctx.FanoutAll("echo", ctx.Req.Payload, func(results []LeafResult) {
					ctx.Reply(results[0].Reply)
				})
			}, &Options{Dispatch: mode, Workers: 2, ResponseThreads: 2, Spans: rec})
			if err := mt.ConnectLeaves(leafAddrs); err != nil {
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

			const n = 25
			for i := 0; i < n; i++ {
				tracedCall(t, c)
			}
			// The server span is recorded after the reply is written.
			waitFor(t, "every server span", func() bool { return len(serverSpans(rec)) >= n })
			spans := serverSpans(rec)
			if len(spans) != n {
				t.Fatalf("%d server spans for %d traced requests", len(spans), n)
			}
			for _, s := range spans {
				st := s.Stages
				if st == nil {
					t.Fatalf("server span without a stage record: %+v", s)
				}
				if s.Duration <= 0 || time.Duration(s.Duration) > 5*time.Second {
					t.Fatalf("implausible duration %v: %s", time.Duration(s.Duration), st)
				}
				if sum := st.Sum(); sum > time.Duration(s.Duration) {
					t.Fatalf("segments sum to %v, span lasted %v: %s", sum, time.Duration(s.Duration), st)
				}
				if queued := st.Handoff > 0; queued != (mode == Dispatched) {
					t.Fatalf("hand-off recorded=%v under %v: %s", queued, mode, st)
				}
				if mode != Dispatched && st.Queue != 0 {
					t.Fatalf("queue wait without a queue: %s", st)
				}
				// The leaf round trip must account for real time.
				if st.LeafWait <= 0 {
					t.Fatalf("zero leaf wait: %s", st)
				}
				if len(s.Notes) != 0 {
					t.Fatalf("stage record leaked into notes: %v", s.Notes)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for _, tr := range kept {
				var prev time.Duration
				for s := trace.StageEnqueued; s <= trace.StageReplySent; s++ {
					at := tr.At(s)
					if at == 0 && s == trace.StageEnqueued && mode != Dispatched {
						continue // no hand-off: the poller ran the handler
					}
					if at == 0 || at < prev {
						t.Fatalf("stage %d stamped at %v, its predecessor at %v", s, at, prev)
					}
					prev = at
				}
			}
		})
	}
}

// TestSamplingYieldsExactStageSpans: the front end's sampler is the only
// sampling rule — 1-in-N there yields exactly ⌊n/N⌋ mid-tier server spans,
// each with its stage record, and the unsampled requests leave nothing.
func TestSamplingYieldsExactStageSpans(t *testing.T) {
	leafAddr, _ := startLeaf(t, nil)
	rec := trace.NewRecorder("mid", 0)
	addr, _ := startMidTier(t, []string{leafAddr}, &Options{Workers: 2, Spans: rec})
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n, every = 103, 5
	sampler := trace.NewSampler(every)
	for i := 0; i < n; i++ {
		call := c.GoSpan("echo1", []byte("x"), sampler.Context(), nil, nil)
		<-call.Done
		if call.Err != nil {
			t.Fatal(call.Err)
		}
	}
	waitFor(t, "every sampled request's span", func() bool { return len(serverSpans(rec)) >= n/every })
	spans := serverSpans(rec)
	if len(spans) != n/every {
		t.Fatalf("%d server spans, want %d", len(spans), n/every)
	}
	for _, s := range spans {
		if s.Stages == nil || s.Stages.LeafWait <= 0 {
			t.Fatalf("sampled span without its stages: %+v", s)
		}
	}
}

// TestTwoEdgeFanoutsStampConcurrently: a handler fans one request out on
// two named edges at once, so the two fan-outs' last responses land on
// different response threads and stamp the same stage together.  The first
// stamp wins; under -race this is the test of the lock-free record.
func TestTwoEdgeFanoutsStampConcurrently(t *testing.T) {
	rec := trace.NewRecorder("mid", 0)
	mt := NewMidTier(func(ctx *Ctx) {
		var mu sync.Mutex
		pending := 2
		merge := func(results []LeafResult) {
			mu.Lock()
			pending--
			last := pending == 0
			mu.Unlock()
			if last {
				ctx.Reply(results[0].Reply)
			}
		}
		for _, name := range []string{"left", "right"} {
			ec, err := ctx.Edge(name)
			if err != nil {
				ctx.ReplyError(err)
				return
			}
			ec.FanoutAll("echo", ctx.Req.Payload, merge)
		}
	}, &Options{ResponseThreads: 4, Spans: rec})
	for _, name := range []string{"left", "right"} {
		a, _ := startLeaf(t, nil)
		b, _ := startLeaf(t, nil)
		if err := mt.ConnectEdge(name, [][]string{{a}, {b}}, EdgePolicy{}); err != nil {
			t.Fatal(err)
		}
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

	const n = 200
	for i := 0; i < n; i++ {
		tracedCall(t, c)
	}
	waitFor(t, "every server span", func() bool { return len(serverSpans(rec)) >= n })
	for _, s := range serverSpans(rec) {
		st := s.Stages
		if st == nil || st.LeafWait <= 0 || st.Sum() > time.Duration(s.Duration) {
			t.Fatalf("two-edge request's span: dur=%v stages=%v", time.Duration(s.Duration), st)
		}
	}
}

// TestShedRequestKeepsItsSpan: a sampled request rejected before its handler
// runs — at the mid-tier's admission door, on its full dispatch queue, on a
// leaf's full queue — still records the server span, carrying the overload
// text and no stage record, so its trace has the shed under the failed
// client span.
func TestShedRequestKeepsItsSpan(t *testing.T) {
	// flood issues n traced calls at once against a tier whose handlers all
	// block on gate, waits for the sheds among them to be answered, opens
	// the gate, and returns how many were shed.
	flood := func(t *testing.T, c *rpc.Client, n, admitted int, gate chan struct{}) int {
		t.Helper()
		done := make(chan *rpc.Call, n)
		for i := 0; i < n; i++ {
			c.GoSpan("work", []byte("x"), trace.NewRootContext(), nil, done)
		}
		shed := 0
		for ; shed < n-admitted; shed++ {
			if call := <-done; !rpc.IsOverload(call.Err) {
				t.Fatalf("reply %d while the gate is shut: err=%v", shed, call.Err)
			}
		}
		close(gate)
		for i := shed; i < n; i++ {
			if call := <-done; rpc.IsOverload(call.Err) {
				shed++
			} else if call.Err != nil {
				t.Fatal(call.Err)
			}
		}
		return shed
	}
	// assertShedSpans checks rec holds exactly shed server spans that carry
	// text as their error, each parented and without stages.
	assertShedSpans := func(t *testing.T, rec *trace.Recorder, shed int, text string) {
		t.Helper()
		count := func() (n int) {
			for _, s := range serverSpans(rec) {
				if strings.Contains(s.Err, text) {
					n++
				}
			}
			return n
		}
		waitFor(t, "the shed requests' spans", func() bool { return count() >= shed })
		if got := count(); got != shed {
			t.Fatalf("%d spans carry %q, %d requests were shed", got, text, shed)
		}
		for _, s := range serverSpans(rec) {
			if strings.Contains(s.Err, text) && (s.Stages != nil || s.ParentID == 0 || s.Duration < 0) {
				t.Fatalf("shed span: %+v", s)
			}
		}
	}
	startGated := func(t *testing.T, opts *Options, gate chan struct{}) *rpc.Client {
		t.Helper()
		leafAddr, _ := startLeaf(t, nil)
		mt := NewMidTier(func(ctx *Ctx) {
			<-gate
			ctx.Reply(nil)
		}, opts)
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
		t.Cleanup(func() { c.Close() })
		return c
	}

	t.Run("admission door", func(t *testing.T) {
		rec := trace.NewRecorder("mid", 0)
		gate := make(chan struct{})
		c := startGated(t, &Options{
			Dispatch: Dispatched, Workers: 2, Spans: rec,
			Admit: AdmitPolicy{MaxInflight: 1, InitInflight: 1},
		}, gate)
		shed := flood(t, c, 6, 1, gate)
		assertShedSpans(t, rec, shed, "admission limit")
	})
	t.Run("dispatch queue", func(t *testing.T) {
		rec := trace.NewRecorder("mid", 0)
		gate := make(chan struct{})
		c := startGated(t, &Options{Dispatch: Dispatched, Workers: 1, MaxQueueDepth: 1, Spans: rec}, gate)
		// One request runs on the worker and one queues behind it.
		shed := flood(t, c, 8, 2, gate)
		assertShedSpans(t, rec, shed, "dispatch queue full")
	})
	t.Run("leaf queue", func(t *testing.T) {
		rec := trace.NewRecorder("leaf", 0)
		gate := make(chan struct{})
		entered := make(chan struct{}, 16)
		leaf := NewLeaf(func(string, []byte) ([]byte, error) {
			entered <- struct{}{}
			<-gate
			return nil, nil
		}, &LeafOptions{Spans: rec})
		// A leaf's queue is unbounded as shipped; bound it so it can fill.
		leaf.workers.Stop()
		leaf.workers = NewBoundedWorkerPool(1, 1, WaitBlocking, nil, telemetry.OverheadActiveExe)
		addr, err := leaf.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(leaf.Close)
		// A lone request runs on its connection's poller; with that one
		// parked on the gate, every later request meets the queue.
		blocker, err := rpc.Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer blocker.Close()
		blocker.Go("work", nil, nil, nil)
		<-entered
		c, err := rpc.Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// One request runs on the worker and one queues behind it.
		shed := flood(t, c, 8, 2, gate)
		assertShedSpans(t, rec, shed, "leaf dispatch queue full")
	})
}
