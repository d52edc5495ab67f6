package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"musuite/internal/kernel"
	"musuite/internal/rpc"
	"musuite/internal/telemetry"
	"musuite/internal/wire"
)

// kernelTestStore is a tiny corpus for leaves that must exercise an engine.
func kernelTestStore(t *testing.T) *kernel.Store {
	t.Helper()
	s, err := kernel.FromFlat([]float32{0, 0, 0, 0, 1, 2, 3, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBatchingCoalescesFanout drives a batching mid-tier with enough
// concurrency that cross-request coalescing must occur, and checks the
// correctness invariants: every request merges once, every leaf call is
// answered, and the carrier traffic is visible in the stats.
func TestBatchingCoalescesFanout(t *testing.T) {
	addrA, leafA := startWorkLeaf(t, noDelay)
	addrB, leafB := startWorkLeaf(t, noDelay)
	addr, mt := startTailMidTier(t, [][]string{{addrA}, {addrB}}, &Options{
		Workers:    4,
		EdgePolicy: EdgePolicy{Batch: BatchPolicy{MaxBatch: 8, Delay: 200 * time.Microsecond}},
	}, nil)

	const goroutines, perG = 16, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := rpc.Dial(addr, nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < perG; i++ {
				if _, err := c.Call("q", []byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	const total = goroutines * perG
	if served := leafA.Stats().Served + leafB.Stats().Served; served != 2*total {
		t.Fatalf("leaves served %d calls, want %d", served, 2*total)
	}
	st := mt.Stats()
	if st.BatchMembers != 2*total {
		t.Fatalf("BatchMembers=%d, want every leaf call (%d) to pass through a batcher",
			st.BatchMembers, 2*total)
	}
	if st.BatchCarriers >= st.BatchMembers {
		t.Fatalf("carriers=%d members=%d: no coalescing happened under %d concurrent clients",
			st.BatchCarriers, st.BatchMembers, goroutines)
	}
	if st.BatchFlushSize+st.BatchFlushDeadline+st.BatchFlushShutdown != st.BatchCarriers {
		t.Fatalf("flush causes %d+%d+%d don't sum to carriers %d",
			st.BatchFlushSize, st.BatchFlushDeadline, st.BatchFlushShutdown, st.BatchCarriers)
	}
	if st.BatchDelay <= 0 {
		t.Fatalf("BatchDelay=%v, want positive while batching is enabled", st.BatchDelay)
	}
}

// TestCarrierMembersRunOneByOne sends a leaf one carrier of three members —
// two with the same payload around one whose handler panics — and checks what
// running them one by one through the leaf's one handler promises: the twins
// get equal replies, the poisoned member fails alone as a BatchItemError with
// nothing of its partial encoding in the carrier, and all three count as
// served.  Both ways of building a leaf are held to it.
func TestCarrierMembersRunOneByOne(t *testing.T) {
	builders := map[string]func() *Leaf{
		"NewLeafEncoded": func() *Leaf {
			return NewLeafEncoded(func(_ string, payload []byte, reply *wire.Encoder) error {
				reply.Raw([]byte("re:"))
				if string(payload) == "boom" {
					panic("poisoned member")
				}
				reply.Raw(payload)
				return nil
			}, nil)
		},
		"NewLeaf": func() *Leaf {
			return NewLeaf(func(_ string, payload []byte) ([]byte, error) {
				if string(payload) == "boom" {
					panic("poisoned member")
				}
				return append([]byte("re:"), payload...), nil
			}, nil)
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			leaf := build()
			addr, err := leaf.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer leaf.Close()
			pool, err := rpc.DialPool(addr, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			// Only the size bound can flush: the three members share a carrier.
			b := rpc.NewBatcher(pool, rpc.BatcherOptions{MaxBatch: 3, Delay: func() time.Duration { return time.Hour }})
			defer b.Close()
			var calls [3]*rpc.Call
			for i, payload := range []string{"same", "boom", "same"} {
				calls[i] = b.Go("m", []byte(payload), nil, nil)
			}
			for _, c := range calls {
				<-c.Done
			}
			for _, i := range []int{0, 2} {
				if calls[i].Err != nil || !bytes.Equal(calls[i].Reply, []byte("re:same")) {
					t.Fatalf("member %d: reply %q err %v, want \"re:same\"", i, calls[i].Reply, calls[i].Err)
				}
			}
			var be *rpc.BatchItemError
			if !errors.As(calls[1].Err, &be) || !strings.Contains(be.Msg, "poisoned member") {
				t.Fatalf("panicking member got %v, want a BatchItemError naming the panic", calls[1].Err)
			}
			if got := leaf.Stats().Served; got != 3 {
				t.Fatalf("leaf served %d, want 3 (every member of the carrier)", got)
			}
		})
	}
}

// TestProbeIsSumOfTierTables: every event is booked once, in the table of
// the tier it happened in, and forwarded to the shared probe — so a probe
// shared by a mid-tier and two leaves holds exactly the sum of the three
// tables, and no tier books the sys/os proxies the rpc and pool layers write
// to the probe directly.
func TestProbeIsSumOfTierTables(t *testing.T) {
	probe := telemetry.NewProbe()
	var leaves [2]*Leaf
	var groups [][]string
	for i := range leaves {
		opts := EnsureLeafKernel(&LeafOptions{Workers: 2, Probe: probe})
		eng, store := opts.Kernel, kernelTestStore(t)
		leaves[i] = NewLeaf(func(_ string, payload []byte) ([]byte, error) {
			_, err := eng.Scan(store, []float32{1, 2, 3, 4}, 1, nil)
			return payload, err
		}, opts)
		addr, err := leaves[i].Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(leaves[i].Close)
		groups = append(groups, []string{addr})
	}
	addr, mt := startTailMidTier(t, groups, &Options{
		Workers:    2,
		Probe:      probe,
		Admit:      AdmitPolicy{MaxInflight: 64, InitInflight: 64},
		EdgePolicy: EdgePolicy{Batch: BatchPolicy{MaxBatch: 4, Delay: 100 * time.Microsecond}},
	}, nil)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 50
	done := make(chan *rpc.Call, n)
	for i := 0; i < n; i++ {
		c.Go("q", []byte("x"), nil, done)
	}
	for i := 0; i < n; i++ {
		if call := <-done; call.Err != nil {
			t.Fatal(call.Err)
		}
	}

	tiers := []telemetry.Snapshot{mt.counters.Snapshot(), leaves[0].counters.Snapshot(), leaves[1].counters.Snapshot()}
	got := probe.Snapshot()
	for c := telemetry.Counter(0); c < telemetry.NumCounters; c++ {
		var sum uint64
		for _, tab := range tiers {
			sum += tab[c]
		}
		switch fam, _, _ := strings.Cut(c.String(), "."); fam {
		case "sys", "os":
			if sum != 0 {
				t.Errorf("%v: tiers booked %d; the proxies belong to the probe alone", c, sum)
			}
		default:
			if got[c] != sum {
				t.Errorf("%v: probe=%d, sum of tier tables=%d", c, got[c], sum)
			}
		}
	}
	// The sum is over something: each family the run exercises moved.
	for c, want := range map[telemetry.Counter]uint64{
		telemetry.TierServed: 3 * n, telemetry.AdmitAdmitted: n,
		telemetry.BatchMembers: 2 * n, telemetry.KernelScans: 2 * n,
	} {
		if got[c] != want {
			t.Errorf("%v = %d, want %d", c, got[c], want)
		}
	}
}

// TestBatchDisabledByDefault checks the zero-value policy leaves the batch
// counters untouched and the stats delay zeroed.
func TestBatchDisabledByDefault(t *testing.T) {
	addrA, _ := startWorkLeaf(t, noDelay)
	addr, mt := startTailMidTier(t, [][]string{{addrA}}, &Options{Workers: 2}, nil)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if _, err := c.Call("q", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	st := mt.Stats()
	if st.BatchCarriers != 0 || st.BatchMembers != 0 || st.BatchDelay != 0 {
		t.Fatalf("batching disabled yet stats show %+v", st)
	}
}

// TestBatchDelayAdaptsToLeafLatency checks the digest-tracked flush delay:
// after enough slow-leaf observations it must sit at batchFraction × the
// median rather than the bootstrap constant, and the batchMinDelay floor must
// hold when leaves are fast.
func TestBatchDelayAdaptsToLeafLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive digest tracking")
	}
	addrSlow, _ := startWorkLeaf(t, func() time.Duration { return 2 * time.Millisecond })
	addr, mt := startTailMidTier(t, [][]string{{addrSlow}}, &Options{
		Workers:    2,
		EdgePolicy: EdgePolicy{Batch: BatchPolicy{MaxBatch: 4}},
	}, nil)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The cached delay refreshes every hedgeRefreshEvery leaf latency
	// observations; push well past one refresh window.
	for i := 0; i < 2*hedgeRefreshEvery; i++ {
		if _, err := c.Call("q", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got := mt.def.batchDelay()
	// Median leaf latency ≥ 2ms, so batchFraction × p50 ≥ 250µs — far above
	// both the bootstrap constant and the floor.
	if got < 200*time.Microsecond {
		t.Fatalf("adaptive delay %v did not track the 2ms leaf digest", got)
	}

	// Fast leaves: the floor must hold.  Feed the digest sub-floor samples
	// directly; past a refresh window the cached delay must sit at the floor.
	addrFast, _ := startWorkLeaf(t, noDelay)
	_, mtFast := startTailMidTier(t, [][]string{{addrFast}}, &Options{
		Workers:    2,
		EdgePolicy: EdgePolicy{Batch: BatchPolicy{MaxBatch: 4}},
	}, nil)
	for i := 0; i < 2*hedgeRefreshEvery; i++ {
		mtFast.observeLeafLatency(time.Microsecond)
	}
	if got := mtFast.def.batchDelay(); got != batchMinDelay {
		t.Fatalf("floored delay = %v, want the %v floor", got, batchMinDelay)
	}
}

// TestBatchShutdownFlushDelivery checks close ordering: members still queued
// when the mid-tier closes are flushed (FlushShutdown) before the pools go
// down, so in-flight front-end requests complete rather than hang.
func TestBatchShutdownFlushDelivery(t *testing.T) {
	addrA, _ := startWorkLeaf(t, noDelay)
	mt := NewMidTier(func(ctx *Ctx) {
		ctx.FanoutAll("work", ctx.Req.Payload, func(results []LeafResult) {
			for _, r := range results {
				if r.Err != nil {
					ctx.ReplyError(r.Err)
					return
				}
			}
			ctx.Reply([]byte("ok"))
		})
	}, &Options{
		Workers: 2,
		// A flush delay far beyond the test's lifetime: only Close can
		// flush whatever sits in a queue at teardown.
		EdgePolicy: EdgePolicy{Batch: BatchPolicy{MaxBatch: 64, Delay: time.Hour}},
	})
	if err := mt.ConnectLeafGroups([][]string{{addrA}}); err != nil {
		t.Fatal(err)
	}
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan *rpc.Call, 4)
	for i := 0; i < 4; i++ {
		c.Go("q", []byte("x"), nil, done)
	}
	// Give the fan-out time to enqueue the leaf calls into the batcher,
	// then close: the shutdown flush must deliver them.
	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		mt.Close()
		close(closed)
	}()
	for i := 0; i < 4; i++ {
		select {
		case <-done:
			// Completed — either with the merged reply (shutdown flush
			// delivered the leaf call) or a close-time error; hanging
			// forever is the failure mode this test rejects.
		case <-time.After(5 * time.Second):
			t.Fatal("request hung across close: queued batch members were dropped, not flushed")
		}
	}
	// Close drops the front-end connection (failing the client's calls)
	// before it flushes the batchers, so the flush is only certain to have
	// been counted once Close returns.
	<-closed
	if got := mt.Stats().BatchFlushShutdown; got == 0 {
		t.Fatal("no shutdown flush recorded despite queued members at close")
	}
}
