package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"musuite/internal/rpc"
)

// startWorkLeaf launches a leaf whose "work" handler sleeps delay() before
// echoing, modelling a replica with an injectable latency profile.
func startWorkLeaf(t testing.TB, delay func() time.Duration) (string, *Leaf) {
	t.Helper()
	leaf := NewLeaf(func(method string, payload []byte) ([]byte, error) {
		if d := delay(); d > 0 {
			time.Sleep(d)
		}
		out := make([]byte, len(payload))
		copy(out, payload)
		return out, nil
	}, &LeafOptions{Workers: 4})
	addr, err := leaf.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leaf.Close)
	return addr, leaf
}

// startTailMidTier wires a mid-tier that fans "work" to every shard and
// counts merge invocations, for hedging/cancellation assertions.
func startTailMidTier(t testing.TB, groups [][]string, opts *Options, merges *atomic.Uint64) (string, *MidTier) {
	t.Helper()
	mt := NewMidTier(func(ctx *Ctx) {
		ctx.FanoutAll("work", ctx.Req.Payload, func(results []LeafResult) {
			if merges != nil {
				merges.Add(1)
			}
			for _, r := range results {
				if r.Err != nil {
					ctx.ReplyError(r.Err)
					return
				}
			}
			ctx.Reply([]byte("ok"))
		})
	}, opts)
	if err := mt.ConnectLeafGroups(groups); err != nil {
		t.Fatal(err)
	}
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mt.Close)
	return addr, mt
}

func noDelay() time.Duration { return 0 }

func p99(lat []time.Duration) time.Duration {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)*99/100]
}

func TestReplicaGroupPicksLeastOutstanding(t *testing.T) {
	fastAddr, fast := startWorkLeaf(t, noDelay)
	slowAddr, slow := startWorkLeaf(t, func() time.Duration { return 5 * time.Millisecond })
	addr, _ := startTailMidTier(t, [][]string{{fastAddr, slowAddr}}, &Options{Workers: 4}, nil)

	const goroutines, perG = 8, 50
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

	fastServed, slowServed := fast.Stats().Served, slow.Stats().Served
	if fastServed+slowServed != goroutines*perG {
		t.Fatalf("served %d+%d, want %d total", fastServed, slowServed, goroutines*perG)
	}
	// Join-the-shortest-queue must steer the bulk of concurrent traffic
	// away from the 5ms replica.
	if fastServed <= 2*slowServed {
		t.Fatalf("fast replica served %d, slow %d: least-outstanding routing not biasing", fastServed, slowServed)
	}
}

func TestHedgingReducesTailLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive tail-latency measurement")
	}
	const requests = 500

	// Three shards, two replicas each.  One replica of shard 0 stalls
	// 25ms on every 16th of its requests — an intermittently slow leaf,
	// the classic tail scenario hedging targets.
	run := func(tail TailPolicy) (time.Duration, TierStats) {
		groups := make([][]string, 3)
		for s := range groups {
			for r := 0; r < 2; r++ {
				var delay func() time.Duration
				if s == 0 && r == 1 {
					var n atomic.Uint64
					delay = func() time.Duration {
						if n.Add(1)%16 == 0 {
							return 25 * time.Millisecond
						}
						return 0
					}
				} else {
					delay = noDelay
				}
				addr, _ := startWorkLeaf(t, delay)
				groups[s] = append(groups[s], addr)
			}
		}
		addr, mt := startTailMidTier(t, groups, &Options{Workers: 4, EdgePolicy: EdgePolicy{Tail: tail}}, nil)
		c, err := rpc.Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		lat := make([]time.Duration, 0, requests)
		for i := 0; i < requests; i++ {
			start := time.Now()
			if _, err := c.Call("q", []byte("x")); err != nil {
				t.Fatal(err)
			}
			lat = append(lat, time.Since(start))
		}
		return p99(lat), mt.Stats()
	}

	unhedgedP99, _ := run(TailPolicy{})
	hedgedP99, st := run(TailPolicy{HedgePercentile: 0.95, HedgeMinDelay: time.Millisecond})

	t.Logf("p99 unhedged=%v hedged=%v (hedges=%d wins=%d denied=%d)",
		unhedgedP99, hedgedP99, st.Hedges, st.HedgeWins, st.BudgetDenied)
	if st.Hedges == 0 {
		t.Fatal("no hedges issued under an intermittently slow replica")
	}
	if st.HedgeWins == 0 {
		t.Fatal("no hedge ever beat its 25ms-stalled primary")
	}
	if 2*hedgedP99 > unhedgedP99 {
		t.Fatalf("hedging p99=%v did not improve ≥2x over unhedged p99=%v", hedgedP99, unhedgedP99)
	}
}

func TestRetryBudgetCapsHedging(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive budget accounting")
	}
	// Both replicas always take 2ms, so with a 500µs fixed hedge delay
	// every request wants a hedge: a broadly degraded cluster where
	// unbudgeted hedging would double leaf traffic.
	slow := func() time.Duration { return 2 * time.Millisecond }
	addrA, leafA := startWorkLeaf(t, slow)
	addrB, leafB := startWorkLeaf(t, slow)
	addr, mt := startTailMidTier(t, [][]string{{addrA, addrB}}, &Options{
		Workers: 4,
		EdgePolicy: EdgePolicy{Tail: TailPolicy{
			HedgeDelay:       500 * time.Microsecond,
			RetryBudgetRatio: 0.1,
			RetryBudgetBurst: 5,
		}},
	}, nil)

	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const requests = 300
	for i := 0; i < requests; i++ {
		if _, err := c.Call("q", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Let abandoned hedge losers finish their server-side work before
	// reading the leaf counters.
	time.Sleep(50 * time.Millisecond)

	st := mt.Stats()
	// Budget supply: 5 burst tokens + 0.1 per primary → ≤ 35 hedges.
	const maxHedges = 5 + requests/10 + 1
	if st.Hedges > maxHedges {
		t.Fatalf("%d hedges issued, budget should cap at %d", st.Hedges, maxHedges)
	}
	if st.Hedges < 20 {
		t.Fatalf("only %d hedges issued, expected the budget to admit ~%d", st.Hedges, maxHedges)
	}
	if st.BudgetDenied < 200 {
		t.Fatalf("only %d hedges denied, expected the bucket to run dry (~%d denials)", st.BudgetDenied, requests-maxHedges)
	}
	extra := leafA.Stats().Served + leafB.Stats().Served - requests
	if extra > maxHedges {
		t.Fatalf("leaves served %d extra calls, budget should cap recovery traffic at %d", extra, maxHedges)
	}
}

func TestHedgeCancellationNoDoubleMerge(t *testing.T) {
	// Both replicas respond after ~3ms — far beyond the 500µs hedge
	// delay — so nearly every request has two in-flight attempts and
	// both eventually produce a response.  Exactly one may win the slot;
	// the merge must run once per request.
	slow := func() time.Duration { return 3 * time.Millisecond }
	addrA, _ := startWorkLeaf(t, slow)
	addrB, _ := startWorkLeaf(t, slow)
	var merges atomic.Uint64
	addr, mt := startTailMidTier(t, [][]string{{addrA, addrB}}, &Options{
		Workers: 4,
		EdgePolicy: EdgePolicy{Tail: TailPolicy{
			HedgeDelay:       500 * time.Microsecond,
			RetryBudgetRatio: 1.0,
			RetryBudgetBurst: 1000,
		}},
	}, &merges)

	const goroutines, perG = 8, 25
	var replies atomic.Uint64
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
				replies.Add(1)
			}
		}()
	}
	wg.Wait()
	// Give any erroneous duplicate deliveries time to surface.
	time.Sleep(50 * time.Millisecond)

	const total = goroutines * perG
	if got := replies.Load(); got != total {
		t.Fatalf("%d replies, want %d", got, total)
	}
	if got := merges.Load(); got != total {
		t.Fatalf("merge ran %d times for %d requests: hedge cancellation double-merged", got, total)
	}
	if st := mt.Stats(); st.Hedges == 0 {
		t.Fatalf("no hedges issued: test exercised nothing (stats=%+v)", st)
	}
}
