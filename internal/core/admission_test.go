package core

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"musuite/internal/rpc"
)

// startAdmitMidTier builds a one-leaf mid-tier with admission enabled and
// a handler that sleeps work duration per request, returning a dialed client.
func startAdmitMidTier(t *testing.T, pol AdmitPolicy, opts Options, work time.Duration) *rpc.Client {
	t.Helper()
	leaf := NewLeaf(func(method string, payload []byte) ([]byte, error) {
		return payload, nil
	}, &LeafOptions{Workers: 2})
	leafAddr, err := leaf.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leaf.Close)

	opts.Admit = pol
	mt := NewMidTier(func(ctx *Ctx) {
		if work > 0 {
			time.Sleep(work)
		}
		forwardToLeaf(ctx, 0, "echo")
	}, &opts)
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

// TestAdmitLimitShedsTyped drives a limit-1 mid-tier with a slow handler
// from many concurrent callers: the overflow must come back as typed
// overload errors (never plain failures), successes must still flow, and
// the stats counters must account for every outcome.
func TestAdmitLimitShedsTyped(t *testing.T) {
	c := startAdmitMidTier(t, AdmitPolicy{MaxInflight: 1}, Options{Workers: 2, Dispatch: Dispatched}, 2*time.Millisecond)

	const callers = 8
	var ok, shed, other atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				_, err := c.Call("q", []byte("x"))
				switch {
				case err == nil:
					ok.Add(1)
				case rpc.IsOverload(err):
					shed.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("non-typed failures: %d", other.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded under admission")
	}
	if shed.Load() == 0 {
		t.Fatal("limit 1 with 8 callers shed nothing")
	}
	st, err := QueryStats(c)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShedLimit == 0 || st.Admitted == 0 {
		t.Fatalf("stats: admitted=%d shedLimit=%d", st.Admitted, st.ShedLimit)
	}
	if st.AdmitLimit < 1 {
		t.Fatalf("limit gauge %d below the floor of 1", st.AdmitLimit)
	}
}

// TestAIMDConvergence checks both directions of the control law: latencies
// riding at the floor grow the limit to MaxInflight; latencies far above
// the established floor collapse it toward the floor of 1 — and never below.
func TestAIMDConvergence(t *testing.T) {
	a := newAdmitController(AdmitPolicy{MaxInflight: 32}, nil)
	a.setLimit(4)
	feed := func(d time.Duration, n int) {
		for i := 0; i < n; i++ {
			if a.acquire() {
				a.release(d)
			}
		}
	}
	// Flat latency: every window's mean equals its min, so the limit
	// climbs one slot per window up to the cap.
	feed(time.Millisecond, 64*64)
	if got := a.currentLimit(); got != 32 {
		t.Fatalf("limit %d after low-latency regime, want 32", got)
	}
	// 10× the floor: multiplicative decrease to the min.
	feed(10*time.Millisecond, 64*64)
	if got := a.currentLimit(); got != 1 {
		t.Fatalf("limit %d after overload regime, want 1", got)
	}
	// Recovery: back at the floor, the limit climbs again.
	feed(time.Millisecond, 64*10)
	if got := a.currentLimit(); got < 5 {
		t.Fatalf("limit %d did not recover", got)
	}
}

// TestAIMDTrajectoryGolden pins the controller's fixed parameters — starting
// limit 16, floor 1, tolerance 2.0, slack 1 ms — by the limit it reaches after
// every window of seeded latencies.  At a 1 ms floor the latencies ride at the
// floor, at 10× it, and at the floor again; at a 100 µs floor, 5× stays
// inside the slack; at a 5 ms floor, 2.5× exceeds the tolerance.
func TestAIMDTrajectoryGolden(t *testing.T) {
	type phase struct {
		mult    float64
		windows int
	}
	for _, tc := range []struct {
		floor  time.Duration
		phases []phase
		want   []int
	}{
		{time.Millisecond, []phase{{1, 24}, {10, 24}, {1, 24}}, []int{
			17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 32, 32, 32, 32, 32, 32, 32, 32,
			28, 25, 22, 19, 17, 15, 13, 11, 9, 8, 7, 6, 5, 4, 3, 2, 1, 1, 1, 1, 1, 1, 1, 1,
			2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
		}},
		{100 * time.Microsecond, []phase{{1, 8}, {5, 8}}, []int{
			17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
		}},
		{5 * time.Millisecond, []phase{{1, 8}, {2.5, 8}}, []int{
			17, 18, 19, 20, 21, 22, 23, 24, 21, 18, 16, 14, 12, 10, 9, 8,
		}},
	} {
		a := newAdmitController(AdmitPolicy{MaxInflight: 32}, nil)
		rng := rand.New(rand.NewSource(20181031))
		var got []int
		for _, ph := range tc.phases {
			for w := 0; w < ph.windows; w++ {
				for i := 0; i < admitAdjustEvery; i++ {
					if !a.acquire() {
						t.Fatalf("floor %v: a lone request was shed", tc.floor)
					}
					jitter := time.Duration(rng.Int63n(int64(tc.floor / 5)))
					a.release(time.Duration(ph.mult*float64(tc.floor)) + jitter)
				}
				got = append(got, a.currentLimit())
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("floor %v: limits\n%v\nwant\n%v", tc.floor, got, tc.want)
		}
	}
}

// TestAIMDLimitBoundsProperty feeds random latency sequences and checks
// the invariants the control loop must never violate: the limit stays in
// [1, MaxInflight] and inflight returns to zero.
func TestAIMDLimitBoundsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		max := 1 + rng.Intn(64)
		a := newAdmitController(AdmitPolicy{MaxInflight: max}, nil)
		a.setLimit(int64(1 + rng.Intn(max)))
		for i := 0; i < 2000; i++ {
			if a.acquire() {
				a.release(time.Duration(rng.Intn(10_000_000)))
			}
			lim := a.currentLimit()
			if lim < 1 || lim > max {
				return false
			}
		}
		return a.currentInflight() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitNoDeadlockAtLimitOne hammers a limit-1 controller from many
// goroutines: every admitted slot is given back — by release, or by cancel
// for a request shed before its handler ran — so the system must keep
// making progress and end idle: the "never deadlocks at limit=1" half of
// the nightly property.
func TestAdmitNoDeadlockAtLimitOne(t *testing.T) {
	a := newAdmitController(AdmitPolicy{MaxInflight: 1}, nil)
	var admitted atomic.Uint64
	var wg sync.WaitGroup
	deadline := time.Now().Add(200 * time.Millisecond)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if a.acquire() {
					if admitted.Add(1)%2 == 0 {
						a.cancel()
					} else {
						a.release(time.Microsecond)
					}
				}
			}
		}()
	}
	wg.Wait()
	if admitted.Load() == 0 {
		t.Fatal("limit-1 controller admitted nothing: deadlocked shut")
	}
	if a.currentInflight() != 0 {
		t.Fatalf("inflight %d after quiesce", a.currentInflight())
	}
	if a.currentLimit() != 1 {
		t.Fatalf("limit %d, want 1", a.currentLimit())
	}
	// cancel frees the slot it took: the next arrival is admitted.
	if !a.acquire() || a.acquire() {
		t.Fatal("limit-1 controller did not admit exactly one")
	}
	a.cancel()
	if !a.acquire() {
		t.Fatal("cancel did not free the slot")
	}
	a.cancel()
	if got := a.currentInflight(); got != 0 {
		t.Fatalf("inflight %d after cancel", got)
	}
}

// TestOverloadDoesNotSpendRetryBudget verifies the budget interaction: a
// leaf replying with a typed shed is not retried even with retries armed,
// while a connection-class failure in the same configuration is.
func TestOverloadDoesNotSpendRetryBudget(t *testing.T) {
	var calls atomic.Uint64
	leaf := NewLeaf(func(method string, payload []byte) ([]byte, error) {
		calls.Add(1)
		return nil, rpc.Overloadf("leaf shedding")
	}, &LeafOptions{Workers: 1})
	leafAddr, err := leaf.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leaf.Close)

	mt := NewMidTier(func(ctx *Ctx) {
		forwardToLeaf(ctx, 0, "q")
	}, &Options{Workers: 2, EdgePolicy: EdgePolicy{Tail: TailPolicy{LeafRetries: 3, RetryBudgetRatio: 1, RetryBudgetBurst: 100}}})
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

	_, err = c.Call("q", []byte("x"))
	if !rpc.IsOverload(err) {
		t.Fatalf("want overload error through the fan-out, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("leaf called %d times: typed shed was retried", got)
	}
	st, qerr := QueryStats(c)
	if qerr != nil {
		t.Fatal(qerr)
	}
	if st.Retries != 0 {
		t.Fatalf("retries=%d after overload shed", st.Retries)
	}
}
