package core

import (
	"math/rand"
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
	c := startAdmitMidTier(t, AdmitPolicy{
		MaxInflight: 1, InitInflight: 1, MinInflight: 1,
	}, Options{Workers: 2, Dispatch: Dispatched}, 2*time.Millisecond)

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
		t.Fatalf("limit gauge %d below MinInflight", st.AdmitLimit)
	}
}

// TestAdmitDeadlineShed sets a deadline smaller than the handler's service
// time: once the p99 estimate exists, dispatched requests whose remaining
// budget cannot cover it are shed typed at worker pickup.
func TestAdmitDeadlineShed(t *testing.T) {
	c := startAdmitMidTier(t, AdmitPolicy{
		MaxInflight: 64, Deadline: 500 * time.Microsecond,
	}, Options{Workers: 1, Dispatch: Dispatched}, 2*time.Millisecond)

	// Concurrent bursts make queue wait exceed the 500µs budget.
	var shed atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := c.Call("q", []byte("x")); rpc.IsOverload(err) {
					shed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	st, err := QueryStats(c)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShedDeadline == 0 {
		t.Fatalf("no deadline sheds (typed sheds seen: %d, stats: %+v)", shed.Load(), st)
	}
}

// TestAdmitPriorityHeadroom exercises the controller directly: with the
// normal-priority limit full, high-priority requests still fit in the
// headroom, so overload sheds normal traffic first.
func TestAdmitPriorityHeadroom(t *testing.T) {
	a := newAdmitController(AdmitPolicy{
		MaxInflight: 100, InitInflight: 10, PriorityHeadroom: 0.5,
	}, nil)
	for i := 0; i < 10; i++ {
		if !a.acquire(PriorityNormal) {
			t.Fatalf("acquire %d within limit shed", i)
		}
	}
	if a.acquire(PriorityNormal) {
		t.Fatal("normal admitted past the limit")
	}
	for i := 0; i < 5; i++ {
		if !a.acquire(PriorityHigh) {
			t.Fatalf("high-priority acquire %d within headroom shed", i)
		}
	}
	if a.acquire(PriorityHigh) {
		t.Fatal("high-priority admitted past limit+headroom")
	}
	for i := 0; i < 15; i++ {
		a.cancel()
	}
	if got := a.currentInflight(); got != 0 {
		t.Fatalf("inflight %d after full release", got)
	}
}

// TestAIMDConvergence checks both directions of the control law: latencies
// riding at the floor grow the limit to MaxInflight; latencies far above
// the established floor collapse it toward MinInflight — and never below.
func TestAIMDConvergence(t *testing.T) {
	a := newAdmitController(AdmitPolicy{
		MaxInflight: 32, InitInflight: 4, MinInflight: 1, Tolerance: 2,
	}, nil)
	feed := func(d time.Duration, n int) {
		for i := 0; i < n; i++ {
			if a.acquire(PriorityNormal) {
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
	// 10× the floor with tolerance 2: multiplicative decrease to the min.
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

// TestAIMDLimitBoundsProperty feeds random latency sequences and checks
// the invariants the control loop must never violate: the limit stays in
// [MinInflight, MaxInflight] and inflight returns to zero.
func TestAIMDLimitBoundsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		max := 1 + rng.Intn(64)
		a := newAdmitController(AdmitPolicy{
			MaxInflight:  max,
			InitInflight: 1 + rng.Intn(max),
			MinInflight:  1,
		}, nil)
		for i := 0; i < 2000; i++ {
			if a.acquire(Priority(rng.Intn(2))) {
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
// goroutines: every admitted slot is released, so the system must keep
// making progress and end idle — the "never deadlocks at limit=1" half of
// the nightly property.
func TestAdmitNoDeadlockAtLimitOne(t *testing.T) {
	a := newAdmitController(AdmitPolicy{
		MaxInflight: 1, InitInflight: 1, MinInflight: 1,
	}, nil)
	var admitted atomic.Uint64
	var wg sync.WaitGroup
	deadline := time.Now().Add(200 * time.Millisecond)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if a.acquire(PriorityNormal) {
					admitted.Add(1)
					a.release(time.Microsecond)
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
	if a.currentLimit() < 1 {
		t.Fatalf("limit %d dropped below 1", a.currentLimit())
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
