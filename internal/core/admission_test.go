package core

import (
	"fmt"
	"math"
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

// latencyProcess draws one request's latency.  The admission properties
// draw them independent of in-flight count: nothing queues, so the only
// right limit is the cap.
type latencyProcess func(rng *rand.Rand) time.Duration

// uniformAround draws uniformly from d·(1 ± frac).
func uniformAround(rng *rand.Rand, d time.Duration, frac float64) time.Duration {
	return time.Duration(float64(d) * (1 + frac*(2*rng.Float64()-1)))
}

// stationaryProcess derives one of three latency shapes from rng: one mode
// (±10 %); two modes 0.1–5 ms apart with 1–10 % of requests in the fast one;
// or a log-normal tail (σ 0.25–1).  Every base latency lies in 20 µs–5 ms.
func stationaryProcess(rng *rand.Rand) (string, latencyProcess) {
	base := time.Duration(20_000 + rng.Int63n(int64(5*time.Millisecond)))
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("one mode %v", base), func(r *rand.Rand) time.Duration {
			return uniformAround(r, base, 0.1)
		}
	case 1:
		gap := time.Duration(100_000 + rng.Int63n(int64(4900*time.Microsecond)))
		fast := 0.01 + 0.09*rng.Float64()
		return fmt.Sprintf("two modes %v and %v, %.1f%% fast", base, base+gap, 100*fast), func(r *rand.Rand) time.Duration {
			if r.Float64() < fast {
				return uniformAround(r, base, 0.04)
			}
			return uniformAround(r, base+gap, 0.04)
		}
	default:
		sigma := 0.25 + 0.75*rng.Float64()
		return fmt.Sprintf("log-normal %v σ %.2f", base, sigma), func(r *rand.Rand) time.Duration {
			return time.Duration(float64(base) * math.Exp(sigma*r.NormFloat64()))
		}
	}
}

// feedWindow runs one AIMD window through the controller, one request at a
// time, and returns the limit after it.
func feedWindow(t *testing.T, a *admitController, draw func() time.Duration) int {
	t.Helper()
	for i := 0; i < admitAdjustEvery; i++ {
		if !a.acquire() {
			t.Fatal("a lone request was shed")
		}
		a.release(draw())
	}
	return a.currentLimit()
}

// TestAIMDTwoModeLatencyKeepsTheCap is the cascade scenario's latch with no
// sockets and no clock.  A 100 µs sleep on a 250 Hz host usually takes
// ~1.1 ms and now and then returns in ~0.2 ms, so the scenario's store
// answers in two modes over 1 ms apart.  Nothing queues, so the limit must
// hold its cap of 8.  A floor that follows the rare fast mode, as a window
// minimum does, judges every window congested, and since a congested window
// never moves the floor, the limit falls to 1 and stays there.
func TestAIMDTwoModeLatencyKeepsTheCap(t *testing.T) {
	for _, fastPct := range []int{2, 5, 10} {
		a := newAdmitController(AdmitPolicy{MaxInflight: 8}, nil)
		rng := rand.New(rand.NewSource(20181031))
		first := true
		draw := func() time.Duration {
			if first || rng.Intn(100) < fastPct {
				first = false
				return 210 * time.Microsecond
			}
			return 1250*time.Microsecond + time.Duration(rng.Int63n(int64(100*time.Microsecond)))
		}
		var limits []int
		for w := 0; w < 40; w++ {
			limits = append(limits, feedWindow(t, a, draw))
		}
		if limits[39] != 8 {
			t.Errorf("%d%% fast: limit %d at window 40, want 8; by window: %v", fastPct, limits[39], limits)
		}
	}
}

// TestAIMDLivenessProperty: a fresh controller fed stationary latency, of one
// mode, two modes or a heavy tail, reaches MaxInflight.  It climbs one slot a
// window from min(16, MaxInflight), so K allows every climb 32 windows for
// the heavy tail's rare cuts.
func TestAIMDLivenessProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		maxIn := 1 + rng.Intn(64)
		name, proc := stationaryProcess(rng)
		a := newAdmitController(AdmitPolicy{MaxInflight: maxIn}, nil)
		k := max(maxIn-admitInitInflight, 0) + 32
		for w := 1; w <= k; w++ {
			if feedWindow(t, a, func() time.Duration { return proc(rng) }) == maxIn {
				return true
			}
		}
		t.Logf("seed %d, %s, MaxInflight %d: limit %d after %d windows", seed, name, maxIn, a.currentLimit(), k)
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAIMDProtectionProperty: once the floor has settled on stationary
// latency, a window whose every latency rides above max(2 × floor,
// floor + 1 ms) cuts the limit in that window.
func TestAIMDProtectionProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		maxIn := 2 + rng.Intn(63)
		name, proc := stationaryProcess(rng)
		a := newAdmitController(AdmitPolicy{MaxInflight: maxIn}, nil)
		for w := 0; w < 40; w++ {
			feedWindow(t, a, func() time.Duration { return proc(rng) })
		}
		before := a.currentLimit()
		a.mu.Lock()
		threshold := max(2*a.floor, a.floor+time.Millisecond)
		a.mu.Unlock()
		after := feedWindow(t, a, func() time.Duration { return threshold + proc(rng) })
		if before > 1 && after >= before {
			t.Logf("seed %d, %s, MaxInflight %d: limit %d → %d over a window above %v", seed, name, maxIn, before, after, threshold)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAIMDQueueingKeepsTheFloorProperty: latency that comes from queueing.
// A request takes the service time svc (±5 %) and, once the limit passes the
// knee, waits a uniform share of svc·g·(limit − knee) more.  Some requests
// do not wait, so a window's minimum stays near svc while its mean climbs a
// step with every slot the limit gains.  The knee is at or above the
// starting limit, so the first window, which seeds the floor, does not
// queue.  The floor must not climb with the mean: the limit must settle
// before the mean reaches twice the threshold, 2·max(2·svc, svc + 1 ms).  A
// floor that followed every clean window's mean would let it climb to
// MaxInflight, which lies past that point.
func TestAIMDQueueingKeepsTheFloorProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		svc := time.Duration(100e3 * math.Exp(rng.Float64()*math.Log(50)))
		g := 0.05 * math.Exp(rng.Float64()*math.Log(20))
		knee := admitInitInflight + rng.Intn(41)
		threshold := max(2*svc, svc+time.Millisecond)
		// The mean is svc·(1 + g·(limit − knee)/2), twice the threshold here.
		bound := knee + int(2*(2*float64(threshold)/float64(svc)-1)/g)
		maxIn := bound + 16
		a := newAdmitController(AdmitPolicy{MaxInflight: maxIn}, nil)
		var limits []int
		for w := 0; w < 3*maxIn; w++ {
			wait := float64(svc) * g * float64(max(a.currentLimit()-knee, 0))
			limits = append(limits, feedWindow(t, a, func() time.Duration {
				return time.Duration(float64(svc)*(0.95+0.1*rng.Float64()) + wait*rng.Float64())
			}))
		}
		for w := 2 * maxIn; w < len(limits); w++ {
			if limits[w] > bound {
				t.Logf("seed %d, svc %v, g %.3f, knee %d: limit %d at window %d, past %d; floor %v",
					seed, svc, g, knee, limits[w], w+1, bound, a.floor)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
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
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20_000; i++ {
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
