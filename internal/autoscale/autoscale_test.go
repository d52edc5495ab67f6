package autoscale

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"musuite/internal/core"
	"musuite/internal/services/router"
	"musuite/internal/telemetry"
)

// fakeTarget is a scriptable Target: stats are whatever the test sets,
// actions mutate a leaf counter.
type fakeTarget struct {
	mu     sync.Mutex
	st     core.TierStats
	ups    int
	downs  int
	upErr  error
	dnErr  error
	leaves int
}

func (f *fakeTarget) set(st core.TierStats) {
	f.mu.Lock()
	f.st = st
	f.mu.Unlock()
}

func (f *fakeTarget) Stats() (core.TierStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.st
	st.Leaves = f.leaves
	return st, nil
}

func (f *fakeTarget) ScaleUp() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.upErr != nil {
		return -1, f.upErr
	}
	f.ups++
	f.leaves++
	return f.leaves - 1, nil
}

func (f *fakeTarget) ScaleDown() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dnErr != nil {
		return f.dnErr
	}
	f.downs++
	f.leaves--
	return nil
}

// TestHysteresisDelaysScaleUp: a single hot poll must not act; UpAfter
// consecutive hot polls must.
func TestHysteresisDelaysScaleUp(t *testing.T) {
	ft := &fakeTarget{leaves: 2}
	a := New(ft, Config{UpAfter: 3, DownAfter: 100, MinLeaves: 2})

	hot := core.TierStats{QueueDepth: 10}
	cold := core.TierStats{}

	ft.set(hot)
	a.Poll()
	a.Poll()
	if ft.ups != 0 {
		t.Fatalf("scaled up after 2/3 hot polls")
	}
	// A cold poll resets the run.
	ft.set(cold)
	a.Poll()
	ft.set(hot)
	a.Poll()
	a.Poll()
	if ft.ups != 0 {
		t.Fatalf("hot run survived a cold poll")
	}
	a.Poll()
	if ft.ups != 1 {
		t.Fatalf("ups=%d after 3 consecutive hot polls, want 1", ft.ups)
	}
}

// TestCooldownHoldsActions: right after a scale-up, further breaches hold
// until the cooldown elapses.
func TestCooldownHoldsActions(t *testing.T) {
	ft := &fakeTarget{leaves: 1}
	a := New(ft, Config{
		UpAfter: 1, DownAfter: 100,
		Cooldown: 50 * time.Millisecond, MinLeaves: 1,
	})
	ft.set(core.TierStats{QueueDepth: 10})
	a.Poll()
	if ft.ups != 1 {
		t.Fatalf("first breach did not scale (ups=%d)", ft.ups)
	}
	a.Poll()
	a.Poll()
	if ft.ups != 1 {
		t.Fatalf("scaled during cooldown (ups=%d)", ft.ups)
	}
	if a.Counters()[telemetry.ScaleHold] == 0 {
		t.Fatal("cooldown holds not counted")
	}
	time.Sleep(60 * time.Millisecond)
	a.Poll()
	if ft.ups != 2 {
		t.Fatalf("did not scale after cooldown (ups=%d)", ft.ups)
	}
}

// TestScaleDownRespectsMinLeaves: sustained cold polls shrink only down to
// the floor.
func TestScaleDownRespectsMinLeaves(t *testing.T) {
	ft := &fakeTarget{leaves: 4}
	a := New(ft, Config{UpAfter: 100, DownAfter: 2, MinLeaves: 3})
	ft.set(core.TierStats{})
	for i := 0; i < 20; i++ {
		a.Poll()
	}
	if ft.leaves != 3 {
		t.Fatalf("leaves=%d, want floor 3", ft.leaves)
	}
	if ft.downs != 1 {
		t.Fatalf("downs=%d, want 1", ft.downs)
	}
}

// TestShedDeltaTriggers: the shed counters are cumulative, so only a
// *growing* count marks a poll hot.
func TestShedDeltaTriggers(t *testing.T) {
	ft := &fakeTarget{leaves: 1}
	a := New(ft, Config{UpAfter: 2, DownAfter: 100, MinLeaves: 1})
	// A large but static shed count (accumulated before the loop began)
	// must not trigger.
	ft.set(core.TierStats{ShedLimit: 500})
	for i := 0; i < 5; i++ {
		a.Poll()
	}
	if ft.ups != 0 {
		t.Fatalf("static shed count triggered scale-up")
	}
	// Growth does.
	ft.set(core.TierStats{ShedLimit: 501})
	a.Poll()
	ft.set(core.TierStats{ShedLimit: 502})
	a.Poll()
	if ft.ups != 1 {
		t.Fatalf("ups=%d after shed growth, want 1", ft.ups)
	}
	ev := a.Events()
	if len(ev) != 1 || ev[0].Reason != "sheds" || ev[0].Dir != "up" {
		t.Fatalf("events=%+v", ev)
	}
}

// TestSpareTargetPool walks the pool through up/down cycles and the error
// edges: exhaustion, nothing-to-drain, and an actuator failure returning
// the group to the pool.
func TestSpareTargetPool(t *testing.T) {
	added := map[int][]string{}
	next := 3 // baseline shards 0..2
	var addErr, drainErr error
	st := NewSpareTarget(
		func() (core.TierStats, error) { return core.TierStats{}, nil },
		func(addrs []string) (int, error) {
			if addErr != nil {
				return -1, addErr
			}
			shard := next
			next++
			added[shard] = addrs
			return shard, nil
		},
		func(shard int) error {
			if drainErr != nil {
				return drainErr
			}
			delete(added, shard)
			return nil
		},
		[][]string{{"a:1", "a:2"}, {"b:1"}},
	)

	if st.Spares() != 2 {
		t.Fatalf("spares=%d", st.Spares())
	}
	if err := st.ScaleDown(); !errors.Is(err, ErrNothingAdded) {
		t.Fatalf("drain with nothing added: %v", err)
	}
	s1, err := st.ScaleUp()
	if err != nil {
		t.Fatal(err)
	}
	if _, err = st.ScaleUp(); err != nil {
		t.Fatal(err)
	}
	if _, err = st.ScaleUp(); !errors.Is(err, ErrNoSpares) {
		t.Fatalf("scale-up past the pool: %v", err)
	}
	// A failing drain keeps the group added.
	drainErr = errors.New("drain refused")
	if err = st.ScaleDown(); err == nil {
		t.Fatal("drain error swallowed")
	}
	drainErr = nil
	if err = st.ScaleDown(); err != nil {
		t.Fatal(err)
	}
	if err = st.ScaleDown(); err != nil {
		t.Fatal(err)
	}
	if len(added) != 0 {
		t.Fatalf("groups left in service: %v", added)
	}
	if st.Spares() != 2 {
		t.Fatalf("pool not refilled: %d", st.Spares())
	}
	// A failing add returns the spare.
	addErr = errors.New("dial failed")
	if _, err = st.ScaleUp(); err == nil {
		t.Fatal("add error swallowed")
	}
	if st.Spares() != 2 {
		t.Fatalf("spare lost on failed add: %d", st.Spares())
	}
	_ = s1
}

// churnCycles is the scale-up/drain cycle count for the churn soak, raised
// to 200 by the nightly job via MUSUITE_AUTOSCALE_CYCLES.
func churnCycles(t *testing.T) int {
	if s := os.Getenv("MUSUITE_AUTOSCALE_CYCLES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad MUSUITE_AUTOSCALE_CYCLES %q", s)
		}
		return n
	}
	if testing.Short() {
		return 2
	}
	return 6
}

// TestAutoscaleChurnStress runs the autoscaler against a live Router
// cluster, alternating synthetic hot/cold signals so the loop adds and
// drains real leaf nodes for N full cycles while client traffic runs —
// every request must succeed through the churn.  The nightly job runs 200
// cycles under -race.
func TestAutoscaleChurnStress(t *testing.T) {
	cycles := churnCycles(t)
	const base = 2

	cl, err := router.StartCluster(router.ClusterConfig{
		Leaves:   base,
		Replicas: 1,
		MidTier:  core.Options{Workers: 4},
		Leaf:     core.LeafOptions{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Direction state: hot until a leaf is added, cold until it drains.
	var wantUp atomic.Bool
	wantUp.Store(true)
	target := Funcs{
		StatsFn: func() (core.TierStats, error) {
			st := cl.MidTier().Stats()
			if wantUp.Load() {
				st.QueueDepth = 100 // synthetic hot signal
			} else {
				st.QueueDepth = 0
			}
			return st, nil
		},
		UpFn: cl.AddLeaf,
		DownFn: func() error {
			return cl.DrainLeaf(cl.NumLeaves()-1, 10*time.Second)
		},
	}
	a := New(target, Config{
		UpAfter: 1, DownAfter: 1,
		Cooldown:  time.Nanosecond,
		MinLeaves: base, MaxLeaves: base + 1,
	})

	// Client traffic through the whole churn.
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		client, err := router.DialClient(cl.Addr, nil)
		if err != nil {
			errCh <- err
			return
		}
		defer client.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("churn-%d", i%64)
			if err := client.Set(key, []byte("v")); err != nil {
				errCh <- fmt.Errorf("set %s: %w", key, err)
				return
			}
			if _, _, err := client.Get(key); err != nil {
				errCh <- fmt.Errorf("get %s: %w", key, err)
				return
			}
		}
	}()

	deadline := time.Now().Add(2 * time.Minute)
	for cycle := 0; cycle < cycles; cycle++ {
		wantUp.Store(true)
		for cl.NumLeaves() <= base {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: scale-up stuck at %d leaves", cycle, cl.NumLeaves())
			}
			a.Poll()
		}
		wantUp.Store(false)
		for cl.NumLeaves() > base {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: scale-down stuck at %d leaves", cycle, cl.NumLeaves())
			}
			a.Poll()
		}
	}
	close(stop)
	<-clientDone
	select {
	case err := <-errCh:
		t.Fatalf("client traffic failed during churn: %v", err)
	default:
	}

	st := a.Counters()
	if st[telemetry.ScaleUp] != uint64(cycles) || st[telemetry.ScaleDown] != uint64(cycles) {
		t.Fatalf("ups=%d downs=%d, want %d each", st[telemetry.ScaleUp], st[telemetry.ScaleDown], cycles)
	}
	if err := a.LastErr(); err != nil {
		t.Fatalf("autoscaler recorded error: %v", err)
	}
}

// TestStartStopLifecycle: the background loop starts, polls, and stops
// idempotently.
func TestStartStopLifecycle(t *testing.T) {
	ft := &fakeTarget{leaves: 1}
	ft.set(core.TierStats{})
	a := New(ft, Config{Interval: time.Millisecond, MinLeaves: 1})
	a.Start()
	a.Start() // second Start is a no-op
	deadline := time.Now().Add(time.Second)
	for a.Counters()[telemetry.ScalePoll] == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.Counters()[telemetry.ScalePoll] == 0 {
		t.Fatal("background loop never polled")
	}
	a.Stop()
	a.Stop() // idempotent
}
