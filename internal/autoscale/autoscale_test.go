package autoscale

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
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

// t0 is the first poll's time; decision tests advance it by hand.
var t0 = time.Date(2018, 9, 30, 0, 0, 0, 0, time.UTC)

// stepper runs decide one poll at a time, an Interval apart unless a test
// moves now, and takes each action as a target that never fails would: it
// books the action and moves its leaf count.
type stepper struct {
	cfg    Config
	st     state
	now    time.Time
	leaves int
}

func newStepper(cfg Config, leaves int) *stepper {
	return &stepper{cfg: cfg.withDefaults(), now: t0, leaves: leaves}
}

func (d *stepper) poll(shed uint64, queue int) string {
	dir := d.step(core.TierStats{ShedLimit: shed, QueueDepth: queue}, d.now)
	d.now = d.now.Add(d.cfg.Interval)
	return dir
}

// step decides one poll of ts at now and takes the action decided.
func (d *stepper) step(ts core.TierStats, now time.Time) string {
	var act action
	ts.Leaves = d.leaves
	d.st, act = d.cfg.decide(d.st, ts, now)
	switch act.Dir {
	case "up":
		d.leaves++
	case "down":
		d.leaves--
	default:
		return act.Dir
	}
	d.st = d.cfg.acted(d.st, now)
	return act.Dir
}

// hot and cold are queue depths past and at the two thresholds; lukewarm is
// between them, neither hot nor cold.
const hot, lukewarm, cold = 10, 2, 0

// TestHysteresisDelaysScaleUp: fewer than upAfter consecutive hot polls do
// not act, a cold or lukewarm poll restarts the run, and upAfter consecutive
// hot polls do act.
func TestHysteresisDelaysScaleUp(t *testing.T) {
	d := newStepper(Config{MinLeaves: 2}, 2)
	var got []string
	for _, q := range []int{hot, cold, hot, lukewarm, hot, hot} {
		got = append(got, d.poll(0, q))
	}
	want := []string{"", "", "", "", "", "up"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts %q, want %q (upAfter %d)", got, want, upAfter)
	}
}

// TestCooldownHoldsActions: right after a scale-up the hysteresis run starts
// over, and breaches past it hold until cooldownPolls intervals have passed,
// measured in the time decide is handed, not in polls.
func TestCooldownHoldsActions(t *testing.T) {
	d := newStepper(Config{}, 1)
	var got []string
	for i := 0; i < 6; i++ {
		got = append(got, d.poll(0, hot))
	}
	want := []string{"", "up", "", "hold", "hold", "up"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts %q, want %q", got, want)
	}
	// The second up was at t0 + 5 intervals.  Breaches eight times an
	// interval take no action until the cooldown ends, and one a nanosecond
	// before its end holds; one at its end acts.
	upAt := t0.Add(5 * d.cfg.Interval)
	end := upAt.Add(cooldownPolls * d.cfg.Interval)
	breach := func(now time.Time) string { return d.step(core.TierStats{QueueDepth: hot}, now) }
	for now := upAt.Add(d.cfg.Interval / 8); now.Before(end); now = now.Add(d.cfg.Interval / 8) {
		if dir := breach(now); dir == "up" {
			t.Fatalf("%v after the up: scaled up inside the cooldown", now.Sub(upAt))
		}
	}
	if dir := breach(end.Add(-time.Nanosecond)); dir != "hold" {
		t.Fatalf("1ns before the cooldown ends: verdict %q, want hold", dir)
	}
	if dir := breach(end); dir != "up" {
		t.Fatalf("at the end of the cooldown: verdict %q, want up", dir)
	}
}

// TestScaleDownRespectsMinLeaves: downAfter consecutive cold polls shrink by
// one leaf, and sustained cold polls shrink only down to the floor, where
// they hold nothing either.
func TestScaleDownRespectsMinLeaves(t *testing.T) {
	d := newStepper(Config{MinLeaves: 3}, 4)
	for i := 1; i <= 100; i++ {
		dir := d.poll(0, cold)
		switch {
		case i == downAfter && dir != "down":
			t.Fatalf("poll %d: verdict %q, want down", i, dir)
		case i != downAfter && dir != "":
			t.Fatalf("poll %d: verdict %q, want none", i, dir)
		}
	}
	if d.leaves != 3 {
		t.Fatalf("leaves=%d, want floor 3", d.leaves)
	}
}

// TestShedDeltaTriggers: the shed counters are cumulative, so only a
// *growing* count marks a poll hot.  It drives the shell, Poll at a given
// time, so it also checks what the shell books: the event, its time, and a
// hold.
func TestShedDeltaTriggers(t *testing.T) {
	ft := &fakeTarget{leaves: 1}
	a := New(ft, Config{MinLeaves: 1})
	now := t0
	poll := func(shed uint64) {
		ft.set(core.TierStats{ShedLimit: shed})
		a.poll(now)
		now = now.Add(a.cfg.Interval)
	}
	// A large but static shed count (accumulated before the loop began)
	// must not trigger.
	for i := 0; i < 5; i++ {
		poll(500)
	}
	if ft.ups != 0 {
		t.Fatalf("static shed count triggered scale-up")
	}
	// Growth does.
	poll(501)
	upAt := now
	poll(502)
	if ft.ups != 1 {
		t.Fatalf("ups=%d after shed growth, want 1", ft.ups)
	}
	ev := a.Events()
	want := Event{When: upAt, Dir: "up", Shard: 1, Leaves: 2, Reason: "sheds"}
	if len(ev) != 1 || ev[0] != want {
		t.Fatalf("events=%+v, want [%+v]", ev, want)
	}
	// A new hot run inside the cooldown holds, and the shell counts it.
	poll(503)
	poll(504)
	if ft.ups != 1 || a.Counters()[telemetry.ScaleHold] != 1 {
		t.Fatalf("ups=%d holds=%d in the cooldown, want 1 and 1", ft.ups, a.Counters()[telemetry.ScaleHold])
	}
}

// TestFailedScaleUpRetries drives the shell with an actuator that fails.  A
// failed scale-up books an error and no event, starts no cooldown and keeps
// the hot run, so the next hot poll tries again; the first one that
// succeeds books the event and starts the cooldown.
func TestFailedScaleUpRetries(t *testing.T) {
	errFull := errors.New("no capacity")
	ft := &fakeTarget{leaves: 1, upErr: errFull}
	ft.set(core.TierStats{QueueDepth: hot})
	a := New(ft, Config{})
	now := t0
	poll := func() {
		a.poll(now)
		now = now.Add(a.cfg.Interval)
	}
	for i := 1; i <= 4; i++ {
		poll()
		if got, want := a.Counters()[telemetry.ScaleError], uint64(max(i-upAfter+1, 0)); got != want {
			t.Fatalf("poll %d: %d scale errors, want %d", i, got, want)
		}
	}
	if a.LastErr() != errFull || len(a.Events()) != 0 || a.Counters()[telemetry.ScaleHold] != 0 {
		t.Fatalf("after failed ups: LastErr %v, events %+v, holds %d; want %v, none, 0",
			a.LastErr(), a.Events(), a.Counters()[telemetry.ScaleHold], errFull)
	}
	ft.mu.Lock()
	ft.upErr = nil
	ft.mu.Unlock()
	upAt := now
	poll()
	want := Event{When: upAt, Dir: "up", Shard: 1, Leaves: 2, Reason: "queue-depth"}
	if ev := a.Events(); ft.ups != 1 || len(ev) != 1 || ev[0] != want {
		t.Fatalf("ups=%d events=%+v after the actuator recovered, want 1 and [%+v]", ft.ups, ev, want)
	}
	for i := 1; i < cooldownPolls; i++ {
		poll()
	}
	if ft.ups != 1 || a.Counters()[telemetry.ScaleError] != 3 {
		t.Fatalf("ups=%d errors=%d inside the cooldown, want 1 and 3", ft.ups, a.Counters()[telemetry.ScaleError])
	}
}

// TestDecideNeverFlapsProperty drives decide through random signals, at
// random gaps of half to two intervals, and checks it against the rules
// stated plainly: actions lie at least the cooldown apart, an up follows
// upAfter hot polls in a row and a down downAfter cold ones, and the leaf
// count stays within its bounds.
func TestDecideNeverFlapsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		minL := 1 + rng.Intn(3)
		d := newStepper(Config{MinLeaves: minL, MaxLeaves: minL + rng.Intn(4)}, minL)
		var shed, prevShed uint64
		var lastAct time.Time
		var queue, hotRun, coldRun int
		for i := 0; i < 1000; i++ {
			// Signals hold for ten polls on average, so both runs complete.
			if rng.Intn(10) == 0 {
				queue = []int{cold, lukewarm, hot}[rng.Intn(3)]
			}
			if rng.Intn(30) == 0 {
				shed += uint64(1 + rng.Intn(50))
			}
			grew := i > 0 && shed > prevShed
			prevShed = shed
			isHot, isCold := queue == hot || grew, queue == cold && !grew
			hotRun, coldRun = hotRun+1, coldRun+1
			if !isHot {
				hotRun = 0
			}
			if !isCold {
				coldRun = 0
			}
			now := d.now
			d.now = now.Add(d.cfg.Interval/2 + time.Duration(rng.Int63n(int64(3*d.cfg.Interval/2))))
			dir := d.step(core.TierStats{ShedLimit: shed, QueueDepth: queue}, now)
			if dir != "up" && dir != "down" {
				continue
			}
			bad := (!lastAct.IsZero() && now.Sub(lastAct) < cooldownPolls*d.cfg.Interval) ||
				(dir == "up" && hotRun < upAfter) || (dir == "down" && coldRun < downAfter) ||
				d.leaves < minL || d.leaves > d.cfg.MaxLeaves
			if bad {
				t.Logf("seed %d poll %d: %s to %d leaves, hot run %d, cold run %d, %v after the last action",
					seed, i, dir, d.leaves, hotRun, coldRun, now.Sub(lastAct))
				return false
			}
			lastAct, hotRun, coldRun = now, 0, 0
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
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
	a := New(target, Config{MinLeaves: base, MaxLeaves: base + 1})
	// Polls run back to back; the time handed to each advances by one
	// interval, so the cooldown and the hysteresis hold as in a live loop.
	now := t0
	poll := func() {
		a.poll(now)
		now = now.Add(a.cfg.Interval)
	}

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
			poll()
		}
		wantUp.Store(false)
		for cl.NumLeaves() > base {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: scale-down stuck at %d leaves", cycle, cl.NumLeaves())
			}
			poll()
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
