// Package autoscale closes the control loop the paper's §V saturation
// methodology leaves open: it watches a mid-tier's operational counters
// (core.TierStats — queue depth and the admission controller's shed
// deltas) and grows or shrinks the leaf topology through its add and drain
// operations (AddGroup/DrainGroup) in response.  Hysteresis — N consecutive
// breach polls before acting — and a post-action cooldown
// keep the loop from flapping on transient bursts, the failure mode that
// makes naive autoscalers amplify the load swings they exist to absorb.
// The policy is one pure step, decide, which is handed the poll's time;
// Poll is the shell that reads the clock, fetches stats and acts.
package autoscale

import (
	"errors"
	"sync"
	"time"

	"musuite/internal/core"
	"musuite/internal/telemetry"
)

// Target is the capacity surface the autoscaler drives: a stats source
// plus scale-up/scale-down actuators.  Funcs adapts closures over a
// deployment to it.
type Target interface {
	// Stats reports the observed tier's current counters.
	Stats() (core.TierStats, error)
	// ScaleUp adds one leaf group, returning its shard index.
	ScaleUp() (int, error)
	// ScaleDown drains one leaf group.
	ScaleDown() error
}

// Funcs adapts three closures to the Target interface.
type Funcs struct {
	StatsFn func() (core.TierStats, error)
	UpFn    func() (int, error)
	DownFn  func() error
}

// Stats implements Target.
func (f Funcs) Stats() (core.TierStats, error) { return f.StatsFn() }

// ScaleUp implements Target.
func (f Funcs) ScaleUp() (int, error) { return f.UpFn() }

// ScaleDown implements Target.
func (f Funcs) ScaleDown() error { return f.DownFn() }

// The loop's fixed parameters.  No experiment turns them.
const (
	// upQueueDepth marks a poll hot when the dispatch queue is at least
	// this deep.  Sheds since the previous poll always mark it hot.
	upQueueDepth = 4
	// upAfter and downAfter are the hysteresis depths: consecutive hot
	// (resp. cold) polls required before acting.  Shrinking is cheaper to
	// delay than growing.
	upAfter   = 2
	downAfter = 20
	// cooldownPolls is the minimum gap after an action before the next
	// one, in poll intervals: capacity changes need time to show up in
	// the signals, and acting on pre-change readings double-counts.
	cooldownPolls = 4
)

// Config tunes the control loop.  The zero value polls every 250ms and
// never shrinks below one leaf.
type Config struct {
	// Interval is the stats poll period (default 250ms).
	Interval time.Duration
	// MinLeaves and MaxLeaves bound the capacity the loop may reach.
	// MaxLeaves 0 means "whatever the target can provide".
	MinLeaves, MaxLeaves int
	// Probe receives the loop's scale.* counters alongside the
	// autoscaler's own table; nil disables the forwarding.
	Probe *telemetry.Probe
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.MinLeaves <= 0 {
		c.MinLeaves = 1
	}
	return c
}

// state is what the loop carries from one poll to the next.
type state struct {
	upRun, downRun int
	coolUntil      time.Time // no action before this
	prevShed       uint64
	havePrev       bool
}

// action is one poll's verdict.  Dir is "up" or "down" to act, "hold" for a
// breach withheld by the cooldown or a capacity bound, and "" otherwise.
type action struct {
	Dir, Reason string
}

// decide is the loop's policy for one poll of ts at now.  An action it
// returns has not happened yet: acted books it once the actuator succeeds,
// and a failed action leaves the hysteresis run standing, so the next hot
// poll tries again.
func (c Config) decide(st state, ts core.TierStats, now time.Time) (state, action) {
	// Shed deltas: any typed shed since the last poll is the strongest
	// "out of capacity" signal — the admission controller is refusing
	// work the cluster should be absorbing.
	shed := st.havePrev && ts.ShedLimit > st.prevShed
	st.prevShed, st.havePrev = ts.ShedLimit, true

	hot := shed || ts.QueueDepth >= upQueueDepth
	cold := !shed && ts.QueueDepth == 0
	switch {
	case hot:
		st.upRun, st.downRun = st.upRun+1, 0
	case cold:
		st.upRun, st.downRun = 0, st.downRun+1
	default:
		st.upRun, st.downRun = 0, 0
	}

	var act action
	switch {
	case hot && st.upRun >= upAfter && c.MaxLeaves > 0 && ts.Leaves >= c.MaxLeaves:
		return st, action{Dir: "hold"}
	case hot && st.upRun >= upAfter && shed:
		act = action{Dir: "up", Reason: "sheds"}
	case hot && st.upRun >= upAfter:
		act = action{Dir: "up", Reason: "queue-depth"}
	case cold && st.downRun >= downAfter && ts.Leaves > c.MinLeaves:
		act = action{Dir: "down", Reason: "idle"}
	default:
		return st, action{}
	}
	if now.Before(st.coolUntil) {
		return st, action{Dir: "hold"}
	}
	return st, act
}

// acted is st after an action taken at now: the hysteresis run starts over
// and the cooldown begins.
func (c Config) acted(st state, now time.Time) state {
	st.upRun, st.downRun = 0, 0
	st.coolUntil = now.Add(cooldownPolls * c.Interval)
	return st
}

// Event is one scale action taken by the loop, kept for reporting.
type Event struct {
	// When is the action time.
	When time.Time
	// Dir is "up" or "down".
	Dir string
	// Shard is the affected shard index (-1 when unknown, e.g. a drain
	// the target picks itself).
	Shard int
	// Leaves is the leaf count after the action.
	Leaves int
	// Reason summarizes the breached signal.
	Reason string
}

// Autoscaler runs the poll→decide→act loop on its own goroutine.
type Autoscaler struct {
	cfg    Config
	target Target
	// counters books the loop's decisions (the scale.* family): polls,
	// ups, downs, holds (breaches withheld by the cooldown or a capacity
	// bound) and errors (failed polls or actions).
	counters *telemetry.Table

	mu      sync.Mutex
	st      state
	events  []Event
	lastErr error
	stopCh  chan struct{}
	doneCh  chan struct{}
	started bool
	stopped bool
}

// New builds an autoscaler over target; Start arms it.
func New(target Target, cfg Config) *Autoscaler {
	return &Autoscaler{
		cfg:      cfg.withDefaults(),
		target:   target,
		counters: telemetry.NewTable(cfg.Probe.Table()),
		stopCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
}

// Start launches the control loop.
func (a *Autoscaler) Start() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.started && !a.stopped {
		a.started = true
		go a.loop()
	}
}

// Stop halts the loop and waits for it to exit.  Idempotent.
func (a *Autoscaler) Stop() {
	a.mu.Lock()
	if !a.stopped {
		a.stopped = true
		close(a.stopCh)
	}
	started := a.started
	a.mu.Unlock()
	if started {
		<-a.doneCh
	}
}

// Events returns a copy of the scale actions taken so far.
func (a *Autoscaler) Events() []Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Event, len(a.events))
	copy(out, a.events)
	return out
}

// Counters snapshots the loop's decision counters (the scale.* family).
func (a *Autoscaler) Counters() telemetry.Snapshot { return a.counters.Snapshot() }

// LastErr reports the most recent poll or action failure, nil if none.
func (a *Autoscaler) LastErr() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastErr
}

func (a *Autoscaler) loop() {
	defer close(a.doneCh)
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-a.stopCh:
			return
		case <-t.C:
			a.Poll()
		}
	}
}

// Poll runs one observe→decide→act cycle.  The loop calls it on every
// tick; tests (and step-driven harnesses) may call it directly on a
// non-Started autoscaler for deterministic pacing.
func (a *Autoscaler) Poll() { a.poll(time.Now()) }

// poll is Poll at a given time: it fetches the target's stats, hands them
// to decide, and takes the action decided.
func (a *Autoscaler) poll(now time.Time) {
	ts, err := a.target.Stats()
	a.mu.Lock()
	if err != nil {
		a.counters.Add(telemetry.ScaleError, 1)
		a.lastErr = err
		a.mu.Unlock()
		return
	}
	a.counters.Add(telemetry.ScalePoll, 1)
	var act action
	a.st, act = a.cfg.decide(a.st, ts, now)
	a.mu.Unlock()

	ev := Event{When: now, Dir: act.Dir, Shard: -1, Reason: act.Reason}
	counter := telemetry.ScaleHold
	switch act.Dir {
	case "":
		return
	case "up":
		ev.Shard, err = a.target.ScaleUp()
		ev.Leaves, counter = ts.Leaves+1, telemetry.ScaleUp
	case "down":
		err = a.target.ScaleDown()
		ev.Leaves, counter = ts.Leaves-1, telemetry.ScaleDown
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case err != nil:
		counter, a.lastErr = telemetry.ScaleError, err
	case counter != telemetry.ScaleHold:
		a.st = a.cfg.acted(a.st, now)
		a.events = append(a.events, ev)
	}
	a.counters.Add(counter, 1)
}

// ErrNothingAdded reports a scale-down with no autoscaler-added group left.
var ErrNothingAdded = errors.New("autoscale: no added leaf group to drain")
