// Package autoscale closes the control loop the paper's §V saturation
// methodology leaves open: it watches a mid-tier's operational counters
// (core.TierStats — queue depth and the admission controller's shed
// deltas) and grows or shrinks the leaf topology through its add and drain
// operations (AddGroup/DrainGroup) in response.  Hysteresis — N consecutive
// breach polls before acting — and a post-action cooldown
// keep the loop from flapping on transient bursts, the failure mode that
// makes naive autoscalers amplify the load swings they exist to absorb.
package autoscale

import (
	"errors"
	"sync"
	"time"

	"musuite/internal/core"
	"musuite/internal/telemetry"
)

// Target is the capacity surface the autoscaler drives: a stats source
// plus scale-up/scale-down actuators.  Implementations: Funcs (in-process
// closures over a bench deployment), SpareTarget (a pre-provisioned spare
// pool moved in and out of a live topology via the admin RPC).
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

// upQueueDepth marks a poll hot when the dispatch queue is at least this
// deep.  Sheds since the previous poll always mark it hot.
const upQueueDepth = 4

// Config tunes the control loop.  The zero value gets workable defaults:
// 250ms polls, 4-poll cooldown, scale up after 2 consecutive hot polls,
// down after 8 consecutive cold ones.
type Config struct {
	// Interval is the stats poll period (default 250ms).
	Interval time.Duration
	// Cooldown is the minimum gap after an action before the next one
	// (default 4×Interval): capacity changes need time to show up in the
	// signals, and acting on pre-change readings double-counts.
	Cooldown time.Duration
	// UpAfter and DownAfter are the hysteresis depths: consecutive hot
	// (resp. cold) polls required before acting (defaults 2 and 8 —
	// shrinking is cheaper to delay than growing).
	UpAfter, DownAfter int
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
	if c.Cooldown <= 0 {
		c.Cooldown = 4 * c.Interval
	}
	if c.UpAfter <= 0 {
		c.UpAfter = 2
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 8
	}
	if c.MinLeaves <= 0 {
		c.MinLeaves = 1
	}
	return c
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
	// ups, downs, holds (breaches withheld by hysteresis, cooldown, or a
	// capacity bound) and errors (failed polls or actions).
	counters *telemetry.Table

	mu       sync.Mutex
	events   []Event
	lastErr  error
	stopCh   chan struct{}
	doneCh   chan struct{}
	started  bool
	stopped  bool
	upRun    int
	downRun  int
	lastAct  time.Time
	prevShed uint64
	havePrev bool
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
	if a.started || a.stopped {
		a.mu.Unlock()
		return
	}
	a.started = true
	a.mu.Unlock()
	go a.loop()
}

// Stop halts the loop and waits for it to exit.  Idempotent.
func (a *Autoscaler) Stop() {
	a.mu.Lock()
	if a.stopped {
		started := a.started
		a.mu.Unlock()
		if started {
			<-a.doneCh
		}
		return
	}
	a.stopped = true
	started := a.started
	a.mu.Unlock()
	close(a.stopCh)
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
func (a *Autoscaler) Poll() {
	st, err := a.target.Stats()
	a.mu.Lock()
	if err != nil {
		a.counters.Add(telemetry.ScaleError, 1)
		a.lastErr = err
		a.mu.Unlock()
		return
	}
	a.counters.Add(telemetry.ScalePoll, 1)

	// Shed deltas: any typed shed since the last poll is the strongest
	// "out of capacity" signal — the admission controller is refusing
	// work the cluster should be absorbing.
	shedDelta := uint64(0)
	if a.havePrev && st.ShedLimit >= a.prevShed {
		shedDelta = st.ShedLimit - a.prevShed
	}
	a.prevShed = st.ShedLimit
	a.havePrev = true

	hot := shedDelta > 0 || st.QueueDepth >= upQueueDepth
	cold := shedDelta == 0 && st.QueueDepth == 0

	reason := "queue-depth"
	if shedDelta > 0 {
		reason = "sheds"
	}

	if hot {
		a.upRun++
		a.downRun = 0
	} else if cold {
		a.downRun++
		a.upRun = 0
	} else {
		a.upRun, a.downRun = 0, 0
	}

	now := time.Now()
	cooling := !a.lastAct.IsZero() && now.Sub(a.lastAct) < a.cfg.Cooldown

	if hot && a.upRun >= a.cfg.UpAfter {
		if cooling || (a.cfg.MaxLeaves > 0 && st.Leaves >= a.cfg.MaxLeaves) {
			a.counters.Add(telemetry.ScaleHold, 1)
			a.mu.Unlock()
			return
		}
		a.mu.Unlock()
		shard, err := a.target.ScaleUp()
		a.mu.Lock()
		if err != nil {
			a.counters.Add(telemetry.ScaleError, 1)
			a.lastErr = err
		} else {
			a.counters.Add(telemetry.ScaleUp, 1)
			a.events = append(a.events, Event{
				When: now, Dir: "up", Shard: shard,
				Leaves: st.Leaves + 1, Reason: reason,
			})
			a.lastAct = now
			a.upRun = 0
		}
		a.mu.Unlock()
		return
	}
	if cold && a.downRun >= a.cfg.DownAfter {
		if cooling || st.Leaves <= a.cfg.MinLeaves {
			if st.Leaves > a.cfg.MinLeaves {
				a.counters.Add(telemetry.ScaleHold, 1)
			}
			a.mu.Unlock()
			return
		}
		a.mu.Unlock()
		err := a.target.ScaleDown()
		a.mu.Lock()
		if err != nil {
			a.counters.Add(telemetry.ScaleError, 1)
			a.lastErr = err
		} else {
			a.counters.Add(telemetry.ScaleDown, 1)
			a.events = append(a.events, Event{
				When: now, Dir: "down", Shard: -1,
				Leaves: st.Leaves - 1, Reason: "idle",
			})
			a.lastAct = now
			a.downRun = 0
		}
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
}

// ErrNoSpares reports a scale-up with the spare pool empty.
var ErrNoSpares = errors.New("autoscale: no spare leaf groups available")

// ErrNothingAdded reports a scale-down with no autoscaler-added group left.
var ErrNothingAdded = errors.New("autoscale: no added leaf group to drain")
