package topo

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The scenario engine: timed degradations applied to a live deployment.
// Service events add simulated service time or a deterministic error
// fraction to every instance of a synthetic service; edge events inject
// caller-side latency on one named edge.  All knobs are atomics the data
// path reads per request, so applying and reverting an event is a handful
// of stores — no locks near the hot path, no reconfiguration downtime.

// degrade is one synthetic service's live degradation state, shared by all
// of its instances.
type degrade struct {
	slowNs atomic.Int64
	errPpm atomic.Int64
	seq    atomic.Uint64
}

// extra is the added service time currently in force.
func (d *degrade) extra() time.Duration {
	if d == nil {
		return 0
	}
	return time.Duration(d.slowNs.Load())
}

// fail reports whether this request should fail under the current injected
// error rate.  The decision hashes a per-service sequence number, so the
// failure pattern is aperiodic but the realized rate is exact in
// expectation and reproducible in distribution.
func (d *degrade) fail() bool {
	if d == nil {
		return false
	}
	ppm := d.errPpm.Load()
	if ppm <= 0 {
		return false
	}
	return splitmix64(d.seq.Add(1))%1_000_000 < uint64(ppm)
}

// edgeDelay is one "service/edge" pair's live injected latency.
type edgeDelay struct {
	ns atomic.Int64
}

func (e *edgeDelay) current() time.Duration {
	if e == nil {
		return 0
	}
	return time.Duration(e.ns.Load())
}

// EventLogEntry records one scenario transition for the runner's report.
type EventLogEntry struct {
	// Offset is when the transition fired, relative to scenario start.
	Offset time.Duration
	// What describes the transition ("apply" or "revert" plus the event).
	What string
}

// Scenario is a running scenario script over a deployment.
type Scenario struct {
	dep    *Deployment
	timers []*time.Timer
	wg     sync.WaitGroup

	mu  sync.Mutex
	log []EventLogEntry
}

// describeEvent renders an event for the log.
func describeEvent(e EventSpec) string {
	var parts []string
	if e.Target != "" {
		if e.Slow > 0 {
			parts = append(parts, fmt.Sprintf("slow %s by %v", e.Target, e.Slow))
		}
		if e.ErrorRate > 0 {
			parts = append(parts, fmt.Sprintf("fail %.1f%% of %s", e.ErrorRate*100, e.Target))
		}
	}
	if e.Edge != "" {
		parts = append(parts, fmt.Sprintf("delay %s by %v", e.Edge, e.Delay))
	}
	return strings.Join(parts, ", ")
}

// StartScenario arms the spec's events against the deployment, returning
// immediately; each event applies at its offset and reverts after its
// duration (events with For == 0 never revert).  Wait blocks until every
// transition has fired.
func (d *Deployment) StartScenario(events []EventSpec) *Scenario {
	sc := &Scenario{dep: d}
	start := time.Now()
	for _, e := range events {
		e := e
		sc.arm(e.At, "apply: "+describeEvent(e), start, func() { d.applyEvent(e, +1) })
		if e.For > 0 {
			sc.arm(e.At+e.For, "revert: "+describeEvent(e), start, func() { d.applyEvent(e, -1) })
		}
	}
	return sc
}

func (sc *Scenario) arm(at time.Duration, what string, start time.Time, fire func()) {
	sc.wg.Add(1)
	t := time.AfterFunc(at, func() {
		defer sc.wg.Done()
		fire()
		sc.mu.Lock()
		sc.log = append(sc.log, EventLogEntry{Offset: time.Since(start), What: what})
		sc.mu.Unlock()
	})
	sc.timers = append(sc.timers, t)
}

// Stop cancels transitions that have not fired yet (already-applied events
// stay applied; Wait still returns).
func (sc *Scenario) Stop() {
	for _, t := range sc.timers {
		if t.Stop() {
			sc.wg.Done()
		}
	}
}

// Log returns the fired transitions in time order.
func (sc *Scenario) Log() []EventLogEntry {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]EventLogEntry, len(sc.log))
	copy(out, sc.log)
	sort.Slice(out, func(i, j int) bool { return out[i].Offset < out[j].Offset })
	return out
}

// applyEvent adds (sign=+1) or removes (sign=-1) one event's deltas.
func (d *Deployment) applyEvent(e EventSpec, sign int64) {
	if e.Target != "" {
		if svc := d.services[e.Target]; svc != nil && svc.deg != nil {
			if e.Slow > 0 {
				svc.deg.slowNs.Add(sign * int64(e.Slow))
			}
			if e.ErrorRate > 0 {
				svc.deg.errPpm.Add(sign * int64(e.ErrorRate*1_000_000))
			}
		}
	}
	if e.Edge != "" && e.Delay > 0 {
		if inj := d.injections[e.Edge]; inj != nil {
			inj.ns.Add(sign * int64(e.Delay))
		}
	}
}
