package core

import (
	"sync"
	"sync/atomic"
	"time"

	"musuite/internal/telemetry"
)

// AdmitPolicy configures the mid-tier's adaptive admission controller: a
// gradient/AIMD concurrency limit driven by observed request latency against
// its EWMA floor.  The zero value disables admission entirely.
type AdmitPolicy struct {
	// MaxInflight is the upper bound on the adaptive concurrency limit
	// and the master switch: 0 disables admission.
	MaxInflight int
}

func (p AdmitPolicy) enabled() bool { return p.MaxInflight > 0 }

// The AIMD controller's fixed parameters.
const (
	// admitMinInflight is the floor the multiplicative decrease cannot
	// cross, so the controller never deadlocks a tier shut.
	admitMinInflight = 1
	// admitInitInflight is the starting limit (capped at MaxInflight).
	admitInitInflight = 16
	// admitTolerance is how far observed latency may ride above its EWMA
	// floor before the limit is cut: a window averaging more than
	// admitTolerance × floor triggers multiplicative decrease, at or below
	// it additive increase.
	admitTolerance = 2.0
	// admitSlack is an absolute pad on the congestion threshold: a window
	// only counts as congested when its average exceeds floor + admitSlack
	// as well as admitTolerance × floor.  For microsecond-floor services a
	// pure ratio trips on scheduler jitter alone and collapses the limit;
	// the slack requires queueing delay worth shedding over before the
	// limit is cut.
	admitSlack = time.Millisecond
	// admitAdjustEvery is how many completions amortize one AIMD window
	// evaluation.
	admitAdjustEvery = 64
)

// admitFloorAlpha is the EWMA weight of the newest window minimum in the
// latency floor estimate.
const admitFloorAlpha = 0.1

// admitController enforces an AdmitPolicy.  acquire/release bracket every
// admitted request; the hot path is two atomics, with the AIMD adjustment
// amortized over admitAdjustEvery completions.
type admitController struct {
	maxInflight int64
	// counters is the owning tier's table; it receives the admit.* events.
	counters *telemetry.Table

	inflight atomic.Int64
	limit    atomic.Int64 // current AIMD concurrency limit

	// AIMD window state: the min and mean of the last admitAdjustEvery
	// completion latencies, folded into the EWMA floor under mu.
	mu      sync.Mutex
	winMin  time.Duration
	winSum  time.Duration
	winN    int
	floorNs atomic.Int64 // EWMA of window minima (the no-queueing baseline)
}

func newAdmitController(pol AdmitPolicy, counters *telemetry.Table) *admitController {
	a := &admitController{maxInflight: int64(pol.MaxInflight), counters: counters}
	a.setLimit(admitInitInflight)
	return a
}

// setLimit stores lim clamped to [admitMinInflight, MaxInflight].
func (a *admitController) setLimit(lim int64) {
	a.limit.Store(max(min(lim, a.maxInflight), admitMinInflight))
}

// acquire admits or sheds one arriving request.  It runs on the network
// poller, so the admit path is two atomic ops.
func (a *admitController) acquire() bool {
	if a.inflight.Add(1) > a.limit.Load() {
		a.inflight.Add(-1)
		a.counters.Add(telemetry.AdmitShedLimit, 1)
		return false
	}
	a.counters.Add(telemetry.AdmitAdmitted, 1)
	return true
}

// cancel releases an admitted slot without feeding the latency signal: the
// request was shed or failed before doing representative work, and its
// (short) latency would drag the floor down.
func (a *admitController) cancel() {
	a.inflight.Add(-1)
}

// release completes an admitted request, feeding its end-to-end latency to
// the AIMD window.
func (a *admitController) release(d time.Duration) {
	a.inflight.Add(-1)
	a.mu.Lock()
	if a.winN == 0 || d < a.winMin {
		a.winMin = d
	}
	a.winSum += d
	a.winN++
	if a.winN < admitAdjustEvery {
		a.mu.Unlock()
		return
	}
	avg := a.winSum / time.Duration(a.winN)
	floor := time.Duration(a.floorNs.Load())
	threshold := time.Duration(admitTolerance * float64(floor))
	if pad := floor + admitSlack; pad > threshold {
		threshold = pad
	}
	congested := floor > 0 && avg > threshold
	if floor == 0 {
		floor = a.winMin
		a.floorNs.Store(int64(floor))
	} else if !congested {
		// The floor tracks the no-queueing baseline, so only healthy
		// windows update it: folding a congested window's minimum in
		// would re-baseline sustained overload as the new normal and let
		// the limit climb right back into it.  When intrinsic service
		// time genuinely rises, the first post-decrease uncongested
		// window carries the new minimum and the floor follows.
		floor = time.Duration((1-admitFloorAlpha)*float64(floor) + admitFloorAlpha*float64(a.winMin))
		a.floorNs.Store(int64(floor))
	}
	a.winMin, a.winSum, a.winN = 0, 0, 0
	a.mu.Unlock()

	lim := a.limit.Load()
	if congested {
		// Multiplicative decrease: latency has detached from its floor,
		// so queueing — not service time — is filling the window.
		next := lim * 9 / 10
		if next == lim {
			next = lim - 1
		}
		a.setLimit(next)
		if a.limit.Load() < lim {
			a.counters.Add(telemetry.AdmitLimitDown, 1)
		}
	} else if lim < a.maxInflight {
		// Additive increase: probe for headroom one slot at a time.
		a.setLimit(lim + 1)
		a.counters.Add(telemetry.AdmitLimitUp, 1)
	}
}

// currentLimit reports the live AIMD concurrency limit.
func (a *admitController) currentLimit() int { return int(a.limit.Load()) }

// currentInflight reports the admitted requests currently in flight.
func (a *admitController) currentInflight() int { return int(a.inflight.Load()) }
