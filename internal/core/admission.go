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
	// admitTolerance is the multiple of the floor past which a window's
	// mean is congested and cuts the limit.
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
	// admitFloorAlpha is the EWMA weight of the newest window mean in the
	// floor.
	admitFloorAlpha = 0.1
	// admitFloorBand bounds the means the floor takes in: only a window
	// whose mean is within admitFloorBand × floor moves it, so queueing
	// that grows the mean with the limit cannot drag the floor up with it.
	admitFloorBand = 1.1
)

// admitState is what the AIMD law carries from one window to the next.
type admitState struct {
	limit int64
	// floor is the EWMA of in-band window means: the no-queueing baseline
	// a window is judged against, 0 before the first.
	floor time.Duration
}

// admitStep is the AIMD law, one window of completions at a time: it judges
// the window's mean latency against the floor and moves the limit within
// [admitMinInflight, maxInflight].  The first window seeds the floor with its
// own mean, so it is never congested.  The floor and the window are the same
// statistic, so a latency mix with two modes reads the same on both sides of
// the comparison however rare its fast mode is.
func admitStep(st admitState, mean time.Duration, maxInflight int64) admitState {
	if st.floor == 0 {
		st.floor = mean
	}
	if mean > max(admitTolerance*st.floor, st.floor+admitSlack) {
		// Multiplicative decrease: latency has detached from its floor,
		// so queueing — not service time — is filling the window.  The
		// floor keeps its value: folding a congested window in would
		// re-baseline sustained overload as the new normal and let the
		// limit climb right back into it.
		st.limit = max(st.limit*9/10, admitMinInflight)
		return st
	}
	// Additive increase: probe for headroom one slot at a time.  The floor
	// follows a mean that holds still or falls, not one that climbs.
	if mean <= time.Duration(admitFloorBand*float64(st.floor)) {
		st.floor = time.Duration((1-admitFloorAlpha)*float64(st.floor) + admitFloorAlpha*float64(mean))
	}
	st.limit = min(st.limit+1, maxInflight)
	return st
}

// admitController enforces an AdmitPolicy: acquire/release bracket every
// admitted request, and every admitAdjustEvery completions release hands the
// window's mean latency to admitStep.  The hot path is two atomics.
type admitController struct {
	maxInflight int64
	// counters is the owning tier's table; it receives the admit.* events.
	counters *telemetry.Table

	inflight atomic.Int64
	limit    atomic.Int64 // current AIMD concurrency limit

	// The open window's latency sum and count, and the law's floor.
	mu     sync.Mutex
	winSum time.Duration
	winN   int
	floor  time.Duration
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
	a.winSum += d
	a.winN++
	if a.winN < admitAdjustEvery {
		a.mu.Unlock()
		return
	}
	prev := admitState{limit: a.limit.Load(), floor: a.floor}
	next := admitStep(prev, a.winSum/admitAdjustEvery, a.maxInflight)
	a.limit.Store(next.limit)
	a.floor, a.winSum, a.winN = next.floor, 0, 0
	a.mu.Unlock()
	if next.limit > prev.limit {
		a.counters.Add(telemetry.AdmitLimitUp, 1)
	} else if next.limit < prev.limit {
		a.counters.Add(telemetry.AdmitLimitDown, 1)
	}
}

// currentLimit reports the live AIMD concurrency limit.
func (a *admitController) currentLimit() int { return int(a.limit.Load()) }

// currentInflight reports the admitted requests currently in flight.
func (a *admitController) currentInflight() int { return int(a.inflight.Load()) }
