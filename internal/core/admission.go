package core

import (
	"sync"
	"sync/atomic"
	"time"

	"musuite/internal/stats"
	"musuite/internal/telemetry"
)

// AdmitPolicy configures the mid-tier's adaptive admission controller: a
// gradient/AIMD concurrency limit driven by observed request latency against
// its EWMA floor, priority headroom so high-priority traffic sheds last, and
// deadline-aware shedding that rejects requests whose remaining budget
// cannot cover the tracked p99 service time.  The zero value disables
// admission entirely.
type AdmitPolicy struct {
	// MaxInflight is the upper bound on the adaptive concurrency limit
	// and the master switch: 0 disables admission.
	MaxInflight int
	// MinInflight is the lower bound the multiplicative decrease cannot
	// cross (default 1 — the controller never deadlocks a tier shut).
	MinInflight int
	// InitInflight is the starting limit (default min(16, MaxInflight)).
	InitInflight int
	// Tolerance is how far observed latency may ride above its EWMA floor
	// before the limit is cut: a window averaging > Tolerance × floor
	// triggers multiplicative decrease, at or below it additive increase.
	// Default 2.0.
	Tolerance float64
	// Slack is an absolute pad on the congestion threshold: a window only
	// counts as congested when its average exceeds floor + Slack as well
	// as Tolerance × floor.  For microsecond-floor services a pure ratio
	// trips on scheduler jitter alone and collapses the limit; the slack
	// requires queueing delay worth shedding over before the limit is
	// cut.  Default 1ms.
	Slack time.Duration
	// Deadline is the per-request latency budget used for deadline-aware
	// shedding: a dispatched request whose queue wait has already consumed
	// enough of it that the remainder is below the tracked p99 service
	// time is shed at worker pickup instead of doing doomed work.
	// 0 disables deadline shedding.
	Deadline time.Duration
	// PriorityHeadroom is the fraction of the current limit additionally
	// available to PriorityHigh requests (default 0.1), so overload sheds
	// normal-priority traffic first.
	PriorityHeadroom float64
}

func (p AdmitPolicy) enabled() bool { return p.MaxInflight > 0 }

func (p AdmitPolicy) withDefaults() AdmitPolicy {
	if p.MinInflight <= 0 {
		p.MinInflight = 1
	}
	if p.InitInflight <= 0 {
		p.InitInflight = 16
	}
	if p.InitInflight > p.MaxInflight {
		p.InitInflight = p.MaxInflight
	}
	if p.MinInflight > p.MaxInflight {
		p.MinInflight = p.MaxInflight
	}
	if p.Tolerance <= 1 {
		p.Tolerance = 2.0
	}
	if p.Slack <= 0 {
		p.Slack = time.Millisecond
	}
	if p.PriorityHeadroom <= 0 {
		p.PriorityHeadroom = 0.1
	}
	return p
}

// admitAdjustEvery is how many completions amortize one AIMD window
// evaluation, and admitP99RefreshEvery how many amortize one p99 digest
// scan — the same cheap-hot-path / amortized-quantile split the hedge
// delay uses (hedgeRefreshEvery).
const (
	admitAdjustEvery     = 64
	admitP99RefreshEvery = 128
)

// admitFloorAlpha is the EWMA weight of the newest window minimum in the
// latency floor estimate.
const admitFloorAlpha = 0.1

// admitController enforces an AdmitPolicy.  acquire/release bracket every
// admitted request; the hot path is two atomics, with the AIMD adjustment
// and the p99 refresh amortized over admitAdjustEvery completions.
type admitController struct {
	pol AdmitPolicy
	// counters is the owning tier's table; it receives the admit.* events.
	counters *telemetry.Table

	inflight atomic.Int64
	limit    atomic.Int64 // current AIMD concurrency limit
	headroom atomic.Int64 // extra slots for PriorityHigh, tracks limit

	// Service-time digest feeding the deadline-doomed estimate; p99Ns is
	// the cached quantile the per-dispatch check reads.
	svcLat   *stats.Histogram
	p99Ns    atomic.Int64
	obsCount atomic.Uint64

	// AIMD window state: the min and mean of the last admitAdjustEvery
	// completion latencies, folded into the EWMA floor under mu.
	mu      sync.Mutex
	winMin  time.Duration
	winSum  time.Duration
	winN    int
	floorNs atomic.Int64 // EWMA of window minima (the no-queueing baseline)
}

func newAdmitController(pol AdmitPolicy, counters *telemetry.Table) *admitController {
	pol = pol.withDefaults()
	a := &admitController{pol: pol, counters: counters, svcLat: stats.NewHistogram()}
	a.setLimit(int64(pol.InitInflight))
	return a
}

// setLimit stores a clamped limit and its derived priority headroom.
func (a *admitController) setLimit(lim int64) {
	if lim < int64(a.pol.MinInflight) {
		lim = int64(a.pol.MinInflight)
	}
	if lim > int64(a.pol.MaxInflight) {
		lim = int64(a.pol.MaxInflight)
	}
	a.limit.Store(lim)
	hr := int64(float64(lim) * a.pol.PriorityHeadroom)
	if hr < 1 {
		hr = 1
	}
	a.headroom.Store(hr)
}

// acquire admits or sheds one arriving request.  It runs on the network
// poller, so the admit path is two atomic ops.  PriorityHigh requests may
// use the headroom above the limit, so normal traffic sheds first.
func (a *admitController) acquire(pri Priority) bool {
	lim := a.limit.Load()
	if pri == PriorityHigh {
		lim += a.headroom.Load()
	}
	if a.inflight.Add(1) > lim {
		a.inflight.Add(-1)
		a.counters.Add(telemetry.AdmitShedLimit, 1)
		return false
	}
	a.counters.Add(telemetry.AdmitAdmitted, 1)
	return true
}

// cancel releases an admitted slot without feeding the latency signal: the
// request was shed or failed before doing representative work, and its
// (short) latency would drag the floor and the p99 estimate down.
func (a *admitController) cancel() {
	a.inflight.Add(-1)
}

// release completes an admitted request, feeding its end-to-end latency to
// the AIMD window and the service-time digest.
func (a *admitController) release(d time.Duration) {
	a.inflight.Add(-1)
	a.svcLat.Record(d)
	n := a.obsCount.Add(1)
	if n%admitP99RefreshEvery == 0 {
		a.p99Ns.Store(int64(a.svcLat.Quantile(0.99)))
	}
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
	threshold := time.Duration(a.pol.Tolerance * float64(floor))
	if pad := floor + a.pol.Slack; pad > threshold {
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
	} else if lim < int64(a.pol.MaxInflight) {
		// Additive increase: probe for headroom one slot at a time.
		a.setLimit(lim + 1)
		a.counters.Add(telemetry.AdmitLimitUp, 1)
	}
}

// doomed reports whether a request dispatched at arrival should be shed at
// worker pickup: the queue wait has eaten enough of the deadline budget
// that the remainder cannot cover the tracked p99 service time, so the
// work would complete past its deadline — burning a worker to produce a
// reply nobody can use.
func (a *admitController) doomed(arrival time.Time) bool {
	dl := a.pol.Deadline
	if dl <= 0 {
		return false
	}
	remaining := dl - time.Since(arrival)
	if p99 := time.Duration(a.p99Ns.Load()); remaining <= 0 || (p99 > 0 && remaining < p99) {
		a.counters.Add(telemetry.AdmitShedDeadline, 1)
		return true
	}
	return false
}

// currentLimit reports the live AIMD concurrency limit.
func (a *admitController) currentLimit() int { return int(a.limit.Load()) }

// currentInflight reports the admitted requests currently in flight.
func (a *admitController) currentInflight() int { return int(a.inflight.Load()) }

// p99 reports the cached p99 service-time estimate the deadline shed uses.
func (a *admitController) p99() time.Duration { return time.Duration(a.p99Ns.Load()) }
