package bench

import (
	"fmt"
	"strings"
	"time"

	"musuite/internal/autoscale"
	"musuite/internal/core"
	"musuite/internal/loadgen"
	"musuite/internal/services/router"
	"musuite/internal/telemetry"
)

// OverloadMults are the offered-load multiples of the measured saturation
// point the ramp visits.  The last entry drives the deployment to 3× its
// knee — deep overload, where goodput collapses without admission control.
var OverloadMults = []float64{0.5, 1, 1.5, 2, 3}

// overloadGoodputTolerance is the acceptance bar: at and past the knee,
// goodput must hold at least this fraction of the pre-knee peak.
const overloadGoodputTolerance = 0.85

// OverloadProbeStep is one knee-probe window: offered load doubled until
// goodput detaches from it.
type OverloadProbeStep struct {
	QPS     float64
	Goodput float64
}

// OverloadStep is one ramp window's measurement.
type OverloadStep struct {
	// Mult is the offered-load multiple of the saturation QPS.
	Mult float64
	// QPS is the offered load of the window.
	QPS float64
	// Leaves is the serving leaf count when the window closed.
	Leaves int
	// AdmitLimit is the live AIMD concurrency limit when the window
	// closed.
	AdmitLimit int
	// Result is the window's open-loop measurement; Result.Shed is the
	// typed-overload rejection count.
	Result loadgen.OpenLoopResult
}

// OverloadResult is the saturation-ramp experiment's full report.
type OverloadResult struct {
	// SatQPS is the measured knee: the largest goodput of any probe window,
	// the first window whose completions fell below 90 % of its offered
	// load included.  Taking only the windows that held would halve the
	// knee whenever the doubling lands just past capacity (ROADMAP 2(a)).
	SatQPS float64
	// Probe records the knee search's doubling steps.
	Probe []OverloadProbeStep
	// Steps are the ramp windows in OverloadMults order.
	Steps []OverloadStep
	// Events are the autoscaler's scale actions across the ramp.
	Events []autoscale.Event
	// Scaler counts the autoscaler's decisions (the scale.* counters).
	Scaler telemetry.Snapshot
	// PeakGoodput is the best completed QPS of the pre-knee windows
	// (Mult < 1); KneeGoodput the worst completed QPS of the windows at
	// or past the knee (Mult ≥ 1).
	PeakGoodput, KneeGoodput float64
	// Violations lists every acceptance-criterion breach; empty means
	// the ramp passed.
	Violations []string
}

// Passed reports whether the ramp met the acceptance bar.
func (r *OverloadResult) Passed() bool { return len(r.Violations) == 0 }

// Overload runs the saturation-ramp experiment: a Router deployment with
// the adaptive admission controller armed and a spare leaf behind the
// autoscaler, driven open-loop at OverloadMults multiples of its measured
// saturation throughput.  The acceptance bar is the graceful-degradation
// property overload control exists to buy: past the knee, goodput holds
// ≥ 85% of the pre-knee peak, every refused request surfaces as a *typed*
// shed (rpc.OverloadError), and nothing fails untyped or times out.
func Overload(s Scale, mode FrameworkMode) (*OverloadResult, error) {
	if mode.MidTier.Admit.MaxInflight <= 0 {
		// The experiment is about the controller; arm it with a ceiling
		// well above the knee so AIMD, not the cap, sets the limit.
		mode.MidTier.Admit.MaxInflight = 4 * s.MaxConcurrency
		if mode.MidTier.Admit.MaxInflight <= 0 {
			mode.MidTier.Admit.MaxInflight = 256
		}
	}
	// Router's canonical deployment and key stream, on the experiment's own
	// seed namespace (the key trace lands on Seed+600).
	rs := s
	rs.Seed += 400
	inst, err := StartService("Router", rs, mode)
	if err != nil {
		return nil, err
	}
	defer inst.Close()
	cl, issue, probe := inst.Cluster.(*router.Cluster), inst.Issue, inst.Probe

	// Probe the knee the same way the ramp will drive it: open-loop, with
	// admission already armed.  Offered load doubles until completions
	// detach from it (goodput < 90% of offered) — a closed-loop
	// concurrency probe would overstate the knee here, because it
	// pipelines on the inline fast path without paying the open-loop
	// harness's own arrival costs, and the ramp's multiples must be
	// relative to a load this harness can actually offer.
	out := &OverloadResult{}
	for q, i := 1000.0, 0; i < 12; q, i = 2*q, i+1 {
		res := loadgen.RunOpenLoop(issue, loadgen.OpenLoopConfig{
			QPS: q, Duration: s.SaturationWindow, Seed: s.Seed + 650 + int64(i),
		})
		out.Probe = append(out.Probe, OverloadProbeStep{QPS: q, Goodput: res.AchievedQPS})
		if res.AchievedQPS > out.SatQPS {
			out.SatQPS = res.AchievedQPS
		}
		if res.AchievedQPS < 0.9*q {
			break
		}
	}
	if out.SatQPS <= 0 {
		return out, fmt.Errorf("bench: overload: saturation probe found zero throughput")
	}

	// Close the loop: the autoscaler watches the mid-tier's shed deltas
	// and queue depth, and may grow the deployment by one leaf (and give
	// it back when the ramp cools).  base is the operator topology — the
	// loop never shrinks below it.
	base := cl.NumLeaves()
	scaler := autoscale.New(autoscale.Funcs{
		StatsFn: func() (st core.TierStats, err error) { return cl.MidTier().Stats(), nil },
		UpFn:    cl.AddLeaf,
		DownFn: func() error {
			if cl.NumLeaves() <= base {
				return autoscale.ErrNothingAdded
			}
			return cl.DrainLeaf(cl.NumLeaves()-1, s.Window)
		},
	}, autoscale.Config{
		Interval:  100 * time.Millisecond,
		MinLeaves: base,
		MaxLeaves: base + 1,
		Probe:     probe,
	})
	scaler.Start()
	defer scaler.Stop()

	for i, mult := range OverloadMults {
		qps := mult * out.SatQPS
		res := loadgen.RunOpenLoop(issue, loadgen.OpenLoopConfig{
			QPS: qps, Duration: s.Window, Seed: s.Seed + 601 + int64(i),
		})
		st := cl.MidTier().Stats()
		out.Steps = append(out.Steps, OverloadStep{
			Mult:       mult,
			QPS:        qps,
			Leaves:     cl.NumLeaves(),
			AdmitLimit: st.AdmitLimit,
			Result:     res,
		})
	}
	scaler.Stop()
	out.Events = scaler.Events()
	out.Scaler = scaler.Counters()

	// Acceptance: goodput past the knee holds ≥ 85% of the peak, and every
	// lost request is a typed shed — zero untyped errors or drain drops.
	kneeSeen := false
	for _, st := range out.Steps {
		if st.Mult < 1 && st.Result.AchievedQPS > out.PeakGoodput {
			out.PeakGoodput = st.Result.AchievedQPS
		}
		if st.Mult >= 1 {
			if !kneeSeen || st.Result.AchievedQPS < out.KneeGoodput {
				out.KneeGoodput = st.Result.AchievedQPS
			}
			kneeSeen = true
		}
		if st.Result.Errors > 0 {
			out.Violations = append(out.Violations, fmt.Sprintf(
				"%.1fx: %d untyped errors (every refusal must be a typed shed)",
				st.Mult, st.Result.Errors))
		}
		if st.Result.Dropped > 0 {
			out.Violations = append(out.Violations, fmt.Sprintf(
				"%.1fx: %d requests dropped without a reply", st.Mult, st.Result.Dropped))
		}
	}
	if kneeSeen && out.KneeGoodput < overloadGoodputTolerance*out.PeakGoodput {
		out.Violations = append(out.Violations, fmt.Sprintf(
			"goodput past saturation fell to %.0f QPS, below %.0f%% of the %.0f QPS peak",
			out.KneeGoodput, 100*overloadGoodputTolerance, out.PeakGoodput))
	}
	return out, nil
}

// RenderOverload formats the saturation-ramp report.
func RenderOverload(r *OverloadResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overload ramp (Router, admission + autoscaler): open-loop saturation %.0f QPS (%d probe windows)\n",
		r.SatQPS, len(r.Probe))
	fmt.Fprintf(&b, "  %-6s %-9s %-9s %-9s %-7s %-8s %-7s %-6s %-7s %-12s\n",
		"mult", "offered", "goodput", "shed", "errors", "dropped", "leaves", "limit", "", "p99")
	for _, st := range r.Steps {
		r2 := st.Result
		fmt.Fprintf(&b, "  %-6.1f %-9d %-9.0f %-9d %-7d %-8d %-7d %-6d %-7s %-12v\n",
			st.Mult, r2.Offered, r2.AchievedQPS, r2.Shed, r2.Errors, r2.Dropped,
			st.Leaves, st.AdmitLimit, "", r2.Latency.P99)
	}
	fmt.Fprintf(&b, "  autoscaler: %d ups, %d downs, %d holds",
		r.Scaler[telemetry.ScaleUp], r.Scaler[telemetry.ScaleDown], r.Scaler[telemetry.ScaleHold])
	for _, ev := range r.Events {
		fmt.Fprintf(&b, "; %s(%s)->%d leaves", ev.Dir, ev.Reason, ev.Leaves)
	}
	b.WriteString("\n")
	if r.Passed() {
		fmt.Fprintf(&b, "  PASS: goodput held %.0f/%.0f QPS (>= %.0f%%) past the knee with zero untyped failures\n",
			r.KneeGoodput, r.PeakGoodput, 100*overloadGoodputTolerance)
	} else {
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
		}
	}
	return b.String()
}
