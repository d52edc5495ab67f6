package bench

import (
	"fmt"
	"time"

	"musuite/internal/core"
	"musuite/internal/loadgen"
	"musuite/internal/stats"
	"musuite/internal/telemetry"
)

// Fig9Row is one service's bars of Fig. 9: its peak sustainable throughput,
// averaged over the scale's configured trials as the paper averages over
// five, and the same with cross-request leaf batching on.
type Fig9Row struct {
	Service     string
	Throughput  float64
	RelStdDev   float64 // stddev/mean across trials (0 for one trial)
	Concurrency int
	Steps       []loadgen.SaturationStep
	// Batched is the throughput under Fig9Batched, Occupancy the leaf calls a
	// carrier held on average while it was measured.
	Batched, Occupancy float64
}

// Fig9Batched is the mode of Fig. 9's second bar: up to 16 leaf calls bound
// for one replica share a carrier RPC.
var Fig9Batched = FrameworkMode{MidTier: core.Options{EdgePolicy: core.EdgePolicy{Batch: core.BatchPolicy{MaxBatch: 16}}}}

// Fig9 measures saturation throughput for each service with the closed-loop
// load generator, reproducing Fig. 9, and again with batching on — the
// per-call overhead the paper characterizes, amortized.
func Fig9(s Scale, services []string) ([]Fig9Row, error) {
	var out []Fig9Row
	for _, name := range services {
		row, _, err := saturate(name, s, FrameworkMode{})
		if err != nil {
			return nil, err
		}
		batched, st, err := saturate(name, s, Fig9Batched)
		if err != nil {
			return nil, err
		}
		row.Batched = batched.Throughput
		row.Occupancy = float64(st.BatchMembers) / float64(max(1, st.BatchCarriers))
		out = append(out, row)
	}
	return out, nil
}

// saturate measures one bar: the scale's trials of the saturation probe
// against one deployment of the service, and the mid-tier's counters at the
// end.
func saturate(name string, s Scale, mode FrameworkMode) (Fig9Row, core.TierStats, error) {
	inst, err := StartService(name, s, mode)
	if err != nil {
		return Fig9Row{}, core.TierStats{}, fmt.Errorf("fig9 %s: %w", name, err)
	}
	defer inst.Close()
	var agg stats.Trials
	row := Fig9Row{Service: name}
	for t := 0; t < max(1, s.Trials); t++ {
		res := loadgen.FindSaturation(inst.Issue, loadgen.SaturationConfig{
			Window:         s.SaturationWindow,
			MaxConcurrency: s.MaxConcurrency,
		})
		agg.Add(res.Throughput)
		// Keep the last trial's shape details.
		row.Concurrency, row.Steps = res.Concurrency, res.Steps
	}
	row.Throughput, row.RelStdDev = agg.Mean(), agg.RelStdDev()
	return row, inst.Cluster.MidTier().Stats(), nil
}

// LoadPoint is one (service, load) measurement carrying everything Figs.
// 10–19 need: the end-to-end latency distribution, per-QPS syscall-proxy
// counts, OS-overhead latency classes, and CS/HITM proxy counts.
type LoadPoint struct {
	Service string
	Load    float64

	// Open is the raw open-loop run (latency snapshot, achieved QPS).
	Open loadgen.OpenLoopResult
	// Violin is the end-to-end latency distribution (Fig. 10).
	Violin stats.Violin

	// Counters is the probe's counter delta over the window: the syscall
	// proxies (Figs. 11–14, per query via PerQuery) and the context-switch,
	// contention and tcpretrans proxies (Fig. 19; the last expected ≈0).
	Counters telemetry.Snapshot

	// Overheads holds per-class latency summaries (Figs. 15–18).
	Overheads map[telemetry.Overhead]stats.Snapshot
}

// PerQuery normalizes the window's count of c by completed queries.
func (p LoadPoint) PerQuery(c telemetry.Counter) float64 {
	return perQuery(p.Counters, c, p.Open.Completed)
}

// perQuery normalizes a window's count of c by its completed queries.
func perQuery(window telemetry.Snapshot, c telemetry.Counter, completed uint64) float64 {
	if completed == 0 {
		return 0
	}
	return float64(window[c]) / float64(completed)
}

// Characterize runs the open-loop characterization at every configured load
// for every service, producing the measurement set behind Figs. 10–19.
func Characterize(s Scale, services []string, mode FrameworkMode) ([]LoadPoint, error) {
	var out []LoadPoint
	for _, name := range services {
		inst, err := StartService(name, s, mode)
		if err != nil {
			return nil, fmt.Errorf("characterize %s: %w", name, err)
		}
		for li, load := range s.Loads {
			inst.Probe.Reset()
			before := inst.Probe.Snapshot()
			open := loadgen.RunOpenLoop(inst.Issue, loadgen.OpenLoopConfig{
				QPS:        load,
				Duration:   s.Window,
				Seed:       s.Seed + int64(li)*7919,
				CaptureRaw: true,
			})
			delta := inst.Probe.Snapshot().Delta(before)

			lp := LoadPoint{
				Service:   name,
				Load:      load,
				Open:      open,
				Violin:    stats.NewViolin(fmt.Sprintf("%s@%g", name, load), open.Raw, 16),
				Counters:  delta,
				Overheads: make(map[telemetry.Overhead]stats.Snapshot),
			}
			for _, o := range telemetry.Overheads() {
				lp.Overheads[o] = inst.Probe.OverheadSnapshot(o)
			}
			lp.Open.Raw = nil // the violin retains the distribution shape
			out = append(out, lp)
		}
		inst.Close()
	}
	return out, nil
}

// AblationRow is one §VII framework-variant measurement.
type AblationRow struct {
	Service  string
	Dispatch core.DispatchMode
	Wait     core.WaitMode
	Load     float64
	Median   time.Duration
	P99      time.Duration
	Futex    float64 // per query
	CSPerQ   float64
}

// AblationModes are the framework variants §VII discusses: the paper's
// blocking+dispatch design, its polling variant, the adaptive spin-then-park
// hybrid the paper proposes exploring, the in-line variant, and the default —
// in-line unless more input is waiting behind the request.
var AblationModes = []FrameworkMode{
	{MidTier: core.Options{Dispatch: core.Dispatched, Wait: core.WaitBlocking}},
	{MidTier: core.Options{Dispatch: core.Dispatched, Wait: core.WaitPolling}},
	{MidTier: core.Options{Dispatch: core.Dispatched, Wait: core.WaitAdaptive}},
	{MidTier: core.Options{Dispatch: core.Inline, Wait: core.WaitBlocking}},
	{MidTier: core.Options{Dispatch: core.DispatchAuto, Wait: core.WaitBlocking}},
}

// Ablation measures each framework variant at the given load for each
// service, quantifying the blocking-vs-polling and dispatch-vs-in-line
// trade-offs the paper proposes exploring.
func Ablation(s Scale, services []string, load float64) ([]AblationRow, error) {
	var out []AblationRow
	for _, name := range services {
		for _, mode := range AblationModes {
			inst, err := StartService(name, s, mode)
			if err != nil {
				return nil, fmt.Errorf("ablation %s: %w", name, err)
			}
			inst.Probe.Reset()
			before := inst.Probe.Snapshot()
			open := loadgen.RunOpenLoop(inst.Issue, loadgen.OpenLoopConfig{
				QPS: load, Duration: s.Window, Seed: s.Seed + 17,
			})
			delta := inst.Probe.Snapshot().Delta(before)
			inst.Close()
			row := AblationRow{
				Service:  name,
				Dispatch: mode.MidTier.Dispatch,
				Wait:     mode.MidTier.Wait,
				Load:     load,
				Median:   open.Latency.Median,
				P99:      open.Latency.P99,
				Futex:    perQuery(delta, telemetry.SysFutex, open.Completed),
				CSPerQ:   perQuery(delta, telemetry.CtxSwitch, open.Completed),
			}
			out = append(out, row)
		}
	}
	return out, nil
}
