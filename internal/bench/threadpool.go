package bench

import (
	"fmt"
	"strings"
	"time"

	"musuite/internal/core"
	"musuite/internal/loadgen"
	"musuite/internal/telemetry"
)

// ThreadPoolRow is one point of the §VII thread-pool-sizing discussion:
// latency and contention at a given worker-pool size.
type ThreadPoolRow struct {
	Service string
	Workers int
	Load    float64
	Median  time.Duration
	P99     time.Duration
	// FutexPerQ and HITMPerQ quantify the contention cost of larger
	// pools (the paper: large pools contend on the front-end socket,
	// the task queue, and the response socket).
	FutexPerQ, HITMPerQ float64
	SaturationQPS       float64
}

// ThreadPoolSweep measures one service across worker-pool sizes at a fixed
// open-loop load, plus each size's closed-loop saturation — the measurement
// a dynamic thread-pool scheduler (the paper's §VII proposal) would need.
func ThreadPoolSweep(s Scale, service string, workerCounts []int, load float64) ([]ThreadPoolRow, error) {
	var out []ThreadPoolRow
	for _, w := range workerCounts {
		cfg := s
		cfg.Workers = w
		// Dispatched: the sweep's subject is the worker pool, which the
		// default mode bypasses for every request that arrives alone.
		inst, err := StartService(service, cfg, FrameworkMode{MidTier: core.Options{Dispatch: core.Dispatched}})
		if err != nil {
			return nil, fmt.Errorf("threadpool %s workers=%d: %w", service, w, err)
		}
		inst.Probe.Reset()
		before := inst.Probe.Snapshot()
		open := loadgen.RunOpenLoop(inst.Issue, loadgen.OpenLoopConfig{
			QPS: load, Duration: s.Window, Seed: s.Seed + 23,
		})
		delta := inst.Probe.Snapshot().Delta(before)
		sat := loadgen.FindSaturation(inst.Issue, loadgen.SaturationConfig{
			Window:         s.SaturationWindow,
			MaxConcurrency: s.MaxConcurrency,
		})
		inst.Close()

		row := ThreadPoolRow{
			Service: service, Workers: w, Load: load,
			Median: open.Latency.Median, P99: open.Latency.P99,
			SaturationQPS: sat.Throughput,
			FutexPerQ:     perQuery(delta, telemetry.SysFutex, open.Completed),
			HITMPerQ:      perQuery(delta, telemetry.HITM, open.Completed),
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderThreadPool prints the sweep.
func RenderThreadPool(rows []ThreadPoolRow) string {
	var b strings.Builder
	b.WriteString("§VII thread-pool sizing sweep\n")
	fmt.Fprintf(&b, "  %-11s %-8s %-12s %-12s %-10s %-10s %-12s\n",
		"service", "workers", "p50", "p99", "futex/q", "HITM/q", "sat-QPS")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-11s %-8d %-12v %-12v %-10.2f %-10.2f %-12.0f\n",
			r.Service, r.Workers, r.Median, r.P99, r.FutexPerQ, r.HITMPerQ, r.SaturationQPS)
	}
	b.WriteString("  (larger pools raise contention per query; undersized pools queue — the\n")
	b.WriteString("   trade-off motivating the paper's dynamic thread-pool scheduler proposal)\n")
	return b.String()
}
