package bench

import (
	"fmt"
	"strings"
	"time"

	"musuite/internal/loadgen"
)

// FlashCrowdExperiment drives one service through a baseline→spike→recovery
// load schedule (the "flash crowds" scenario §VI-B uses to motivate
// wide-ranging load support) and reports per-phase latency.
func FlashCrowdExperiment(s Scale, service string, baselineQPS, spikeFactor float64) ([]loadgen.PhaseResult, error) {
	inst, err := StartService(service, s, FrameworkMode{})
	if err != nil {
		return nil, fmt.Errorf("flashcrowd %s: %w", service, err)
	}
	defer inst.Close()
	phases := loadgen.FlashCrowd(baselineQPS, spikeFactor, s.Window, s.Window/2)
	return loadgen.RunSchedule(inst.Issue, phases, s.Seed+31, 30*time.Second), nil
}

// RenderFlashCrowd prints the per-phase latency table.
func RenderFlashCrowd(service string, results []loadgen.PhaseResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Flash-crowd scenario (%s): baseline → spike → recovery\n", service)
	fmt.Fprintf(&b, "  %-10s %-8s %-9s %-12s %-12s %-12s\n",
		"phase", "QPS", "completed", "p50", "p99", "p99.9")
	for _, r := range results {
		fmt.Fprintf(&b, "  %-10s %-8g %-9d %-12v %-12v %-12v\n",
			r.Phase.Name, r.Phase.QPS, r.Completed,
			r.Latency.Median, r.Latency.P99, r.Latency.P999)
	}
	b.WriteString("  (queue built during an over-capacity spike inflates spike and recovery tails)\n")
	return b.String()
}
