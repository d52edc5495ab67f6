package topo

import (
	"fmt"
	"strings"
)

// Reporting and acceptance for a spec run (Run): what `musuite topo` and
// `musuite bench -experiment scenario -topo <spec.yaml>` print and gate on
// — the spec-driven generalization of the flash-crowd and overload
// experiments, runnable against any DAG the topology runtime can build.

// DefaultRecoveryFloor is the acceptance threshold the CI scenario gate
// uses: after the spec's degradation windows revert, the final phase must
// recover at least this fraction of the first phase's goodput.
const DefaultRecoveryFloor = 0.85

// RenderScenario prints the per-phase results and the scenario event log.
func RenderScenario(spec *Spec, res *RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario run: topology %q (%d services, entry %s)\n",
		spec.Name, len(spec.Services), spec.Entry)
	fmt.Fprintf(&b, "  %-12s %-8s %-9s %-9s %-6s %-7s %-8s %-9s %-12s %-12s\n",
		"phase", "QPS", "offered", "completed", "shed", "errors", "dropped", "goodput", "p50", "p99")
	for _, r := range res.Phases {
		fmt.Fprintf(&b, "  %-12s %-8g %-9d %-9d %-6d %-7d %-8d %-9.0f %-12v %-12v\n",
			r.Phase.Name, r.Phase.QPS, r.Offered, r.Completed,
			r.Shed, r.Errors, r.Dropped, r.Goodput(),
			r.Latency.Median, r.Latency.P99)
	}
	if len(res.Events) > 0 {
		b.WriteString("  scenario events:\n")
		for _, e := range res.Events {
			fmt.Fprintf(&b, "    +%-8v %s\n", e.Offset, e.What)
		}
	}
	offered, completed, errors, shed, dropped := res.Totals()
	fmt.Fprintf(&b, "  totals: offered=%d completed=%d shed=%d errors=%d dropped=%d\n",
		offered, completed, shed, errors, dropped)
	return b.String()
}

// ScenarioViolations checks the run against the scenario acceptance
// criteria: degradation may shed load (typed backpressure), but it must
// never produce untyped errors or drops, and when recoveryFloor > 0 the
// final phase must recover that fraction of the first phase's goodput
// once the degradation windows have reverted.
func ScenarioViolations(res *RunResult, recoveryFloor float64) []string {
	var v []string
	_, _, errors, _, dropped := res.Totals()
	if errors > 0 {
		v = append(v, fmt.Sprintf("%d untyped errors (every failure must be typed backpressure)", errors))
	}
	if dropped > 0 {
		v = append(v, fmt.Sprintf("%d requests unresolved at drain timeout", dropped))
	}
	if recoveryFloor > 0 && len(res.Phases) >= 2 {
		first, last := res.Phases[0], res.Phases[len(res.Phases)-1]
		if first.Goodput() > 0 && last.Goodput() < recoveryFloor*first.Goodput() {
			v = append(v, fmt.Sprintf("goodput did not recover: final phase %.0f/s < %.0f%% of first phase %.0f/s",
				last.Goodput(), recoveryFloor*100, first.Goodput()))
		}
	}
	return v
}
