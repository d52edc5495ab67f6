package topo

import (
	"time"

	"musuite/internal/loadgen"
)

// RunOptions parameterizes one spec run.
type RunOptions struct {
	// Build instruments the deployment.
	Build BuildOptions
	// QPS and Duration override the spec's load shape when positive.
	QPS float64
	// Duration overrides the spec's offered-load window when positive.
	Duration time.Duration
	// DrainTimeout bounds the post-window wait for stragglers.
	DrainTimeout time.Duration
}

// RunResult is one spec run's measurement.
type RunResult struct {
	// Phases are the per-phase results of the offered load.
	Phases []loadgen.PhaseResult
	// Events logs the scenario transitions that fired during the run.
	Events []EventLogEntry
}

// Totals aggregates the phases.
func (r *RunResult) Totals() (offered, completed, errors, shed, dropped uint64) {
	for _, p := range r.Phases {
		offered += p.Offered
		completed += p.Completed
		errors += p.Errors
		shed += p.Shed
		dropped += p.Dropped
	}
	return
}

// Run builds the spec, arms its scenario, offers its load shape at the
// entry, and tears everything down: the one-call path behind `musuite topo`
// and `musuite bench -experiment scenario`.
func Run(spec *Spec, opts RunOptions) (*RunResult, error) {
	load := spec.Load
	if opts.QPS > 0 {
		load.QPS = opts.QPS
	}
	if opts.Duration > 0 {
		load.Duration = opts.Duration
	}
	dep, err := Build(spec, opts.Build)
	if err != nil {
		return nil, err
	}
	defer dep.Close()
	client, err := dep.NewLoadClient()
	if err != nil {
		return nil, err
	}
	defer client.Close()

	phases := LoadPhases(load)
	scenario := dep.StartScenario(spec.Scenario)
	results := loadgen.RunSchedule(client.Issue, phases, spec.Seed, opts.DrainTimeout)
	scenario.Stop()
	return &RunResult{Phases: results, Events: scenario.Log()}, nil
}
