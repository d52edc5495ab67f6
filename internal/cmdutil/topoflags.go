package cmdutil

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"musuite/internal/topo"
)

// TopoFlags is the -topo/-scenario flag group shared by `musuite topo` and
// musuite-bench: one spec path plus run-shape overrides, so a topology
// behaves identically no matter which binary drives it.
type TopoFlags struct {
	path     *string
	scenario *bool
	duration *time.Duration
	qps      *float64
	pattern  *string
	seed     *int64
}

// RegisterTopoFlags registers the topology flag group on fs; call before
// Parse.
func RegisterTopoFlags(fs *flag.FlagSet) *TopoFlags {
	return &TopoFlags{
		path: fs.String("topo", "",
			"topology spec (YAML) to deploy and drive"),
		scenario: fs.Bool("scenario", true,
			"arm the spec's scenario events (false = run the topology undisturbed)"),
		duration: fs.Duration("topo-duration", 0,
			"override the spec's offered-load window (0 = spec value)"),
		qps: fs.Float64("topo-qps", 0,
			"override the spec's base offered load (0 = spec value)"),
		pattern: fs.String("topo-pattern", "",
			"override the spec's arrival pattern: steady | diurnal | flashcrowd | burst"),
		seed: fs.Int64("topo-seed", 0,
			"override the spec's deterministic seed (0 = spec value)"),
	}
}

// LoadSpec parses and validates the -topo spec, stripping its scenario
// section when -scenario=false.
func (f *TopoFlags) LoadSpec() (*topo.Spec, error) {
	if *f.path == "" {
		return nil, errors.New("-topo <spec.yaml> is required")
	}
	spec, err := topo.LoadSpecFile(*f.path)
	if err != nil {
		return nil, err
	}
	if !*f.scenario {
		spec.Scenario = nil
	}
	return spec, nil
}

// Run deploys the spec instrumented by build, drives it with the run-shape
// overrides the flags describe, and prints the scenario report.  A run that
// fails acceptance — untyped errors, requests unresolved at the drain
// timeout, or (recoveryFloor > 0) goodput that did not recover — is
// returned as an error.
func (f *TopoFlags) Run(spec *topo.Spec, build topo.BuildOptions, recoveryFloor float64) error {
	res, err := topo.Run(spec, topo.RunOptions{
		Build:        build,
		QPS:          *f.qps,
		Duration:     *f.duration,
		Pattern:      *f.pattern,
		Seed:         *f.seed,
		DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		return err
	}
	fmt.Print(topo.RenderScenario(spec, res))
	if v := topo.ScenarioViolations(res, recoveryFloor); len(v) > 0 {
		return fmt.Errorf("run failed acceptance:\n  %s", strings.Join(v, "\n  "))
	}
	return nil
}
