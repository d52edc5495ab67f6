package main

import (
	"flag"

	"musuite/internal/cmdutil"
	"musuite/internal/topo"
	"musuite/internal/trace"
)

// runTopo deploys a declarative topology spec — any DAG of synthetic
// mid-tiers, cache/store/compute leaves, and registered μSuite services —
// over the mid-tier framework, offers the spec's load shape, and arms its
// timed degradation scenario:
//
//	musuite topo -topo examples/hotel-reservation.yaml -topo-qps 300 -topo-duration 10s
//	musuite topo -topo spec.yaml -scenario=false     # run undisturbed
//
// The run fails when it produced untyped errors or unresolved requests:
// degradation windows may shed load (typed backpressure), but must never
// surface failures of unknown provenance.
func runTopo(fs *flag.FlagSet, args []string) error {
	var topoFlags cmdutil.TopoFlags
	topoFlags.Register(fs)
	var tracing cmdutil.TraceFlags
	tracing.Register(fs, false)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := topoFlags.LoadSpec()
	if err != nil {
		return err
	}
	var build topo.BuildOptions
	if tracing.Sample > 0 {
		build = topo.BuildOptions{Spans: trace.NewRecorder(spec.Name, 0), SpanSample: tracing.Sample}
	}
	runErr := topoFlags.Run(spec, build, 0)
	if build.Spans != nil {
		if err := tracing.Write(build.Spans.Snapshot()); err != nil {
			return err
		}
	}
	return runErr
}
