package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"

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
//	musuite topo -topo spec.yaml -validate           # parse + validate only
//	musuite topo -topo spec.yaml -scenario=false     # run undisturbed
//
// The run fails when it produced untyped errors or unresolved requests:
// degradation windows may shed load (typed backpressure), but must never
// surface failures of unknown provenance.
func runTopo(args []string) error {
	fs := flag.NewFlagSet("musuite topo", flag.ExitOnError)
	topoFlags := cmdutil.RegisterTopoFlags(fs)
	validate := fs.Bool("validate", false,
		"parse and validate the spec, print its shape, and exit")
	traceSample := fs.Int("trace-sample", 0,
		"record end-to-end spans for 1-in-N requests across every tier (0 = off)")
	traceOut := fs.String("trace-out", "",
		"with -trace-sample: write the recorded spans (JSONL) here")
	fs.Parse(args)

	spec, err := topoFlags.LoadSpec()
	if err != nil {
		return err
	}
	if *validate {
		fmt.Print(describe(spec))
		return nil
	}

	var build topo.BuildOptions
	if *traceSample > 0 {
		build = topo.BuildOptions{Spans: trace.NewRecorder(spec.Name, 0), SpanSample: *traceSample}
	}
	runErr := topoFlags.Run(spec, build, 0)
	if build.Spans != nil && *traceOut != "" {
		spans := build.Spans.Snapshot()
		if err := trace.WriteFile(*traceOut, spans); err != nil {
			return err
		}
		fmt.Printf("wrote %d spans to %s\n", len(spans), *traceOut)
	}
	return runErr
}

// describe summarizes a validated spec: the -validate output.
func describe(spec *topo.Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "topology %q: %d services, entry %s, seed %d\n",
		spec.Name, len(spec.Services), spec.Entry, spec.Seed)
	for _, name := range spec.ServiceNames() {
		svc := spec.Services[name]
		fmt.Fprintf(&b, "  %-16s kind=%-10s shards=%d replicas=%d",
			name, svc.Kind, svc.Shards, svc.Replicas)
		if len(svc.Edges) > 0 {
			var edges []string
			for en, e := range svc.Edges {
				edges = append(edges, fmt.Sprintf("%s->%s", en, e.To))
			}
			sort.Strings(edges)
			fmt.Fprintf(&b, " edges=[%s]", strings.Join(edges, " "))
		}
		b.WriteByte('\n')
	}
	pattern := spec.Load.Pattern
	if pattern == "" {
		pattern = topo.PatternSteady
	}
	fmt.Fprintf(&b, "  load: pattern=%s qps=%g duration=%v\n",
		pattern, spec.Load.QPS, spec.Load.Duration)
	fmt.Fprintf(&b, "  scenario: %d events\n", len(spec.Scenario))
	return b.String()
}
