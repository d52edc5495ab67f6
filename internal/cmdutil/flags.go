// Package cmdutil declares every flag more than one musuite subcommand takes
// — once.  A subcommand registers a group on its flag set and, after Parse,
// asks the group for what the flags describe in the framework's own types:
// ModeFlags the deployment variant (the mid-tier's core.Options, the leaves'
// kernel engine, HDSearch's index), TraceFlags where spans are sampled and
// written, TopoFlags a topology spec and its run shape.
package cmdutil

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"musuite/internal/bench"
	"musuite/internal/cluster"
	"musuite/internal/services/hdsearch"
	"musuite/internal/topo"
	"musuite/internal/trace"
)

// ModeFlags registers the flags that select a deployment variant (`musuite
// serve` and `musuite bench`): the mid-tier's policy — the flags become the
// core.Options a tier is built from, with no struct in between — then the
// leaves' kernel engine, HDSearch's candidate index and the replica count.
// The returned function, called after Parse, applies -replicas to s and
// builds the mode.
func ModeFlags(fs *flag.FlagSet) func(s *bench.Scale) (bench.FrameworkMode, error) {
	var mode bench.FrameworkMode
	tail := &mode.MidTier.Tail
	fs.Float64Var(&tail.HedgePercentile, "hedge-pct", 0, "mid-tier: hedge leaf calls slower than this latency percentile (0 disables, e.g. 0.95)")
	fs.DurationVar(&tail.HedgeDelay, "hedge-delay", 0, "mid-tier: fixed hedge delay (overrides -hedge-pct)")
	fs.Float64Var(&tail.RetryBudgetRatio, "retry-budget", 0, "mid-tier: hedge/retry budget as a fraction of primary traffic (0 = default 0.1)")
	routing := fs.String("routing", "modulo", "mid-tier: key placement strategy: modulo | jump (jump keeps placements stable through resizes)")
	fs.IntVar(&mode.LeafParallelism, "leaf-parallelism", 0, "leaf (hdsearch, recommend): worker goroutines per kernel scan (0 = NumCPU, 1 = serial)")
	fs.BoolVar(&mode.ScalarKernels, "scalar-kernels", false, "leaf (hdsearch, recommend): use the reference scalar kernels (the ablation baseline for the tuned SoA engine)")
	fs.StringVar((*string)(&mode.Index), "index", string(hdsearch.IndexLSH),
		"hdsearch: candidate index: lsh | kdtree | kmeans | ivf | ivfsq | ivfpq | hnsw (leaf-resident kinds build per-shard indexes)")
	replicas := fs.Int("replicas", 0, "leaf replicas per shard; router: replication pool size (0 = the scale's: 1, router 2)")
	return func(s *bench.Scale) (bench.FrameworkMode, error) {
		if *replicas > 0 {
			s.LeafReplicas, s.RouterReplicas = *replicas, *replicas
		}
		var err error
		mode.MidTier.Routing, err = cluster.ParseRouting(*routing)
		return mode, err
	}
}

// TraceFlags is the distributed-tracing flag group: the front ends (`musuite
// load`, `bench`, `topo`) sample and write, a tier (`musuite serve`) only
// writes — no tier has a sampler of its own.
type TraceFlags struct {
	// Sample is -trace-sample: trace one in N requests (0 = off).
	Sample int
	// Out is -trace-out: the JSONL file this process's spans go to.
	Out string
	// Replay and Speed are -trace-replay and -replay-speed.
	Replay string
	Speed  float64
}

// RegisterOut registers -trace-out alone: all a tier takes.
func (t *TraceFlags) RegisterOut(fs *flag.FlagSet) {
	fs.StringVar(&t.Out, "trace-out", "", "write this process's recorded spans (JSONL) here on exit; per-process files of one deployment merge by concatenation")
}

// Register registers -trace-sample and -trace-out; replay adds the
// arrival-replay pair for the front ends that can re-offer a recorded trace.
func (t *TraceFlags) Register(fs *flag.FlagSet, replay bool) {
	fs.IntVar(&t.Sample, "trace-sample", 0, "trace one in N requests end to end (0 = off)")
	t.RegisterOut(fs)
	if replay {
		fs.StringVar(&t.Replay, "trace-replay", "", "replay the arrival process of this recorded trace file instead of Poisson arrivals")
		fs.Float64Var(&t.Speed, "replay-speed", 1, "with -trace-replay: replay clock scale (2 = twice the recorded rate)")
	}
}

// Write writes spans to -trace-out, if it was given, and says so.
func (t *TraceFlags) Write(spans []trace.Span) error {
	if t.Out == "" {
		return nil
	}
	if err := trace.WriteFile(t.Out, spans); err != nil {
		return err
	}
	fmt.Printf("wrote %d spans to %s\n", len(spans), t.Out)
	return nil
}

// TopoFlags is the topology flag group `musuite topo` and `musuite bench
// -experiment scenario` share: one spec path plus run-shape overrides, so a
// topology behaves identically whichever subcommand drives it.
type TopoFlags struct {
	path     string
	scenario bool
	duration time.Duration
	qps      float64
}

// Register registers the group on fs.
func (f *TopoFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.path, "topo", "", "topology spec (YAML) to deploy and drive")
	fs.BoolVar(&f.scenario, "scenario", true, "arm the spec's scenario events (false = run the topology undisturbed)")
	fs.DurationVar(&f.duration, "topo-duration", 0, "override the spec's offered-load window (0 = spec value)")
	fs.Float64Var(&f.qps, "topo-qps", 0, "override the spec's base offered load (0 = spec value)")
}

// LoadSpec parses and validates the -topo spec, stripping its scenario
// section under -scenario=false.
func (f *TopoFlags) LoadSpec() (*topo.Spec, error) {
	if f.path == "" {
		return nil, errors.New("-topo <spec.yaml> is required")
	}
	spec, err := topo.LoadSpecFile(f.path)
	if err != nil {
		return nil, err
	}
	if !f.scenario {
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
		QPS:          f.qps,
		Duration:     f.duration,
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
