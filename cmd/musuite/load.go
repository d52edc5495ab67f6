package main

import (
	"errors"
	"fmt"
	"time"

	"musuite/internal/bench"
	"musuite/internal/loadgen"
	"musuite/internal/trace"
)

// load drives a deployed mid-tier with the service's canonical query stream,
// generated from the same seed and sizing flags the tiers were started with.
func load(args []string) error {
	svc, fs, s, err := serviceFlags("load", args)
	if err != nil {
		return err
	}
	var (
		target   = fs.String("target", "", "mid-tier address")
		mode     = fs.String("mode", "open", "open | closed | saturate | verify (compare the first replies with an in-process deployment of the same seed and sizes)")
		qps      = fs.Float64("qps", 1000, "open: offered load")
		duration = fs.Duration("duration", 10*time.Second, "measurement window")
		conc     = fs.Int("concurrency", 8, "closed: worker count")
		shards   = fs.Int("shards", 4, "verify: leaf shards of the deployment under test (per-shard stop lists and models make replies depend on it)")

		traceSample = fs.Int("trace-sample", 0, "trace one in N requests end to end (0 = off)")
		traceOut    = fs.String("trace-out", "", "write this side's recorded spans (JSONL) on exit")
		traceReplay = fs.String("trace-replay", "", "open mode: replay the arrival process of this recorded trace file instead of Poisson arrivals")
		replaySpeed = fs.Float64("replay-speed", 1, "replay clock scale (2 = twice the recorded rate)")
	)
	fs.Parse(args[1:])
	if *target == "" {
		return errors.New("-target is required")
	}
	s.Shards = *shards

	var fm bench.FrameworkMode
	if *traceSample > 0 {
		fm.Spans = trace.NewRecorder("loadgen", trace.DefaultRecorderCap)
		fm.SpanSample = *traceSample
	}
	issue, closeClient, err := svc.Workload(*s, fm, *target)
	if err != nil {
		return err
	}
	defer closeClient()

	switch *mode {
	case "open":
		var res loadgen.OpenLoopResult
		if *traceReplay != "" {
			spans, err := trace.ReadFile(*traceReplay)
			if err != nil {
				return err
			}
			offsets := trace.ArrivalOffsets(spans)
			if len(offsets) == 0 {
				return fmt.Errorf("%s: no root spans to replay", *traceReplay)
			}
			res = loadgen.RunReplay(issue, loadgen.ReplayConfig{Offsets: offsets, Speed: *replaySpeed})
			fmt.Printf("replay %s: %d recorded arrivals at %gx speed:\n", svc.Kind, len(offsets), *replaySpeed)
		} else {
			res = loadgen.RunOpenLoop(issue, loadgen.OpenLoopConfig{QPS: *qps, Duration: *duration, Seed: s.Seed})
			fmt.Printf("open-loop %s @ %g QPS for %v:\n", svc.Kind, *qps, *duration)
		}
		fmt.Printf("  offered=%d completed=%d shed=%d errors=%d dropped=%d achieved=%.0f QPS\n",
			res.Offered, res.Completed, res.Shed, res.Errors, res.Dropped, res.AchievedQPS)
		fmt.Printf("  latency: %s\n", res.Latency)
	case "closed":
		res := loadgen.RunClosedLoop(issue, loadgen.ClosedLoopConfig{Concurrency: *conc, Duration: *duration, Warmup: 8})
		fmt.Printf("closed-loop %s with %d workers for %v:\n", svc.Kind, *conc, *duration)
		fmt.Printf("  throughput=%.0f QPS completed=%d errors=%d\n", res.Throughput, res.Completed, res.Errors)
		fmt.Printf("  latency: %s\n", res.Latency)
	case "saturate":
		res := loadgen.FindSaturation(issue, loadgen.SaturationConfig{Window: *duration})
		fmt.Printf("saturation %s: %.0f QPS at concurrency %d\n", svc.Kind, res.Throughput, res.Concurrency)
		for _, st := range res.Steps {
			fmt.Printf("  concurrency %-5d → %.0f QPS\n", st.Concurrency, st.Throughput)
		}
	case "verify":
		// The multi-process half of the equivalence anchor: the tiers at
		// -target, each started from the seed and sizes given here, must
		// answer the query stream byte for byte as the in-process
		// deployment of the same definition does.
		const n = 16
		ref, err := bench.StartService(svc.Name, *s, bench.FrameworkMode{})
		if err != nil {
			return err
		}
		defer ref.Close()
		if err := bench.CompareReplies(issue, ref.Issue, n); err != nil {
			return fmt.Errorf("verify %s: %w", svc.Kind, err)
		}
		fmt.Printf("verify %s: %d replies identical to the in-process deployment (seed %d)\n", svc.Kind, n, s.Seed)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	if fm.Spans != nil && *traceOut != "" {
		if err := trace.WriteFile(*traceOut, fm.Spans.Snapshot()); err != nil {
			return err
		}
		fmt.Printf("wrote %d spans to %s (%d dropped)\n", fm.Spans.Len(), *traceOut, fm.Spans.Dropped())
	}
	return nil
}
