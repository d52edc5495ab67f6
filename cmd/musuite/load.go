package main

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"musuite/internal/bench"
	"musuite/internal/cmdutil"
	"musuite/internal/loadgen"
	"musuite/internal/trace"
)

// load drives a deployed mid-tier with the service's canonical query stream,
// generated from the same seed and sizing flags the tiers were started with.
func load(fs *flag.FlagSet, args []string) error {
	svc, s, err := serviceFlags(fs, args)
	if err != nil {
		return err
	}
	var (
		target   = fs.String("target", "", "mid-tier address")
		mode     = fs.String("mode", "open", "open | closed | saturate | verify (compare the first replies with an in-process deployment of the same seed and sizes)")
		qps      = fs.Float64("qps", 1000, "open: offered load")
		duration = fs.Duration("duration", 10*time.Second, "measurement window")
	)
	var tracing cmdutil.TraceFlags
	tracing.Register(fs, true)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *target == "" {
		return errors.New("-target is required")
	}

	var fm bench.FrameworkMode
	if tracing.Sample > 0 {
		fm.Spans = trace.NewRecorder("loadgen", 0)
		fm.SpanSample = tracing.Sample
	}
	issue, closeClient, err := svc.Workload(*s, fm, *target)
	if err != nil {
		return err
	}
	defer closeClient()

	switch *mode {
	case "open":
		var res loadgen.OpenLoopResult
		if tracing.Replay != "" {
			spans, err := trace.ReadFile(tracing.Replay)
			if err != nil {
				return err
			}
			offsets := trace.ArrivalOffsets(spans)
			if len(offsets) == 0 {
				return fmt.Errorf("%s: no root spans to replay", tracing.Replay)
			}
			res = loadgen.RunReplay(issue, loadgen.ReplayConfig{Offsets: offsets, Speed: tracing.Speed})
			fmt.Printf("replay %s: %d recorded arrivals at %gx speed:\n", svc.Kind, len(offsets), tracing.Speed)
		} else {
			res = loadgen.RunOpenLoop(issue, loadgen.OpenLoopConfig{QPS: *qps, Duration: *duration, Seed: s.Seed})
			fmt.Printf("open-loop %s @ %g QPS for %v:\n", svc.Kind, *qps, *duration)
		}
		fmt.Printf("  offered=%d completed=%d shed=%d errors=%d dropped=%d achieved=%.0f QPS\n",
			res.Offered, res.Completed, res.Shed, res.Errors, res.Dropped, res.AchievedQPS)
		fmt.Printf("  latency: %s\n", res.Latency)
	case "closed":
		const workers = 8
		res := loadgen.RunClosedLoop(issue, loadgen.ClosedLoopConfig{Concurrency: workers, Duration: *duration, Warmup: 8})
		fmt.Printf("closed-loop %s with %d workers for %v:\n", svc.Kind, workers, *duration)
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

	if fm.Spans != nil {
		if n := fm.Spans.Dropped(); n > 0 {
			fmt.Printf("span recorder full: %d spans dropped\n", n)
		}
		return tracing.Write(fm.Spans.Snapshot())
	}
	return nil
}
