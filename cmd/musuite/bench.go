package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"musuite/internal/bench"
	"musuite/internal/cmdutil"
	"musuite/internal/core"
	"musuite/internal/topo"
	"musuite/internal/trace"
)

// runBench regenerates the paper's evaluation — Table II and Figs. 9–19,
// plus the §VII framework ablation — and the suite's own experiments:
//
//	musuite bench -experiment all
//	musuite bench -experiment fig9 -scale small
//	musuite bench -experiment fig10 -services HDSearch,Router -window 5s
//	musuite bench -experiment fig13 # Set Algebra syscall breakdown only
//	musuite bench -experiment ablation -load 200
//	musuite bench -experiment scenario -topo examples/cascade.yaml
func runBench(fs *flag.FlagSet, args []string) error {
	var (
		experiment = fs.String("experiment", "all",
			"tableII | fig9 | fig10 | fig11 | fig12 | fig13 | fig14 | fig15 | fig16 | fig17 | fig18 | fig19 | ablation | threadpool | flashcrowd | trace | indexcmp | resize | overload | scenario | all")
		scaleName = fs.String("scale", "small", "small | paper")
		services  = fs.String("services", strings.Join(bench.ServiceNames, ","),
			"comma-separated service subset")
		window = fs.Duration("window", 0, "override per-load measurement window")
		load   = fs.Float64("load", 0, "offered load of the single-load experiments (default: middle configured load)")

		recallFloor = fs.Float64("recall-floor", 0, "indexcmp: fail (non-zero exit) if any index kind's best recall@10 is below this floor (0 disables)")
	)
	modeFlags := cmdutil.ModeFlags(fs)
	var tracing cmdutil.TraceFlags
	tracing.Register(fs, true)
	var topoFlags cmdutil.TopoFlags
	topoFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var scale bench.Scale
	switch *scaleName {
	case "small":
		scale = bench.SmallScale()
	case "paper":
		scale = bench.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	if *window > 0 {
		scale.Window = *window
	}
	mode, err := modeFlags(&scale)
	if err != nil {
		return err
	}
	svcList := parseServices(*services)
	if len(svcList) == 0 {
		return fmt.Errorf("no valid services in %q", *services)
	}

	switch {
	case *experiment == "scenario":
		return runScenario(&topoFlags)
	case tracing.Replay != "":
		return runTraceReplay(tracing, scale, mode)
	case tracing.Sample > 0:
		return runTraceRecord(tracing, scale, mode, svcList[0], *load)
	}
	return run(*experiment, scale, mode, svcList, *load, *recallFloor)
}

// runScenario drives a declarative topology spec through its load shape
// and timed degradation events, gating on the scenario acceptance
// criteria: zero untyped errors and post-degradation goodput recovery.
func runScenario(f *cmdutil.TopoFlags) error {
	spec, err := f.LoadSpec()
	if err != nil {
		return err
	}
	if err := f.Run(spec, topo.BuildOptions{}, topo.DefaultRecoveryFloor); err != nil {
		return err
	}
	fmt.Println("(scenario acceptance: zero untyped errors, goodput recovered)")
	return nil
}

// runTraceRecord deploys one service, offers an open-loop load with 1-in-N
// span sampling, and reports the critical-path breakdown of the recorded
// traces (optionally exporting them for `musuite trace` or replay).
func runTraceRecord(t cmdutil.TraceFlags, scale bench.Scale, mode bench.FrameworkMode, service string, load float64) error {
	if load <= 0 {
		load = scale.Loads[len(scale.Loads)/2]
	}
	spans, res, err := bench.TraceRun(service, scale, mode, load, scale.Window, t.Sample)
	if err != nil {
		return err
	}
	fmt.Printf("%s @ %g QPS for %v, tracing 1 in %d requests:\n", service, load, scale.Window, t.Sample)
	fmt.Printf("  offered=%d completed=%d errors=%d achieved=%.0f QPS\n",
		res.Offered, res.Completed, res.Errors, res.AchievedQPS)
	fmt.Print(trace.Summarize(trace.BuildTrees(spans)).String())
	return t.Write(spans)
}

// runTraceReplay re-offers a recorded trace's arrival process against a
// fresh deployment of the service the spans came from.
func runTraceReplay(t cmdutil.TraceFlags, scale bench.Scale, mode bench.FrameworkMode) error {
	spans, err := trace.ReadFile(t.Replay)
	if err != nil {
		return err
	}
	service, ok := bench.ServiceForTrace(spans)
	if !ok {
		return fmt.Errorf("%s: cannot infer a service from the span names", t.Replay)
	}
	res, err := bench.ReplayRun(service, scale, mode, spans, t.Speed)
	if err != nil {
		return err
	}
	fmt.Printf("replay %s: %d recorded arrivals at %gx speed:\n",
		service, res.Offered, t.Speed)
	fmt.Printf("  offered=%d completed=%d errors=%d dropped=%d achieved=%.0f QPS\n",
		res.Offered, res.Completed, res.Errors, res.Dropped, res.AchievedQPS)
	fmt.Printf("  latency: %s\n", res.Latency)
	return nil
}

func parseServices(csv string) []string {
	var out []string
	for _, s := range strings.Split(csv, ",") {
		if svc := bench.ServiceByKind(strings.ToLower(strings.TrimSpace(s))); svc != nil {
			out = append(out, svc.Name)
		}
	}
	return out
}

// figureService maps the per-service syscall/overhead figures to their
// subject, in the paper's service order: Fig 11/15 HDSearch, 12/16 Router,
// 13/17 SetAlgebra, 14/18 Recommend.
func figureService(fig int) string { return bench.ServiceNames[(fig-11)%4] }

func run(experiment string, scale bench.Scale, mode bench.FrameworkMode, services []string, load, recallFloor float64) error {
	start := time.Now()
	defer func() { fmt.Printf("\n(total experiment time: %v)\n", time.Since(start).Round(time.Millisecond)) }()

	// Figs. 10–19 characterise the paper's §IV pipeline — Active-Exe is a
	// worker's wake-up latency, the futex counts are its hand-offs — so they
	// pin its dispatched design; "ablation" sets it beside the in-line and
	// automatic modes.
	characterize := func(services []string) ([]bench.LoadPoint, error) {
		paper := mode
		paper.MidTier.Dispatch = core.Dispatched
		return bench.Characterize(scale, services, paper)
	}
	switch experiment {
	case "tableII":
		fmt.Print(bench.RenderTableII(bench.Host()))
		return nil
	case "fig9":
		rows, err := bench.Fig9(scale, services)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderFig9(rows))
		return nil
	case "fig10", "fig19":
		points, err := characterize(services)
		if err != nil {
			return err
		}
		if experiment == "fig10" {
			fmt.Print(bench.RenderFig10(points))
		} else {
			fmt.Print(bench.RenderFig19(points))
		}
		return nil
	case "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18":
		var fig int
		fmt.Sscanf(experiment, "fig%d", &fig)
		svc := figureService(fig)
		points, err := characterize([]string{svc})
		if err != nil {
			return err
		}
		if fig <= 14 {
			fmt.Print(bench.RenderFig11to14(points))
		} else {
			fmt.Print(bench.RenderFig15to18(points))
		}
		return nil
	case "ablation":
		if load <= 0 {
			load = scale.Loads[len(scale.Loads)/2]
		}
		rows, err := bench.Ablation(scale, services, load)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderAblation(rows))
		return nil
	case "threadpool":
		if load <= 0 {
			load = scale.Loads[len(scale.Loads)/2]
		}
		rows, err := bench.ThreadPoolSweep(scale, services[0], []int{1, 2, 4, 8, 16}, load)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderThreadPool(rows))
		return nil
	case "indexcmp":
		if load <= 0 {
			load = scale.Loads[len(scale.Loads)/2]
		}
		rows, err := bench.IndexComparison(scale, load)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderIndexComparison(rows))
		if recallFloor > 0 {
			if v := bench.RecallFloorViolations(rows, recallFloor); len(v) > 0 {
				return fmt.Errorf("recall floor violated:\n  %s", strings.Join(v, "\n  "))
			}
			fmt.Printf("(all index kinds meet the %.2f recall@10 floor)\n", recallFloor)
		}
		return nil
	case "trace":
		if load <= 0 {
			load = scale.Loads[len(scale.Loads)/2]
		}
		spans, _, err := bench.TraceRun(services[0], scale, mode, load, scale.Window, 1)
		if err != nil {
			return err
		}
		fmt.Printf("%s @ %g QPS — ", services[0], load)
		fmt.Print(trace.StageReport(spans))
		return nil
	case "resize":
		if load <= 0 {
			load = scale.Loads[0]
		}
		phases, err := bench.Resize(scale, mode, load)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderResize(phases, load))
		return nil
	case "overload":
		res, err := bench.Overload(scale, mode)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderOverload(res))
		if !res.Passed() {
			return fmt.Errorf("overload ramp failed %d acceptance criteria", len(res.Violations))
		}
		return nil
	case "flashcrowd":
		if load <= 0 {
			load = scale.Loads[0]
		}
		results, err := bench.FlashCrowdExperiment(scale, services[0], load, 20)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderFlashCrowd(services[0], results))
		return nil
	case "all":
		fmt.Print(bench.RenderTableII(bench.Host()))
		fmt.Println()
		rows, err := bench.Fig9(scale, services)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderFig9(rows))
		fmt.Println()
		points, err := characterize(services)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderFig10(points))
		fmt.Println()
		fmt.Print(bench.RenderFig11to14(points))
		fmt.Println()
		fmt.Print(bench.RenderFig15to18(points))
		fmt.Println()
		fmt.Print(bench.RenderFig19(points))
		fmt.Println()
		if load <= 0 {
			load = scale.Loads[len(scale.Loads)/2]
		}
		ab, err := bench.Ablation(scale, services, load)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderAblation(ab))
		return nil
	}
	return fmt.Errorf("unknown experiment %q", experiment)
}
