// Package loadgen implements μSuite's load-testing methodology (paper §V):
// a closed-loop mode that finds each service's peak sustainable throughput,
// and an open-loop mode with Poisson inter-arrivals for tail-latency
// measurement.
//
// The open-loop generator avoids the coordinated-omission problem the paper
// criticizes in closed-loop testers (YCSB/Faban): request latency is
// measured from the request's *scheduled* arrival time, so queueing delay
// caused by a slow server is charged to the server rather than silently
// removing load.
package loadgen

import (
	"time"

	"musuite/internal/rpc"
	"musuite/internal/stats"
)

// IssueFunc launches one asynchronous request and returns its in-flight
// call; the completion must be delivered on done.  Service clients' Go
// methods have exactly this shape.
type IssueFunc func(done chan *rpc.Call) *rpc.Call

// --- closed loop ---

// ClosedLoopConfig parameterizes a closed-loop run.
type ClosedLoopConfig struct {
	// Concurrency is the number of synchronous client workers.
	Concurrency int
	// Duration is the measurement window.
	Duration time.Duration
	// Warmup requests per worker are issued and discarded first.
	Warmup int
}

// ClosedLoopResult summarizes a closed-loop run.
type ClosedLoopResult struct {
	// Throughput is completed requests per second.
	Throughput float64
	// Completed and Errors count requests in the window.  Shed counts
	// typed overload rejections (rpc.OverloadError) separately: a shed is
	// the server refusing work by design, not a failure.
	Completed, Errors, Shed uint64
	// Latency summarizes per-request latency (issue → completion).
	Latency stats.Snapshot
}

// RunClosedLoop drives the service with Concurrency workers, each issuing
// its next request as soon as the previous completes.
func RunClosedLoop(issue IssueFunc, cfg ClosedLoopConfig) ClosedLoopResult {
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	hist := stats.NewHistogram()
	type workerResult struct{ completed, errors, shed uint64 }
	results := make(chan workerResult, cfg.Concurrency)
	deadline := time.Now().Add(cfg.Duration)

	for w := 0; w < cfg.Concurrency; w++ {
		go func() {
			done := make(chan *rpc.Call, 1)
			var wr workerResult
			for i := 0; i < cfg.Warmup; i++ {
				issue(done)
				<-done
			}
			for time.Now().Before(deadline) {
				start := time.Now()
				issue(done)
				call := <-done
				if call.Err != nil {
					if rpc.IsOverload(call.Err) {
						wr.shed++
					} else {
						wr.errors++
					}
					continue
				}
				wr.completed++
				hist.Record(time.Since(start))
			}
			results <- wr
		}()
	}
	var total workerResult
	for w := 0; w < cfg.Concurrency; w++ {
		wr := <-results
		total.completed += wr.completed
		total.errors += wr.errors
		total.shed += wr.shed
	}
	return ClosedLoopResult{
		Throughput: float64(total.completed) / cfg.Duration.Seconds(),
		Completed:  total.completed,
		Errors:     total.errors,
		Shed:       total.shed,
		Latency:    hist.Snapshot(),
	}
}

// --- saturation probe ---

// SaturationConfig parameterizes the peak-throughput search.
type SaturationConfig struct {
	// Window is the measurement window per concurrency step.
	Window time.Duration
	// MaxConcurrency bounds the search (default 64).
	MaxConcurrency int
}

// saturationPlateau stops the saturation search when doubling concurrency
// gains less than this fraction of throughput.
const saturationPlateau = 0.05

// SaturationResult reports the discovered peak.
type SaturationResult struct {
	// Throughput is the peak sustainable QPS.
	Throughput float64
	// Concurrency is the worker count that achieved it.
	Concurrency int
	// Steps records each probe step's throughput, keyed by concurrency.
	Steps []SaturationStep
}

// SaturationStep is one probe measurement.
type SaturationStep struct {
	Concurrency int
	Throughput  float64
}

// FindSaturation doubles closed-loop concurrency until throughput plateaus —
// the paper's peak-sustainable-throughput methodology (Fig. 9).
func FindSaturation(issue IssueFunc, cfg SaturationConfig) SaturationResult {
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	if cfg.MaxConcurrency <= 0 {
		cfg.MaxConcurrency = 64
	}
	var res SaturationResult
	best := 0.0
	for conc := 1; conc <= cfg.MaxConcurrency; conc *= 2 {
		r := RunClosedLoop(issue, ClosedLoopConfig{
			Concurrency: conc,
			Duration:    cfg.Window,
			Warmup:      2,
		})
		res.Steps = append(res.Steps, SaturationStep{Concurrency: conc, Throughput: r.Throughput})
		if r.Throughput > best {
			if best > 0 && (r.Throughput-best)/best < saturationPlateau {
				best = r.Throughput
				res.Throughput = best
				res.Concurrency = conc
				break
			}
			best = r.Throughput
			res.Throughput = best
			res.Concurrency = conc
		} else if best > 0 {
			break // throughput fell: past saturation
		}
	}
	return res
}

// --- open loop ---

// OpenLoopConfig parameterizes an open-loop (Poisson) run.
type OpenLoopConfig struct {
	// QPS is the offered load.
	QPS float64
	// Duration is the offered-load window (completions are drained
	// afterwards).
	Duration time.Duration
	// Seed drives the exponential inter-arrival sampling.
	Seed int64
	// DrainTimeout bounds the post-window wait for stragglers
	// (default 10s).
	DrainTimeout time.Duration
	// CaptureRaw retains every latency sample for violin rendering.
	CaptureRaw bool
}

// OpenLoopResult summarizes an open-loop run.
type OpenLoopResult struct {
	// Offered and Completed count requests; Errors and Dropped (still in
	// flight at drain timeout) are the failure modes.  Shed counts typed
	// overload rejections (rpc.OverloadError) separately from Errors: a
	// shed is goodput lost by design — the saturation-ramp experiment
	// requires overload to surface here, never as an untyped failure.
	Offered, Completed, Errors, Dropped, Shed uint64
	// AchievedQPS is completions over the offered-load window.
	AchievedQPS float64
	// Latency summarizes scheduled-send→completion latency.
	Latency stats.Snapshot
	// Raw holds every latency sample when CaptureRaw was set.
	Raw []time.Duration
}

// RunOpenLoop offers Poisson arrivals at cfg.QPS, measuring each request
// from its scheduled arrival time (coordinated-omission safe).
func RunOpenLoop(issue IssueFunc, cfg OpenLoopConfig) OpenLoopResult {
	if cfg.QPS <= 0 {
		cfg.QPS = 100
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	res := RunProcess(issue, PoissonArrivals(cfg.QPS, cfg.Duration, cfg.Seed), ProcessConfig{
		Window:       cfg.Duration,
		DrainTimeout: cfg.DrainTimeout,
		CaptureRaw:   cfg.CaptureRaw,
	})
	return res.Total
}

// ReplayConfig parameterizes a trace-replay run: a recorded arrival process
// (e.g. trace.ArrivalOffsets of an exported trace) re-offered against a live
// deployment.
type ReplayConfig struct {
	// Offsets schedules arrival i at Offsets[i] from the start of the run.
	// Must be sorted ascending (offset zero first).
	Offsets []time.Duration
	// Speed scales the replay clock: 1 re-offers at recorded speed, 2 at
	// twice the recorded rate (default 1).
	Speed float64
	// DrainTimeout bounds the post-window wait for stragglers (default 10s).
	DrainTimeout time.Duration
	// CaptureRaw retains every latency sample.
	CaptureRaw bool
}

// RunReplay re-offers a recorded arrival process, measuring each request
// from its scheduled arrival exactly as RunOpenLoop does.  The workload
// bodies come from issue (the recorded traces carry timing, not payloads);
// what is reproduced is the offered-load process — bursts included, which a
// Poisson model would smooth away.
func RunReplay(issue IssueFunc, cfg ReplayConfig) OpenLoopResult {
	if len(cfg.Offsets) == 0 {
		return OpenLoopResult{}
	}
	speed := cfg.Speed
	if speed <= 0 {
		speed = 1
	}
	window := time.Duration(float64(cfg.Offsets[len(cfg.Offsets)-1])/speed) + time.Millisecond
	res := RunProcess(issue, ReplayArrivals(cfg.Offsets, speed), ProcessConfig{
		Window:       window,
		DrainTimeout: cfg.DrainTimeout,
		CaptureRaw:   cfg.CaptureRaw,
	})
	return res.Total
}
