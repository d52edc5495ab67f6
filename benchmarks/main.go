// Command benchmarks is the repository's performance ledger: it deploys one
// μSuite service in-process over loopback TCP, drives it with a closed loop
// and prints the end-to-end metrics (-trace 0) or the per-layer metrics of a
// second, traced pass (-trace 1) as one JSON object on the last line of its
// standard output.  README.md in this directory defines every metric.
//
//	go run ./benchmarks -workload router_get -seed 1 -seconds 15 -trace 0
//	go run ./benchmarks -aa 10        # A/A check of every workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"musuite/internal/trace"
)

// metricDef names one metric and its unit.  BENCHMARK.json lists the same
// names; the self-test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"qps", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"cpu_us_per_req", "us"},
	{"syscalls_per_req", "count"},
	{"allocs_per_req", "count"},
	{"alloc_bytes_per_req", "B"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
	{"answer_recall", "ratio"},
}

var perLayerMetrics = []metricDef{
	{"wire.encode_ns", "ns"}, {"wire.decode_ns", "ns"},
	{"wire.req_bytes", "B"}, {"wire.reply_bytes", "B"},
	{"rpc.roundtrip_us", "us"}, {"rpc.roundtrip_allocs", "count"},
	{"rpc.pipelined_us", "us"}, {"rpc.syscalls_per_call", "count"},
	{"core.handoff_us", "us"}, {"core.fanout_us", "us"}, {"core.fanout_allocs", "count"},
	{"core.leaf_calls_per_req", "count"},
	{"spooky.hash_ns", "ns"}, {"cluster.route_ns", "ns"},
	{"memcache.get_ns", "ns"}, {"memcache.set_ns", "ns"}, {"memcache.set_allocs", "count"},
	{"postlist.search_us", "us"}, {"postlist.merge_us", "us"}, {"postlist.result_ids", "count"},
	{"lsh.lookup_us", "us"}, {"lsh.lookup_allocs", "count"}, {"lsh.candidates", "count"},
	{"kernel.scan_subset_us", "us"}, {"kernel.ns_per_point", "ns"}, {"kernel.points_per_req", "count"},
	{"trace.frontend_us", "us"}, {"trace.midtier_self_us", "us"},
	{"trace.leaf_wait_us", "us"}, {"trace.leaf_self_us", "us"},
	{"trace.connected_frac", "ratio"}, {"trace.overhead_frac", "ratio"},
	{"gc.cycles_per_kreq", "count"}, {"gc.pause_us_per_req", "us"},
	{"os.vctxsw_per_req", "count"}, {"os.ivctxsw_per_req", "count"},
	{"host.pingpong_us", "us"}, {"host.pingpong_iqr_frac", "ratio"}, {"host.sleep_overshoot_us", "us"},
	{"raw.qps", "1/s"}, {"raw.p50_us", "us"}, {"raw.p99_us", "us"}, {"loadgen.p999_us", "us"},
	{"raw.p50_one_caller_us", "us"},
	{"ledger.explained_frac", "ratio"},
}

// params is one run's configuration.
type params struct {
	w        *workload
	seed     int64
	segments int
	segDur   time.Duration
	small    bool   // self-test inputs
	traceOut string // JSONL file for the traced pass's spans
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(defs []metricDef, values map[string]float64, attempted, failed int) result {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		// A per-layer row that does not apply to the workload reads 0: the
		// layer is not on its requests' path.
		r.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// deployments is how many times the untraced pass sets the service up.  The
// measured window is split evenly among the deployments: throughput differs
// from one deployment of the same inputs to the next (memory placement, which
// connections land on which poller), and within one the host stalls for a
// second at a time.  A time-valued metric is therefore the median over all
// the run's 1 s segments of the segment's own figure, so that a stalled
// segment is one outvoted reading instead of a share of a pooled tail; the
// counts, the heap and the set-up time are medians over the deployments.
const deployments = 5

// runEndToEnd is the untraced pass.  info carries the raw figures and host
// readings that explain the normalised metrics; it is printed, not gated.
func runEndToEnd(p params) (res result, info map[string]float64, err error) {
	ref, err := newPingPong()
	if err != nil {
		return res, nil, err
	}
	defer ref.close()
	cr, err := newCounterReader()
	if err != nil {
		return res, nil, err
	}
	defer cr.close()

	per := make(map[string][]float64) // metric → one value per deployment
	var segs []segStats               // every segment of every deployment
	var attempted, failed int
	k := min(deployments, p.segments)
	for i := 0; i < k; i++ {
		segments := p.segments / k
		if i < p.segments%k {
			segments++
		}
		values, sg, a, f, err := measureDeployment(p, ref, cr, segments)
		if err != nil {
			return res, nil, err
		}
		segs = append(segs, sg...)
		attempted, failed = attempted+a, failed+f
		for name, v := range values {
			per[name] = append(per[name], v)
		}
	}
	values := make(map[string]float64)
	for name, v := range per {
		values[name] = median(v)
	}
	overSegments := func(f func(segStats) float64) float64 {
		v := make([]float64, len(segs))
		for i, sg := range segs {
			v[i] = f(sg)
		}
		return median(v)
	}
	values["qps"] = overSegments(func(s segStats) float64 { return s.qps })
	values["p50_us"] = overSegments(func(s segStats) float64 { return s.p50US })
	values["p99_us"] = overSegments(func(s segStats) float64 { return s.p99US })
	values["cpu_us_per_req"] = overSegments(func(s segStats) float64 { return s.cpuUSPerReq })
	values["raw.qps"] = overSegments(func(s segStats) float64 { return s.qps * s.scale })
	values["raw.p50_us"] = overSegments(func(s segStats) float64 { return s.p50US / s.scale })
	values["raw.p99_us"] = overSegments(func(s segStats) float64 { return s.p99US / s.scale })
	values["raw.cpu_us_per_req"] = overSegments(func(s segStats) float64 { return s.cpuUSPerReq / s.scale })
	res = newResult(endToEndMetrics, values, attempted, failed)
	for name := range res.Metrics {
		delete(values, name)
	}
	return res, values, nil
}

// measureDeployment sets the service up once, takes the live heap of the
// freshly warmed deployment, verifies its answers, measures its share of the
// window and tears it down.  It returns the deployment's value of every
// end-to-end metric that is not time-valued and of the raw and host figures
// printed beside them, and the time-valued figures of each of its segments.
func measureDeployment(p params, ref *pingPong, cr *counterReader, segments int) (values map[string]float64, segs []segStats, attempted, failed int, err error) {
	before, err := ref.measure()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	d, err := p.w.build(p.seed, p.small, nil)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("set-up: %w", err)
	}
	defer d.close()
	runtime.GC()
	runtime.GC()
	heap, err := cr.read()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	attempted, failed, recall := d.verify()
	dr := newDriver(d, cr, nil, segments, p.segDur)
	readings, err := runWindow(ref, []*driver{dr}, segments, p.segDur)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	st, err := dr.stats()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	n := float64(st.completed)
	return map[string]float64{
		"syscalls_per_req":    st.cost.syscalls / n,
		"allocs_per_req":      st.cost.mallocs / n,
		"alloc_bytes_per_req": st.cost.allocBytes / n,
		"live_heap_mb":        heap.heapAllocMB,
		"setup_s":             d.setup.Seconds() * refHostUS / ((before + readings[0]) / 2),
		"answer_recall":       recall,
		"raw.setup_s":         d.setup.Seconds(),
		"host.pingpong_us":    median(readings),
	}, st.segs, attempted + st.attempted, failed + st.failed, nil
}

// runTraced is the second pass: an untraced and a traced deployment of the
// same inputs take turns segment by segment, then the layers are probed.
func runTraced(p params) (res result, err error) {
	ref, err := newPingPong()
	if err != nil {
		return res, err
	}
	defer ref.close()
	cr, err := newCounterReader()
	if err != nil {
		return res, err
	}
	defer cr.close()

	plain, err := p.w.build(p.seed, p.small, nil)
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	defer plain.close()
	tr := newTracing()
	traced, err := p.w.build(p.seed, p.small, tr)
	if err != nil {
		return res, fmt.Errorf("traced set-up: %w", err)
	}
	defer traced.close()
	attempted, failed, _ := plain.verify()
	a, f, _ := traced.verify()
	attempted, failed = attempted+a, failed+f

	leaves, err := dialLeaves(plain.leafAddrs)
	defer closeAll(leaves)
	if err != nil {
		return res, err
	}
	tracedLeaves, err := dialLeaves(traced.leafAddrs)
	defer closeAll(tracedLeaves)
	if err != nil {
		return res, err
	}
	leavesBefore, err := settleLeaves(leaves)
	if err != nil {
		return res, err
	}

	bench := trace.NewRecorder("bench", spanCap)
	plainDr := newDriver(plain, cr, nil, p.segments, p.segDur)
	tracedDr := newDriver(traced, cr, bench, p.segments, p.segDur)
	readings, err := runWindow(ref, []*driver{plainDr, tracedDr}, p.segments, p.segDur)
	if err != nil {
		return res, err
	}
	leavesAfter, err := settleLeaves(leaves)
	if err != nil {
		return res, err
	}
	st, err := plainDr.stats()
	if err != nil {
		return res, err
	}
	m := make(map[string]float64)
	n := float64(st.attempted)
	m["raw.qps"] = st.rawQPS
	m["raw.p50_us"] = quantile(st.raw, 0.50)
	m["raw.p99_us"] = quantile(st.raw, 0.99)
	m["loadgen.p999_us"] = quantile(st.raw, 0.999)
	m["gc.cycles_per_kreq"] = st.cost.gcCycles / n * 1e3
	m["gc.pause_us_per_req"] = st.cost.gcPauseUS / n
	m["os.vctxsw_per_req"] = st.cost.vcsw / n
	m["os.ivctxsw_per_req"] = st.cost.ivcsw / n
	m["core.leaf_calls_per_req"] = float64(leavesAfter.served-leavesBefore.served) / n
	if points := float64(leavesAfter.kernelPoints - leavesBefore.kernelPoints); points > 0 {
		m["kernel.points_per_req"] = points / n
		m["kernel.ns_per_point"] = float64(leavesAfter.kernelNanos-leavesBefore.kernelNanos) / points
	}
	m["host.pingpong_us"] = median(readings)
	m["host.pingpong_iqr_frac"] = iqr(readings) / median(readings)

	// A leaf records its server span after the reply is on the wire, as it
	// counts Served: wait for the traced leaves too before reading spans.
	if _, err := settleLeaves(tracedLeaves); err != nil {
		return res, err
	}
	allSpans := func() []trace.Span {
		spans := bench.Snapshot()
		for _, r := range []*trace.Recorder{tr.front, tr.mid, tr.leaf} {
			spans = append(spans, r.Snapshot()...)
		}
		return spans
	}
	tiers := summarizeTiers(allSpans())
	m["trace.frontend_us"], m["trace.midtier_self_us"] = tiers.frontend, tiers.midtierSelf
	m["trace.leaf_wait_us"], m["trace.leaf_self_us"] = tiers.leafWait, tiers.leafSelf
	m["trace.connected_frac"] = tiers.connectedFrac
	if tst, err := tracedDr.stats(); err == nil {
		m["trace.overhead_frac"] = 1 - tst.rawQPS/st.rawQPS
		attempted, failed = attempted+tst.attempted, failed+tst.failed
	} else if len(tracedDr.seg) > 0 {
		return res, fmt.Errorf("traced deployment: %w", err)
	}

	pr := newProber(bench, cr, m, p.small)
	if err := p.w.probe(pr, plain); err != nil {
		return res, fmt.Errorf("layer probes: %w", err)
	}
	m["host.sleep_overshoot_us"] = sleepOvershootUS()
	m["raw.p50_one_caller_us"] = oneCallerP50(plain, pr.calls, pr.budget)
	if m["raw.p50_one_caller_us"] > 0 {
		m["ledger.explained_frac"] = p.w.explain(m) / m["raw.p50_one_caller_us"]
	}

	if p.traceOut != "" {
		// bench now also holds the probe spans.
		if err := trace.WriteFile(p.traceOut, allSpans()); err != nil {
			return res, fmt.Errorf("write spans: %w", err)
		}
	}
	return newResult(perLayerMetrics, m, attempted+st.attempted, failed+st.failed), nil
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: router_get, router_set, setalgebra_fanout or hdsearch_lsh")
		seed     = flag.Int64("seed", 1, "seed of every input generator")
		seconds  = flag.Int("seconds", 15, "length of the measured window, in 1 s segments")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics of an untraced deployment; 1: per-layer metrics of the traced pass")
		traceOut = flag.String("trace-out", "", "with -trace 1: write program and benchmark spans as JSONL for cmd/traceview")
		aa       = flag.Int("aa", 0, "run every workload this many times and compare two interleaved sets of the runs")
		results  = flag.String("results", "", "with -aa: write the medians of all runs to this JSON file")
	)
	flag.Parse()
	if *aa > 0 {
		if err := runAA(os.Stdout, *aa, *seed, *seconds, *results); err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmarks: need -workload (one of the four) and -seconds ≥ 1")
		flag.Usage()
		os.Exit(2)
	}
	p := params{w: w, seed: *seed, segments: *seconds, segDur: time.Second, traceOut: *traceOut}
	var res result
	if *traced == 1 {
		res, err = runTraced(p)
	} else {
		var info map[string]float64
		if res, info, err = runEndToEnd(p); err == nil {
			line, _ := json.Marshal(map[string]any{"info": info})
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
