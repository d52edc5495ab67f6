package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// The A/A check: the same code is run n times per workload, each run with
// its own seed and in its own process, and the runs are split into two
// interleaved sets (even and odd).  For every end-to-end metric the report
// gives each set's median and quartiles, the gap between the two medians and
// the spread of all n values, next to the metric's bound from
// BENCHMARK.json.  A metric whose A/A gap or spread is not well inside its
// bound cannot tell a regression from the host.  A few traced runs per
// workload then give the per-layer medians, and -results writes all medians
// as the JSON row of this commit in the per-PR trajectory.

// aaTracedRuns is how many traced runs per workload the check makes.
const aaTracedRuns = 3

// benchmarkFile is the part of BENCHMARK.json the check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// aaRun is what one child process printed.
type aaRun struct {
	metrics map[string]float64
	info    map[string]float64 // untraced runs only
}

// runChild runs one workload once in a process of its own.
func runChild(exe string, w *workload, seed int64, seconds, traced int) (aaRun, error) {
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return aaRun{}, fmt.Errorf("%s seed %d trace %d: %w", w.name, seed, traced, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return aaRun{}, fmt.Errorf("%s seed %d trace %d: %w", w.name, seed, traced, err)
	}
	run := aaRun{metrics: make(map[string]float64)}
	for name, v := range res.Metrics {
		run.metrics[name] = v.Value
	}
	if traced == 0 {
		var info struct {
			Info map[string]float64 `json:"info"`
		}
		if len(lines) < 2 || json.Unmarshal(lines[len(lines)-2], &info) != nil {
			return aaRun{}, fmt.Errorf("%s seed %d: no info line printed", w.name, seed)
		}
		run.info = info.Info
	}
	return run, nil
}

// ledgerRow is one metric of one workload in the results file.  Low and High
// are the first and third quartile of the untraced runs for an end-to-end
// metric, and the least and greatest of the traced runs for a per-layer one.
type ledgerRow struct {
	Median float64 `json:"median"`
	Low    float64 `json:"low"`
	High   float64 `json:"high"`
	Unit   string  `json:"unit"`
}

// ledger is the results file: the medians of one commit's accepted runs.
type ledger struct {
	Runs       int                             `json:"runs"`
	TracedRuns int                             `json:"traced_runs"`
	Seconds    int                             `json:"seconds"`
	FirstSeed  int64                           `json:"first_seed"`
	Workloads  map[string]map[string]ledgerRow `json:"workloads"`
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the exclusive method), which is what
// the acceptance check of the benchmark uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-1)
		hi := min(lo+1, len(s)-1)
		frac := min(max(pos-float64(lo), 0), 1)
		return s[lo] + (s[hi]-s[lo])*frac
	}
	return at(0.25), at(0.5), at(0.75)
}

func runAA(out io.Writer, n int, seed int64, seconds int, resultsPath string) error {
	if n < 4 {
		return fmt.Errorf("-aa needs at least 4 runs to form two sets")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa reads the bounds from BENCHMARK.json; run it from the root of the repository: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fmt.Fprintf(out, "# A/A check: %d runs per workload, %d s window, seeds %d–%d\n\n", n, seconds, seed, seed+int64(n)-1)
	fmt.Fprintf(out, "Set A is the even runs, set B the odd ones; `gap` is the distance between the two\n")
	fmt.Fprintf(out, "medians and `spread` the interquartile range of all %d values, both as a share of\n", n)
	fmt.Fprintf(out, "the median.  Rows without a bound are not gated: they show what the host did and\n")
	fmt.Fprintf(out, "what the un-normalised figures would have read.\n")
	allOK := true
	led := ledger{Runs: n, TracedRuns: aaTracedRuns, Seconds: seconds, FirstSeed: seed, Workloads: make(map[string]map[string]ledgerRow)}
	for i := range workloads {
		w := &workloads[i]
		runs := make([]aaRun, n)
		for r := range runs {
			if runs[r], err = runChild(exe, w, seed+int64(r), seconds, 0); err != nil {
				return err
			}
		}
		led.Workloads[w.name] = make(map[string]ledgerRow)
		fmt.Fprintf(out, "\n## %s\n\n", w.name)
		fmt.Fprintf(out, "| metric | unit | A median [q1, q3] | B median [q1, q3] | gap | spread | bound | |\n")
		fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|\n")
		row := func(name, unit string, bound float64, get func(aaRun) float64) {
			var a, b, all []float64
			for r, run := range runs {
				v := get(run)
				all = append(all, v)
				if r%2 == 0 {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			q1, q2, q3 := quartiles(all)
			led.Workloads[w.name][name] = ledgerRow{Median: q2, Low: q1, High: q3, Unit: unit}
			gap, spread := 0.0, 0.0
			if q2 != 0 {
				gap, spread = math.Abs(a2-b2)/q2, (q3-q1)/q2
			}
			verdict, boundText := "", "—"
			if bound > 0 {
				boundText = fmt.Sprintf("%.1f%%", bound*100)
				verdict = "ok"
				if gap > bound || (name != "setup_s" && spread > bound) {
					verdict, allOK = "**over**", false
				}
			}
			fmt.Fprintf(out, "| `%s` | %s | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %.1f%% | %.1f%% | %s | %s |\n",
				name, unit, a2, a1, a3, b2, b1, b3, gap*100, spread*100, boundText, verdict)
		}
		for _, m := range bf.EndToEnd {
			row(m.Name, m.Unit, m.Bound, func(r aaRun) float64 { return r.metrics[m.Name] })
		}
		for _, def := range []metricDef{{"host.pingpong_us", "us"}, {"raw.qps", "1/s"}, {"raw.p50_us", "us"},
			{"raw.p99_us", "us"}, {"raw.cpu_us_per_req", "us"}, {"raw.setup_s", "s"}} {
			row(def.name, def.unit, 0, func(r aaRun) float64 { return r.info[def.name] })
		}

		traced := make([]aaRun, aaTracedRuns)
		for r := range traced {
			if traced[r], err = runChild(exe, w, seed+int64(r), seconds, 1); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "\nPer-layer metrics of %d traced runs (rows that read 0 are layers not on this workload's path):\n\n", aaTracedRuns)
		fmt.Fprintf(out, "| metric | unit | median | min | max |\n|---|---|---|---|---|\n")
		for _, def := range perLayerMetrics {
			var v []float64
			for _, run := range traced {
				v = append(v, run.metrics[def.name])
			}
			v = sorted(v)
			if v[len(v)-1] == 0 && v[0] == 0 {
				continue
			}
			led.Workloads[w.name][def.name] = ledgerRow{Median: median(v), Low: v[0], High: v[len(v)-1], Unit: def.unit}
			fmt.Fprintf(out, "| `%s` | %s | %.5g | %.5g | %.5g |\n", def.name, def.unit, median(v), v[0], v[len(v)-1])
		}
	}
	if resultsPath != "" {
		raw, err := json.MarshalIndent(led, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(resultsPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !allOK {
		return fmt.Errorf("a metric's A/A gap or spread is over its bound")
	}
	return nil
}
