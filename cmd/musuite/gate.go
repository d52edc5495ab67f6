package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Metric aggregates one unit's values across -count repetitions.
type Metric struct {
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Count int     `json:"count"`
}

// Summary is the JSON document: benchmark name → unit → aggregate.
type Summary struct {
	Benchmarks map[string]map[string]Metric `json:"benchmarks"`
}

// benchLine matches one result line: name, iteration count, then
// whitespace-separated value/unit pairs.  The trailing -N GOMAXPROCS suffix
// is stripped from the name so summaries compare across machines.
var benchLine = regexp.MustCompile(`^Benchmark(\S+)\s+(\d+)\s+(.+)$`)

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func parseBenchOutput(r io.Reader) (Summary, error) {
	type acc struct {
		sum, min, max float64
		n             int
	}
	raw := make(map[string]map[string]*acc)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return Summary{}, fmt.Errorf("benchmark %s: odd value/unit field count in %q", name, m[3])
		}
		if raw[name] == nil {
			raw[name] = make(map[string]*acc)
		}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return Summary{}, fmt.Errorf("benchmark %s: bad value %q: %v", name, fields[i], err)
			}
			unit := fields[i+1]
			a := raw[name][unit]
			if a == nil {
				a = &acc{min: math.Inf(1), max: math.Inf(-1)}
				raw[name][unit] = a
			}
			a.sum += v
			a.n++
			a.min = math.Min(a.min, v)
			a.max = math.Max(a.max, v)
		}
	}
	if err := sc.Err(); err != nil {
		return Summary{}, err
	}
	if len(raw) == 0 {
		return Summary{}, fmt.Errorf("no benchmark result lines found")
	}
	out := Summary{Benchmarks: make(map[string]map[string]Metric, len(raw))}
	for name, units := range raw {
		out.Benchmarks[name] = make(map[string]Metric, len(units))
		for unit, a := range units {
			out.Benchmarks[name][unit] = Metric{
				Mean:  a.sum / float64(a.n),
				Min:   a.min,
				Max:   a.max,
				Count: a.n,
			}
		}
	}
	return out, nil
}

// lowerIsBetter reports whether a regression in this unit means the value
// went up.  Ratio-style custom metrics (batch-occupancy, median-ratio, …)
// have no universal direction and are recorded but never gated.
func lowerIsBetter(unit string) bool {
	return unit == "ns/op" || unit == "B/op" || unit == "allocs/op" ||
		unit == "shed-rate" || strings.HasSuffix(unit, "-ns")
}

// higherIsBetter marks throughput-style units (goodput-qps, …) where a
// regression means the value went down.
func higherIsBetter(unit string) bool {
	return strings.HasSuffix(unit, "-qps")
}

// compareSummaries prints a comparison table and returns the regressions.
func compareSummaries(baseline, current Summary) []string {
	var regressions []string
	names := make([]string, 0, len(baseline.Benchmarks))
	for name := range baseline.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-40s %-16s %14s %14s %8s\n", "benchmark", "metric", "baseline", "current", "delta")
	for _, name := range names {
		cur, ok := current.Benchmarks[name]
		if !ok {
			regressions = append(regressions,
				fmt.Sprintf("%s: present in baseline but missing from this run", name))
			continue
		}
		units := make([]string, 0, len(baseline.Benchmarks[name]))
		for unit := range baseline.Benchmarks[name] {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			base := baseline.Benchmarks[name][unit]
			got, ok := cur[unit]
			if !ok || base.Mean <= 0 {
				continue
			}
			worse := 0.0 // fractional move in the regressing direction
			switch {
			case lowerIsBetter(unit):
				worse = got.Mean/base.Mean - 1
			case higherIsBetter(unit):
				worse = 1 - got.Mean/base.Mean
			default:
				continue
			}
			delta := got.Mean/base.Mean - 1
			marker := ""
			if worse > gateThreshold {
				marker = "  << REGRESSION"
				regressions = append(regressions, fmt.Sprintf(
					"%s %s: %.0f -> %.0f (%+.1f%%, threshold %.1f%%)",
					name, unit, base.Mean, got.Mean, delta*100, gateThreshold*100))
			}
			fmt.Printf("%-40s %-16s %14.1f %14.1f %+7.1f%%%s\n",
				name, unit, base.Mean, got.Mean, delta*100, marker)
		}
	}
	return regressions
}

// gateThreshold is the allowed mean regression: a lower-is-better metric may
// rise, and a higher-is-better one fall, by this fraction of the baseline.
const gateThreshold = 0.15

// runGate turns `go test -bench` output into a benchstat-style JSON summary
// and gates CI on performance regressions.  Parse a benchmark run (typically
// -count=5 so each metric is a mean over repetitions) and write the summary:
//
//	go test -run=NONE -bench='TailFanout|LeafBatching' -count=5 . > bench.txt
//	musuite gate -summary BENCH_ci.json bench.txt
//
// Add -baseline to compare against a committed summary; the command fails
// when any lower-is-better metric (ns/op, *-ns, B/op, allocs/op, shed-rate)
// rises by more than 15 %, when any higher-is-better metric (*-qps) falls by
// more than that, or when a baseline benchmark is missing from the run:
//
//	musuite gate -summary BENCH_ci.json -baseline BENCH_baseline.json bench.txt
func runGate(fs *flag.FlagSet, args []string) error {
	var (
		summary  = fs.String("summary", "", "write the parsed JSON summary here")
		baseline = fs.String("baseline", "", "baseline JSON summary to gate against")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: musuite gate [flags] bench.txt")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	current, err := parseBenchOutput(f)
	f.Close()
	if err != nil {
		return err
	}

	if *summary != "" {
		doc, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*summary, append(doc, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *summary, len(current.Benchmarks))
	}

	if *baseline == "" {
		return nil
	}
	doc, err := os.ReadFile(*baseline)
	if err != nil {
		return err
	}
	var base Summary
	if err := json.Unmarshal(doc, &base); err != nil {
		return fmt.Errorf("%s: %v", *baseline, err)
	}
	if regressions := compareSummaries(base, current); len(regressions) > 0 {
		return fmt.Errorf("performance gate FAILED:\n  %s", strings.Join(regressions, "\n  "))
	}
	fmt.Println("\nperformance gate passed")
	return nil
}
