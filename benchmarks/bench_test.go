package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that a result carries exactly the declared names, each
// with the declared unit.
func checkMetrics(t *testing.T, got result, want []struct{ Name, Unit string }) {
	t.Helper()
	units := make(map[string]string)
	for _, m := range want {
		if _, dup := units[m.Name]; dup {
			t.Errorf("BENCHMARK.json declares %q twice", m.Name)
		}
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
		}
		units[m.Name] = m.Unit
	}
	for name, m := range got.Metrics {
		unit, ok := units[name]
		switch {
		case !ok:
			t.Errorf("emitted %q, which BENCHMARK.json does not declare", name)
		case m.Unit == "" || m.Unit != unit:
			t.Errorf("%q has unit %q, declared %q", name, m.Unit, unit)
		}
		delete(units, name)
	}
	for name := range units {
		t.Errorf("declared %q was not emitted", name)
	}
}

// TestReferenceLoopAllocatesNothing runs first, while the process holds no
// deployment whose goroutines could allocate during the count.
func TestReferenceLoopAllocatesNothing(t *testing.T) {
	ref, err := newPingPong()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ref.measure(); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("one reference reading allocates %v times", allocs)
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload once per pass on the
// small inputs with a single 200 ms segment.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for i, dw := range d.Workloads {
		w := &workloads[i]
		if dw.Name != w.name || dw.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, dw.Name, dw.Why, w.name, w.why)
		}
		t.Run(w.name, func(t *testing.T) {
			p := params{w: w, seed: 1, segments: 1, segDur: 200 * time.Millisecond, small: true}
			res, info, err := runEndToEnd(p)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("end-to-end pass: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res, d.EndToEnd)
			for _, m := range d.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %q is %v; it must never be 0", m.Name, res.Metrics[m.Name].Value)
				}
				if _, both := info[m.Name]; both {
					t.Errorf("%q is both a metric and an info figure", m.Name)
				}
			}
			p.traceOut = t.TempDir() + "/spans.jsonl"
			res, err = runTraced(p)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced pass: correct=%v failed=%d", res.Correct, res.Failed)
			}
			checkMetrics(t, res, d.PerLayer)
			if st, err := os.Stat(p.traceOut); err != nil || st.Size() == 0 {
				t.Errorf("-trace-out wrote nothing: %v", err)
			}
		})
	}
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		digest := func(seed int64) uint64 {
			d, err := w.build(seed, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			return d.streamDigest()
		}
		first, again, other := digest(7), digest(7), digest(8)
		if first != again {
			t.Errorf("%s: two builds with seed 7 issue different request streams", w.name)
		}
		if first == other {
			t.Errorf("%s: seeds 7 and 8 issue the same request stream", w.name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
