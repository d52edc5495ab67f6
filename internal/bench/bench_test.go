package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"musuite/internal/core"
	"musuite/internal/rpc"
	"musuite/internal/services/hdsearch"
	"musuite/internal/telemetry"
)

// tinyScale shrinks everything so integration tests run in seconds.
func tinyScale() Scale {
	s := SmallScale()
	s.HDCorpus, s.HDQueries = 600, 128
	s.RouterKeys = 300
	s.Docs, s.Vocab = 400, 1200
	s.Users, s.Items, s.Ratings = 40, 50, 1200
	s.Loads = []float64{40, 150}
	s.Window = 400 * time.Millisecond
	s.SaturationWindow = 300 * time.Millisecond
	s.MaxConcurrency = 8
	return s
}

func TestStartServiceAllFour(t *testing.T) {
	s := tinyScale()
	for _, name := range ServiceNames {
		inst, err := StartService(name, s, FrameworkMode{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A few smoke queries through the full stack.
		done := make(chan *rpc.Call, 4)
		for i := 0; i < 4; i++ {
			inst.Issue(done)
		}
		for i := 0; i < 4; i++ {
			select {
			case call := <-done:
				if call.Err != nil {
					t.Errorf("%s: query failed: %v", name, call.Err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: query hung", name)
			}
		}
		inst.Close()
	}
}

func TestStartServiceUnknown(t *testing.T) {
	if _, err := StartService("NoSuch", tinyScale(), FrameworkMode{}); err == nil {
		t.Fatal("unknown service accepted")
	}
}

func TestFig9ProducesPlausibleRows(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScale()
	rows, err := Fig9(s, []string{"Router"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Service != "Router" {
		t.Fatalf("rows=%+v", rows)
	}
	if rows[0].Throughput <= 0 {
		t.Fatal("non-positive saturation throughput")
	}
	if len(rows[0].Steps) == 0 {
		t.Fatal("no probe steps recorded")
	}
	if rows[0].Batched <= 0 || rows[0].Occupancy < 1 {
		t.Fatalf("batched bar: %.0f QPS at %.2f leaf calls a carrier", rows[0].Batched, rows[0].Occupancy)
	}
	out := RenderFig9(rows)
	if !strings.Contains(out, "Router") || !strings.Contains(out, "MaxBatch 16") {
		t.Fatalf("render: %s", out)
	}
}

func TestCharacterizeProducesAllFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScale()
	// The figures' classes are the paper's dispatched pipeline's: a worker's
	// wake-up (Active-Exe), the hand-off futexes.
	points, err := Characterize(s, []string{"SetAlgebra"}, FrameworkMode{MidTier: core.Options{Dispatch: core.Dispatched}})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(s.Loads) {
		t.Fatalf("points=%d want %d", len(points), len(s.Loads))
	}
	for _, p := range points {
		if p.Open.Completed == 0 {
			t.Fatalf("load %g: no completions", p.Load)
		}
		if p.Violin.Count == 0 {
			t.Fatalf("load %g: empty violin", p.Load)
		}
		// Figs 11-14: futex must be among the most-invoked syscalls —
		// the paper's central syscall observation.
		futex := p.PerQuery(telemetry.SysFutex)
		if futex <= 0 {
			t.Fatalf("load %g: no futex proxies", p.Load)
		}
		// Figs 15-18: Active-Exe and Net classes populated.
		if p.Overheads[telemetry.OverheadActiveExe].Count == 0 {
			t.Fatalf("load %g: no Active-Exe observations", p.Load)
		}
		if p.Overheads[telemetry.OverheadNet].Count == 0 {
			t.Fatalf("load %g: no Net observations", p.Load)
		}
		// Fig 19: CS and HITM counters moved.
		if p.Counters[telemetry.CtxSwitch] == 0 {
			t.Fatalf("load %g: no context-switch proxies", p.Load)
		}
	}
	// Fig 19 shape: absolute CS counts rise with load.
	if cs0, cs1 := points[0].Counters[telemetry.CtxSwitch], points[1].Counters[telemetry.CtxSwitch]; cs1 <= cs0 {
		t.Logf("warning: CS did not rise with load: %d → %d", cs0, cs1)
	}
	for _, render := range []string{
		RenderFig10(points),
		RenderFig11to14(points),
		RenderFig15to18(points),
		RenderFig19(points),
	} {
		if !strings.Contains(render, "SetAlgebra") {
			t.Fatalf("render missing service: %s", render)
		}
	}
}

func TestAblationRunsAllVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScale()
	s.Window = 300 * time.Millisecond
	rows, err := Ablation(s, []string{"Router"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AblationModes) {
		t.Fatalf("rows=%d want %d", len(rows), len(AblationModes))
	}
	for _, r := range rows {
		if r.Median <= 0 {
			t.Fatalf("variant %v+%v: zero median", r.Dispatch, r.Wait)
		}
	}
	out := RenderAblation(rows)
	if !strings.Contains(out, "polling") || !strings.Contains(out, "inline") {
		t.Fatalf("render: %s", out)
	}
}

func TestHostAndTableII(t *testing.T) {
	h := Host()
	if h.CPUs < 1 || h.GoVersion == "" {
		t.Fatalf("host=%+v", h)
	}
	if !strings.Contains(RenderTableII(h), "Logical CPUs") {
		t.Fatal("table II render incomplete")
	}
}

// TestScales: SmallScale is a complete configuration and PaperScale is
// publication-sized — larger corpora and the paper's five trials.
func TestScales(t *testing.T) {
	small, paper := SmallScale(), PaperScale()
	if small.HDCorpus <= 0 || small.Shards <= 0 || len(small.Loads) == 0 {
		t.Fatalf("small scale incomplete: %+v", small)
	}
	if paper.HDCorpus <= small.HDCorpus || paper.Trials < 5 {
		t.Fatalf("paper scale not publication-sized: %+v", paper)
	}
}

func TestThreadPoolSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScale()
	s.Window = 300 * time.Millisecond
	s.SaturationWindow = 200 * time.Millisecond
	s.MaxConcurrency = 4
	rows, err := ThreadPoolSweep(s, "Router", []int{1, 4}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.Median <= 0 || r.SaturationQPS <= 0 {
			t.Fatalf("empty row %+v", r)
		}
	}
	if !strings.Contains(RenderThreadPool(rows), "workers") {
		t.Fatal("render incomplete")
	}
}

func TestWriteTSV(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScale()
	s.Window = 300 * time.Millisecond
	points, err := Characterize(s, []string{"Router"}, FrameworkMode{})
	if err != nil {
		t.Fatal(err)
	}
	fig9 := []Fig9Row{{Service: "Router", Throughput: 1234, Concurrency: 2}}
	dir := t.TempDir()
	if err := WriteTSV(dir, fig9, points); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig9.tsv", "fig10.tsv", "fig11to14.tsv", "fig15to18.tsv", "fig19.tsv"} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s has no data rows", name)
		}
		cols := len(strings.Split(lines[0], "\t"))
		for i, line := range lines {
			if got := len(strings.Split(line, "\t")); got != cols {
				t.Fatalf("%s line %d has %d columns, header has %d", name, i, got, cols)
			}
		}
	}
	// Empty inputs skip files without error.
	dir2 := t.TempDir()
	if err := WriteTSV(dir2, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir2, "fig9.tsv")); !os.IsNotExist(err) {
		t.Fatal("empty fig9 still wrote a file")
	}
}

func TestFlashCrowdExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScale()
	s.Window = 300 * time.Millisecond
	results, err := FlashCrowdExperiment(s, "Router", 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("phases=%d", len(results))
	}
	names := []string{"baseline", "spike", "recovery"}
	for i, r := range results {
		if r.Phase.Name != names[i] {
			t.Fatalf("phase %d named %q", i, r.Phase.Name)
		}
		if r.Completed == 0 {
			t.Fatalf("phase %q completed nothing", r.Phase.Name)
		}
	}
	if !strings.Contains(RenderFlashCrowd("Router", results), "spike") {
		t.Fatal("render incomplete")
	}
}

func TestIndexComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScale()
	s.Window = 300 * time.Millisecond
	s.RecallSample = 60
	rows, err := IndexComparison(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[hdsearch.IndexKind]bool)
	for _, r := range rows {
		seen[r.Kind] = true
		if r.P50 <= 0 {
			t.Fatalf("%s has no latency", r.Kind)
		}
	}
	for _, kind := range hdsearch.IndexKinds {
		if !seen[kind] {
			t.Fatalf("no rows for %s", kind)
		}
	}
	// Every kind must be able to reach high recall@10 at some sweep point;
	// narrow-probe rows are allowed to trade recall away.
	if v := RecallFloorViolations(rows, 0.8); len(v) > 0 {
		t.Fatalf("recall floor violations: %v", v)
	}
	render := RenderIndexComparison(rows)
	if !strings.Contains(render, "kdtree") || !strings.Contains(render, "ivfpq") {
		t.Fatal("render incomplete")
	}
}
