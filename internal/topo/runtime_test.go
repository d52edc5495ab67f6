package topo

import (
	"sync"
	"testing"
	"time"

	"musuite/internal/rpc"
	"musuite/internal/trace"
)

// fourDeepSpec is a 4-level DAG: fe -> agg -> mid -> leaf, exercising
// mid-tiers calling mid-tiers calling leaves with per-edge policy.
const fourDeepSpec = `
topology: four-deep
entry: fe
services:
  fe:
    kind: synthetic
    edges:
      down: {to: agg, timeout: 400ms}
    ops:
      q:
        calls:
          - {edge: down, method: merge}
  agg:
    kind: synthetic
    shards: 2
    edges:
      mid: {to: mid, timeout: 300ms}
    ops:
      merge:
        calls:
          - {edge: mid, method: fetch, mode: all}
  mid:
    kind: synthetic
    edges:
      leaf: {to: leaf, timeout: 200ms}
    ops:
      fetch:
        calls:
          - {edge: leaf, method: do}
  leaf:
    kind: compute
    shards: 2
    work: 50us
`

func buildSpec(t *testing.T, src string, opts BuildOptions) *Deployment {
	t.Helper()
	spec, err := ParseSpec([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Build(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func dialEntry(t *testing.T, d *Deployment) *rpc.Client {
	t.Helper()
	c, err := rpc.Dial(d.EntryAddrs()[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBuildFourDeepRoundTrip(t *testing.T) {
	d := buildSpec(t, fourDeepSpec, BuildOptions{})
	if got := len(d.services["leaf"].leaves); got != 2 {
		t.Fatalf("leaf instances=%d want 2", got)
	}
	if got := len(d.services["agg"].mids); got != 2 {
		t.Fatalf("agg instances=%d want 2", got)
	}
	c := dialEntry(t, d)
	for _, key := range []uint64{1, 99, 1 << 40} {
		reply, err := c.Call("q", encodeSynthetic(key, 0))
		if err != nil {
			t.Fatalf("key %d: %v", key, err)
		}
		got, err := decodeSynthetic(reply)
		if err != nil || got != key {
			t.Fatalf("reply key=%d err=%v, want %d", got, err, key)
		}
	}
	// Every tier actually served: the request really traversed 4 levels.
	for _, svc := range []string{"fe", "agg", "mid"} {
		var served uint64
		for _, m := range d.services[svc].mids {
			s := m.Stats()
			if s.Role != "midtier" {
				t.Fatalf("%s role=%q", svc, s.Role)
			}
			served += s.Served
		}
		if served < 3 {
			t.Fatalf("%s served=%d want ≥3", svc, served)
		}
	}
	var leafServed uint64
	for _, l := range d.services["leaf"].leaves {
		leafServed += l.Stats().Served
	}
	if leafServed < 3 {
		t.Fatalf("leaf served=%d", leafServed)
	}
}

const cacheSpec = `
topology: cache-demo
entry: fe
services:
  fe:
    kind: synthetic
    edges:
      c: {to: cache, timeout: 100ms}
      db: {to: db, timeout: 100ms}
    ops:
      get:
        calls:
          - {edge: c, method: get, miss-edge: db, fill: true}
  cache:
    kind: cache
  db:
    kind: store
    reply-bytes: 32
`

func served(s *Service) uint64 {
	var total uint64
	for _, l := range s.leaves {
		total += l.Stats().Served
	}
	return total
}

func TestCacheMissFillThenHit(t *testing.T) {
	d := buildSpec(t, cacheSpec, BuildOptions{})
	c := dialEntry(t, d)
	const key = 0xfeedface

	if _, err := c.Call("get", encodeSynthetic(key, 0)); err != nil {
		t.Fatal(err)
	}
	if got := served(d.services["db"]); got != 1 {
		t.Fatalf("db served=%d after miss, want 1 (probe missed, store fetched)", got)
	}
	// probe (miss) + fill set
	if got := served(d.services["cache"]); got != 2 {
		t.Fatalf("cache served=%d after miss+fill, want 2", got)
	}

	if _, err := c.Call("get", encodeSynthetic(key, 0)); err != nil {
		t.Fatal(err)
	}
	if got := served(d.services["db"]); got != 1 {
		t.Fatalf("db served=%d after warm hit, want still 1", got)
	}
	if got := served(d.services["cache"]); got != 3 {
		t.Fatalf("cache served=%d after warm hit, want 3", got)
	}
}

const scenarioSpec = `
topology: scenario-demo
entry: fe
services:
  fe:
    kind: synthetic
    edges:
      down: {to: leaf, timeout: 500ms}
    ops:
      q:
        calls:
          - {edge: down, method: do}
  leaf:
    kind: compute
`

func callLatency(t *testing.T, c *rpc.Client, key uint64) (time.Duration, error) {
	t.Helper()
	start := time.Now()
	_, err := c.Call("q", encodeSynthetic(key, 0))
	return time.Since(start), err
}

func TestScenarioDegradeAndRevert(t *testing.T) {
	d := buildSpec(t, scenarioSpec, BuildOptions{})
	c := dialEntry(t, d)

	if lat, err := callLatency(t, c, 1); err != nil || lat > 100*time.Millisecond {
		t.Fatalf("baseline: lat=%v err=%v", lat, err)
	}

	sc := d.StartScenario([]EventSpec{
		{At: 0, For: 150 * time.Millisecond, Target: "fe", Slow: 30 * time.Millisecond},
	})
	time.Sleep(20 * time.Millisecond) // let the apply timer fire
	if lat, err := callLatency(t, c, 2); err != nil || lat < 30*time.Millisecond {
		t.Fatalf("degraded window: lat=%v err=%v, want ≥30ms", lat, err)
	}
	sc.wg.Wait()
	if lat, err := callLatency(t, c, 3); err != nil || lat > 25*time.Millisecond {
		t.Fatalf("after revert: lat=%v err=%v, want fast again", lat, err)
	}
	log := sc.Log()
	if len(log) != 2 {
		t.Fatalf("event log=%v, want apply+revert", log)
	}
}

func TestScenarioEdgeDelay(t *testing.T) {
	d := buildSpec(t, scenarioSpec, BuildOptions{})
	c := dialEntry(t, d)

	sc := d.StartScenario([]EventSpec{
		{At: 0, Edge: "fe/down", Delay: 25 * time.Millisecond},
	})
	defer sc.Stop()
	time.Sleep(20 * time.Millisecond)
	if lat, err := callLatency(t, c, 7); err != nil || lat < 25*time.Millisecond {
		t.Fatalf("edge delay: lat=%v err=%v, want ≥25ms", lat, err)
	}
}

func TestScenarioErrorInjection(t *testing.T) {
	d := buildSpec(t, scenarioSpec, BuildOptions{})
	c := dialEntry(t, d)

	sc := d.StartScenario([]EventSpec{
		{At: 0, Target: "fe", ErrorRate: 1.0},
	})
	defer sc.Stop()
	time.Sleep(20 * time.Millisecond)
	failures := 0
	for i := uint64(0); i < 8; i++ {
		if _, err := c.Call("q", encodeSynthetic(i, 0)); err != nil {
			failures++
		}
	}
	if failures != 8 {
		t.Fatalf("error-rate 1.0: %d/8 calls failed, want 8", failures)
	}
}

const overloadSpec = `
topology: overload-demo
entry: fe
services:
  fe:
    kind: synthetic
    edges:
      down: {to: neck, timeout: 900ms}
    ops:
      q:
        calls:
          - {edge: down, method: slow}
  neck:
    kind: synthetic
    max-inflight: 1
    work: 30ms
    edges:
      leaf: {to: leaf, timeout: 800ms}
    ops:
      slow:
        calls:
          - {edge: leaf, method: do}
  leaf:
    kind: compute
`

// TestTypedOverloadPropagation drives a bottleneck (max-inflight 1, 30ms
// service time) through an upstream synthetic tier: shed requests must
// surface at the front end as *typed* overload, never untyped errors.
func TestTypedOverloadPropagation(t *testing.T) {
	d := buildSpec(t, overloadSpec, BuildOptions{})
	c := dialEntry(t, d)

	const n = 16
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			_, err := c.Call("q", encodeSynthetic(key, 0))
			errs <- err
		}(uint64(i))
	}
	wg.Wait()
	close(errs)
	var failed, typed int
	for err := range errs {
		if err == nil {
			continue
		}
		failed++
		if rpc.IsOverload(err) {
			typed++
		} else {
			t.Errorf("untyped error: %v", err)
		}
	}
	if failed == 0 {
		t.Fatal("no requests shed; bottleneck did not overload")
	}
	if typed != failed {
		t.Fatalf("%d/%d failures typed overload", typed, failed)
	}
}

func treeDepth(n *trace.Node) int {
	best := 0
	for _, c := range n.Children {
		if d := treeDepth(c); d > best {
			best = d
		}
	}
	return best + 1
}

// TestFourDeepTraceTree sends traced requests through the 4-level DAG and
// asserts each trace reassembles into one connected tree whose critical
// path partitions the end-to-end latency exactly — span parenting works
// across arbitrarily deep spec-driven topologies, not just the two-level
// handwritten services.
func TestFourDeepTraceTree(t *testing.T) {
	rec := trace.NewRecorder("topo-test", 4096)
	d := buildSpec(t, fourDeepSpec, BuildOptions{Spans: rec, SpanSample: 1})
	lc, err := d.NewLoadClient()
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	const requests = 4
	done := make(chan *rpc.Call, requests)
	for i := 0; i < requests; i++ {
		lc.Issue(done)
	}
	for i := 0; i < requests; i++ {
		call := <-done
		if call.Err != nil {
			t.Fatalf("request failed: %v", call.Err)
		}
	}

	// Leaf server spans are recorded after the reply flushes, so they can
	// trail the client's completion: poll until the span set stabilizes.
	var spans []trace.Span
	deadline := time.Now().Add(2 * time.Second)
	for {
		spans = rec.Snapshot()
		time.Sleep(20 * time.Millisecond)
		next := rec.Snapshot()
		if len(next) == len(spans) || time.Now().After(deadline) {
			spans = next
			break
		}
	}

	trees := trace.BuildTrees(spans)
	if len(trees) != requests {
		t.Fatalf("trees=%d want %d", len(trees), requests)
	}
	for i, tr := range trees {
		if !tr.Connected() {
			t.Fatalf("tree %d not connected: %d roots over %d spans", i, len(tr.Roots), len(tr.Spans))
		}
		depth := treeDepth(tr.Root())
		if depth < 4 {
			t.Fatalf("tree %d depth=%d, want ≥4 (fe→agg→mid→leaf)", i, depth)
		}
		got, want := trace.PathTotal(tr.CriticalPath()), tr.EndToEnd()
		if got != want {
			t.Fatalf("tree %d critical path %v != end-to-end %v", i, got, want)
		}
	}
}

// TestRunSpec exercises the one-call Run path: build, offered load,
// scenario arming, teardown.
func TestRunSpec(t *testing.T) {
	spec, err := ParseSpec([]byte(fourDeepSpec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, RunOptions{
		QPS:          300,
		Duration:     400 * time.Millisecond,
		DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	offered, completed, errors, shed, dropped := res.Totals()
	if offered == 0 || completed == 0 {
		t.Fatalf("offered=%d completed=%d", offered, completed)
	}
	if errors != 0 || shed != 0 || dropped != 0 {
		t.Fatalf("errors=%d shed=%d dropped=%d, want clean run", errors, shed, dropped)
	}
}

// TestExampleSpecsBuildAndServe builds both exemplar topologies and pushes
// a few requests through each — the in-test version of the CI topo-smoke.
func TestExampleSpecsBuildAndServe(t *testing.T) {
	for _, f := range []string{
		"../../examples/social-network.yaml",
		"../../examples/hotel-reservation.yaml",
	} {
		t.Run(f, func(t *testing.T) {
			spec, err := LoadSpecFile(f)
			if err != nil {
				t.Fatal(err)
			}
			d, err := Build(spec, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			lc, err := d.NewLoadClient()
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			const requests = 8
			done := make(chan *rpc.Call, requests)
			for i := 0; i < requests; i++ {
				lc.Issue(done)
			}
			for i := 0; i < requests; i++ {
				call := <-done
				if call.Err != nil {
					t.Errorf("request %d: %v", i, call.Err)
				}
			}
		})
	}
}

// TestStatsShape confirms spec-driven tiers report the same TierStats
// shape handwritten services do (role, workers, served counters populated).
func TestStatsShape(t *testing.T) {
	d := buildSpec(t, fourDeepSpec, BuildOptions{})
	c := dialEntry(t, d)
	if _, err := c.Call("q", encodeSynthetic(42, 0)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fe", "agg", "mid"} {
		for i, m := range d.services[name].mids {
			st := m.Stats()
			if st.Role != "midtier" {
				t.Errorf("%s[%d].Role=%q", name, i, st.Role)
			}
			if st.Workers <= 0 {
				t.Errorf("%s[%d].Workers=%d", name, i, st.Workers)
			}
		}
	}
}
