package topo

import (
	"strings"
	"testing"
	"time"
)

const validSpec = `
topology: demo
entry: fe
seed: 7

services:
  fe:
    kind: synthetic
    shards: 2
    work: 20us
    edges:
      mid: {to: mid, timeout: 50ms, retries: 1}
    ops:
      q:
        calls:
          - {edge: mid, method: fetch}
  mid:
    kind: synthetic
    edges:
      cache: {to: cache, timeout: 5ms}
      db: {to: db, timeout: 10ms}
    ops:
      fetch:
        work: 10us
        calls:
          - {edge: cache, method: get, miss-edge: db, fill: true}
  cache:
    kind: cache
    hit-ratio: 0.5
  db:
    kind: store
    work: 100us

load:
  pattern: diurnal
  qps: 100
  duration: 2s
  mix: {q: 1}

scenario:
  - {at: 500ms, for: 1s, target: mid, slow: 1ms}
  - {at: 1s, edge: fe/mid, delay: 2ms}
`

func TestParseSpecHappyPath(t *testing.T) {
	s, err := ParseSpec([]byte(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "demo" || s.Entry != "fe" || s.Seed != 7 {
		t.Fatalf("header: %+v", s)
	}
	if len(s.Services) != 4 {
		t.Fatalf("services=%d want 4", len(s.Services))
	}
	fe := s.Services["fe"]
	if fe.Shards != 2 || fe.Work != 20*time.Microsecond {
		t.Fatalf("fe: %+v", fe)
	}
	e := fe.Edges["mid"]
	if e.To != "mid" || e.Timeout != 50*time.Millisecond || e.Tail.LeafRetries != 1 {
		t.Fatalf("fe.mid edge: %+v", e)
	}
	call := s.Services["mid"].Ops["fetch"].Calls[0]
	if call.MissEdge != "db" || !call.Fill || call.Method != "get" {
		t.Fatalf("miss chain call: %+v", call)
	}
	if s.Load.Pattern != PatternDiurnal || s.Load.QPS != 100 || s.Load.Mix["q"] != 1 {
		t.Fatalf("load: %+v", s.Load)
	}
	if len(s.Scenario) != 2 || s.Scenario[1].Edge != "fe/mid" {
		t.Fatalf("scenario: %+v", s.Scenario)
	}
}

// mutate applies a textual substitution to the valid spec, producing a
// broken variant for each validation rule.
func mutate(old, new string) []byte {
	out := strings.Replace(validSpec, old, new, 1)
	if out == validSpec {
		panic("mutation did not apply: " + old)
	}
	return []byte(out)
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		src  []byte
		want string
	}{
		{"unknown-kind", mutate("kind: store", "kind: database"), `unknown kind "database"`},
		{"unknown-entry", mutate("entry: fe", "entry: nope"), `entry: unknown service "nope"`},
		{"leaf-entry", mutate("entry: fe", "entry: db"), "cannot be the entry"},
		{"unknown-edge-target", mutate("to: db, timeout: 10ms", "to: ghost, timeout: 10ms"), `unknown service "ghost"`},
		{"unknown-call-edge", mutate("edge: mid, method: fetch", "edge: ghost, method: fetch"), `unknown edge "ghost"`},
		{"unknown-op", mutate("method: fetch", "method: nope"), `has no op "nope"`},
		{"bad-leaf-method", mutate("edge: cache, method: get", "edge: cache, method: scan"), `no method "scan"`},
		{"fill-without-miss", mutate("miss-edge: db, fill: true", "fill: true"), "fill requires miss-edge"},
		{"unknown-field", mutate("seed: 7", "seed: 7\nbogus: 1"), `unknown field "bogus"`},
		{"unknown-service-field", mutate("kind: store", "kind: store\n    wat: 1"), `unknown field "wat"`},
		{"bad-param", mutate("kind: cache", "kind: hdsearch\n    params: {corpse: 1}"), `no param "corpse"`},
		{"synthetic-param", mutate("kind: store", "kind: store\n    params: {x: 1}"), "accepts no params"},
		{"mix-unknown-op", mutate("mix: {q: 1}", "mix: {zz: 1}"), `has no op "zz"`},
		{"scenario-unknown-target", mutate("target: mid, slow: 1ms", "target: zz, slow: 1ms"), `unknown service "zz"`},
		{"scenario-bad-edge", mutate("edge: fe/mid", "edge: fe.mid"), `must be "service/edge"`},
		{"scenario-no-effect", mutate("target: mid, slow: 1ms", "target: mid"), "needs slow or error-rate"},
		{"scenario-no-delay", mutate("edge: fe/mid, delay: 2ms", "edge: fe/mid"), "edge event needs delay"},
		{"bad-hit-ratio", mutate("hit-ratio: 0.5", "hit-ratio: 1.5"), "hit-ratio must be in [0,1]"},
		{"hedge-on-store", mutate("to: db, timeout: 10ms", "to: db, timeout: 10ms, hedge-pct: 1.0"), "hedge-pct must be in [0,1)"},
		{"bad-duration", mutate("work: 20us", "work: fast"), `invalid duration "fast"`},
		{"negative-shards", mutate("shards: 2", "shards: -1"), "must be ≥ 1"},
		{"bad-pattern", mutate("pattern: diurnal", "pattern: sawtooth"), `unknown pattern "sawtooth"`},
		{"no-ops", mutate("ops:\n      q:\n        calls:\n          - {edge: mid, method: fetch}", "workers: 1"), "declares no ops"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(tc.src)
			if err == nil {
				t.Fatal("spec validated; want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateCycle(t *testing.T) {
	src := `
entry: a
services:
  a:
    kind: synthetic
    edges:
      next: {to: b}
    ops:
      q:
        calls: [{edge: next, method: q}]
  b:
    kind: synthetic
    edges:
      back: {to: a}
    ops:
      q:
        calls: [{edge: back, method: q}]
`
	_, err := ParseSpec([]byte(src))
	if err == nil || !strings.Contains(err.Error(), "service cycle") {
		t.Fatalf("err=%v, want service cycle", err)
	}
}

func TestValidateTimeoutBudget(t *testing.T) {
	// mid's fetch costs ~10ms (db edge timeout); a 1ms fe->mid timeout
	// can never be met.
	src := mutate("to: mid, timeout: 50ms, retries: 1", "to: mid, timeout: 1ms, retries: 1")
	_, err := ParseSpec(src)
	if err == nil || !strings.Contains(err.Error(), "worst-case budget") {
		t.Fatalf("err=%v, want budget violation", err)
	}
}

func TestExampleSpecsParse(t *testing.T) {
	files := []string{
		"../../examples/social-network.yaml",
		"../../examples/hotel-reservation.yaml",
		"../../examples/hdsearch.yaml",
		"../../examples/router.yaml",
		"../../examples/setalgebra.yaml",
		"../../examples/recommend.yaml",
	}
	for _, f := range files {
		s, err := LoadSpecFile(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if s.Name == "" || s.Entry == "" {
			t.Errorf("%s: missing name/entry: %+v", f, s)
		}
	}
}
