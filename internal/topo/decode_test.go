package topo

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"testing"
)

// TestSpecDecodeGolden pins what every example spec decodes to: the SHA-256
// of json.Marshal(spec), recorded from the hand-written per-type decoders
// the tag-driven decoder replaced (less core.TailPolicy's HedgeMinDelay
// field, which went with them).  A tag that names the wrong key, a lost
// default or a map that decodes nil instead of empty changes a hash.
func TestSpecDecodeGolden(t *testing.T) {
	want := map[string]string{
		"cascade.yaml":           "17d893639a79c5fc1f6d1fcffa74cc93ea71a3b6bb6cc98de7b93d9d17e74413",
		"hdsearch.yaml":          "ba2bd7615d1a6cd9d39b8c5546a6dacf7f2d8e56579a4f4a6408cd09b82d2671",
		"hotel-reservation.yaml": "0aa291c2bb9b422f8ae83985ecc2a22783c9949996b2f5737f7f8bd1f87aa591",
		"recommend.yaml":         "6eeb421324e2d368cdbf34a8ce88d175ba32e4cc9515d18fbf372152576f6318",
		"router.yaml":            "d09325eea561df0e57fb0338bfa7433e063b8446833988ce10830aeeee4d16da",
		"setalgebra.yaml":        "bc50ddcd7b6933b5c2006705ed84323e1cb452b6eb9ed7391fbe807482c31d32",
		"social-network.yaml":    "69db957e8a42da49721a722f11d1e4d520f38a4605164a00fbc55a97bc6ec0a9",
	}
	files, err := filepath.Glob("../../examples/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("%d example specs, %d recorded hashes: record the new one", len(files), len(want))
	}
	for _, f := range files {
		s, err := LoadSpecFile(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want[filepath.Base(f)] {
			t.Errorf("%s: decodes to sha256 %s, want %s\n%s", f, got, want[filepath.Base(f)], b)
		}
	}
}

// TestSpecDecodeErrorsGolden pins the decoder's error texts: one fault per
// input, for every error class — not a mapping, a scalar or a sequence; an
// invalid integer, number, duration or boolean; a negative duration; an
// unknown or a missing field — at every level of a spec that has them.
func TestSpecDecodeErrorsGolden(t *testing.T) {
	cases := []struct {
		name string
		src  []byte
		want string
	}{
		// the root
		{"root-not-mapping", []byte("- a\n- b"), `topo: spec: expected a mapping, got sequence`},
		{"root-not-scalar", mutate("topology: demo", "topology: [demo]"), `topo: spec.topology: expected a scalar, got sequence`},
		{"root-bad-integer", mutate("seed: 7", "seed: seven"), `topo: spec.seed: invalid integer "seven"`},
		{"root-unknown", mutate("seed: 7", "seed: 7\nbogus: 1"), `topo: spec: unknown field "bogus"`},
		{"root-missing", []byte("entry: fe\n"), `topo: spec: missing required field "services"`},
		{"services-not-mapping", []byte("entry: fe\nservices: [fe]\n"), `topo: services: expected a mapping, got sequence`},

		// a service
		{"service-not-mapping", mutate("  db:\n    kind: store\n    work: 100us", "  db: [store]"), `topo: services.db: expected a mapping, got sequence`},
		{"service-not-scalar", mutate("kind: store", "kind: {store: 1}"), `topo: services.db.kind: expected a scalar, got mapping`},
		{"service-bad-integer", mutate("shards: 2", "shards: two"), `topo: services.fe.shards: invalid integer "two"`},
		{"service-bad-number", mutate("hit-ratio: 0.5", "hit-ratio: half"), `topo: services.cache.hit-ratio: invalid number "half"`},
		{"service-bad-duration", mutate("work: 100us", "work: slow"), `topo: services.db.work: invalid duration "slow"`},
		{"service-negative-duration", mutate("work: 100us", "work: -100us"), `topo: services.db.work: negative duration "-100us"`},
		{"service-unknown", mutate("kind: store", "kind: store\n    wat: 1"), `topo: services.db: unknown field "wat"`},
		{"service-missing", mutate("kind: store\n", ""), `topo: services.db: missing required field "kind"`},
		{"edges-not-mapping", mutate("    edges:\n      cache: {to: cache, timeout: 5ms}\n      db: {to: db, timeout: 10ms}", "    edges: [cache, db]"), `topo: services.mid.edges: expected a mapping, got sequence`},
		{"params-not-scalar", mutate("kind: cache", "kind: hdsearch\n    params: {corpus: [1]}"), `topo: services.cache.params.corpus: expected a scalar, got sequence`},

		// an edge
		{"edge-not-mapping", mutate("db: {to: db, timeout: 10ms}", "db: [db]"), `topo: services.mid.edges.db: expected a mapping, got sequence`},
		{"edge-not-scalar", mutate("to: db, timeout: 10ms", "to: [db], timeout: 10ms"), `topo: services.mid.edges.db.to: expected a scalar, got sequence`},
		{"edge-bad-integer", mutate("retries: 1", "retries: once"), `topo: services.fe.edges.mid.retries: invalid integer "once"`},
		{"edge-bad-number", mutate("retries: 1", "retries: 1, hedge-pct: high"), `topo: services.fe.edges.mid.hedge-pct: invalid number "high"`},
		{"edge-bad-duration", mutate("timeout: 50ms", "timeout: 50"), `topo: services.fe.edges.mid.timeout: invalid duration "50"`},
		{"edge-negative-duration", mutate("retries: 1", "retries: 1, batch-delay: -1ms"), `topo: services.fe.edges.mid.batch-delay: negative duration "-1ms"`},
		{"edge-unknown", mutate("retries: 1", "retries: 1, hedge-min-delay: 1ms"), `topo: services.fe.edges.mid: unknown field "hedge-min-delay"`},
		{"edge-missing", mutate("{to: db, timeout: 10ms}", "{timeout: 10ms}"), `topo: services.mid.edges.db: missing required field "to"`},

		// an op and a call
		{"op-not-mapping", mutate("      fetch:\n        work: 10us\n        calls:\n          - {edge: cache, method: get, miss-edge: db, fill: true}", "      fetch: [get]"), `topo: services.mid.ops.fetch: expected a mapping, got sequence`},
		{"calls-not-sequence", mutate("calls:\n          - {edge: mid, method: fetch}", "calls: {edge: mid}"), `topo: services.fe.ops.q.calls: expected a sequence, got mapping`},
		{"op-unknown", mutate("work: 10us", "work: 10us\n        retries: 1"), `topo: services.mid.ops.fetch: unknown field "retries"`},
		{"call-not-mapping", mutate("- {edge: mid, method: fetch}", "- mid"), `topo: services.fe.ops.q.calls[0]: expected a mapping, got scalar`},
		{"call-not-scalar", mutate("edge: mid, method: fetch", "edge: mid, method: [fetch]"), `topo: services.fe.ops.q.calls[0].method: expected a scalar, got sequence`},
		{"call-bad-integer", mutate("edge: mid, method: fetch", "edge: mid, method: fetch, stage: first"), `topo: services.fe.ops.q.calls[0].stage: invalid integer "first"`},
		{"call-bad-boolean", mutate("fill: true", "fill: maybe"), `topo: services.mid.ops.fetch.calls[0].fill: invalid boolean "maybe"`},
		{"call-unknown", mutate("edge: mid, method: fetch", "edge: mid, method: fetch, retries: 1"), `topo: services.fe.ops.q.calls[0]: unknown field "retries"`},
		{"call-missing", mutate("{edge: mid, method: fetch}", "{method: fetch}"), `topo: services.fe.ops.q.calls[0]: missing required field "edge"`},
		{"call-bad-mode", mutate("edge: mid, method: fetch", "edge: mid, method: fetch, mode: some"), `topo: services.fe.ops.q.calls[0]: invalid mode "some" (want "one" or "all")`},

		// the load and its mix
		{"load-not-mapping", mutate("load:\n  pattern: diurnal\n  qps: 100\n  duration: 2s\n  mix: {q: 1}", "load: [steady]"), `topo: load: expected a mapping, got sequence`},
		{"load-not-scalar", mutate("qps: 100", "qps: [100]"), `topo: load.qps: expected a scalar, got sequence`},
		{"load-bad-number", mutate("qps: 100", "qps: many"), `topo: load.qps: invalid number "many"`},
		{"load-bad-integer", mutate("qps: 100", "qps: 100\n  steps: some"), `topo: load.steps: invalid integer "some"`},
		{"load-negative-duration", mutate("duration: 2s", "duration: -2s"), `topo: load.duration: negative duration "-2s"`},
		{"load-unknown", mutate("qps: 100", "qps: 100\n  rate: 5"), `topo: load: unknown field "rate"`},
		{"load-bad-pattern", mutate("pattern: diurnal", "pattern: sawtooth"), `topo: load.pattern: unknown pattern "sawtooth"`},
		{"mix-not-mapping", mutate("mix: {q: 1}", "mix: [q]"), `topo: load.mix: expected a mapping, got sequence`},
		{"mix-bad-integer", mutate("mix: {q: 1}", "mix: {q: heavy}"), `topo: load.mix.q: invalid integer "heavy"`},
		{"mix-not-positive", mutate("mix: {q: 1}", "mix: {q: 0}"), `topo: load.mix.q: weight must be positive`},

		// a scenario event
		{"scenario-not-sequence", mutate("scenario:\n  - {at: 500ms, for: 1s, target: mid, slow: 1ms}\n  - {at: 1s, edge: fe/mid, delay: 2ms}", "scenario: {at: 1s}"), `topo: scenario: expected a sequence, got mapping`},
		{"event-not-mapping", mutate("- {at: 1s, edge: fe/mid, delay: 2ms}", "- later"), `topo: scenario[1]: expected a mapping, got scalar`},
		{"event-not-scalar", mutate("edge: fe/mid, delay: 2ms", "edge: [fe, mid], delay: 2ms"), `topo: scenario[1].edge: expected a scalar, got sequence`},
		{"event-bad-number", mutate("target: mid, slow: 1ms", "target: mid, slow: 1ms, error-rate: some"), `topo: scenario[0].error-rate: invalid number "some"`},
		{"event-bad-duration", mutate("at: 500ms", "at: soon"), `topo: scenario[0].at: invalid duration "soon"`},
		{"event-negative-duration", mutate("delay: 2ms", "delay: -2ms"), `topo: scenario[1].delay: negative duration "-2ms"`},
		{"event-unknown", mutate("at: 1s, edge", "at: 1s, until: 2s, edge"), `topo: scenario[1]: unknown field "until"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(tc.src)
			if err == nil {
				t.Fatal("spec parsed; want an error")
			}
			if err.Error() != tc.want {
				t.Fatalf("error\n  %s\nwant\n  %s", err, tc.want)
			}
		})
	}
}
