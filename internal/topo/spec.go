package topo

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"musuite/internal/core"
)

// Spec is a parsed topology: a named DAG of services, the load shape to
// offer its entry, and an optional scenario script of timed degradations.
type Spec struct {
	// Name labels the topology in output.
	Name string
	// Entry names the service the load generator drives.
	Entry string
	// Seed drives every deterministic choice (datasets, key streams, load).
	Seed int64
	// Services maps name → definition.
	Services map[string]*ServiceSpec
	// Load is the offered-load shape (optional; runners have defaults).
	Load LoadSpec
	// Scenario is the timed degradation script (optional).
	Scenario []EventSpec
}

// ServiceSpec defines one node of the DAG.
type ServiceSpec struct {
	// Name is the service's key in Spec.Services.
	Name string
	// Kind selects the builder: the synthetic kinds "synthetic" (a
	// mid-tier running declarative ops), "compute", "cache", and "store"
	// (leaf tiers), or a registered benchmark kind ("hdsearch", "router",
	// "setalgebra", "recommend").
	Kind string
	// Shards and Replicas size the tier: Shards data partitions, each
	// served by Replicas instances (defaults 1/1).
	Shards, Replicas int
	// Workers sizes each instance's worker pool (default: core's; for a
	// leaf service, the instance's share of the cores).
	Workers int
	// Work is the simulated service time per request of synthetic kinds.
	Work time.Duration
	// ReplyBytes pads synthetic replies to model response weight.
	ReplyBytes int
	// HitRatio, for cache kinds, short-circuits a real store with a
	// key-stable probabilistic hit model in [0,1]; zero keeps real lookups.
	HitRatio float64
	// MaxInflight, when positive, arms the core admission controller with
	// this initial/max concurrency limit (synthetic mid-tiers only).
	MaxInflight int
	// Edges maps edge name → downstream policy (synthetic mid-tiers only).
	Edges map[string]*EdgeSpec
	// Ops maps method name → declarative call program (synthetic mid-tiers
	// only).
	Ops map[string]*OpSpec
	// Params carries kind-specific scalars (corpus sizes, value sizes...)
	// interpreted by registered kind builders.
	Params map[string]string
}

// EdgeSpec is one named downstream edge: its target service and the
// per-edge call policy the core framework applies to every call it carries.
type EdgeSpec struct {
	// Name is the edge's key in ServiceSpec.Edges.
	Name string
	// To names the target service.
	To string
	// EdgePolicy is the call policy, decoded straight into the framework's
	// own type: `timeout`, `retries` (Tail.LeafRetries), `hedge-pct`
	// (Tail.HedgePercentile; 0 disables hedging), `hedge-delay`,
	// `max-batch` (≤1 off) and `batch-delay` (Batch.Delay).
	core.EdgePolicy
}

// OpSpec is one declarative operation of a synthetic mid-tier: simulated
// local work plus a staged program of downstream calls.
type OpSpec struct {
	// Name is the op's key in ServiceSpec.Ops and its RPC method name.
	Name string
	// Work is simulated local service time before the calls issue.
	Work time.Duration
	// Calls is the downstream program; calls sharing a Stage issue in
	// parallel, stages run in ascending order.
	Calls []CallSpec
}

// CallSpec is one downstream call of an op.
type CallSpec struct {
	// Edge names the edge the call travels.
	Edge string
	// Method is the downstream method ("do"/"get"/"set" for synthetic
	// leaves, an op name for synthetic mid-tiers).
	Method string
	// Mode is "one" (route by key hash, default) or "all" (broadcast to
	// every shard and merge).
	Mode string
	// Stage orders the call; equal stages run in parallel (default 0).
	Stage int
	// Optional calls tolerate failure: an error or miss degrades the
	// response instead of failing it.
	Optional bool
	// MissEdge, on a cache-get miss, names the edge to fetch from.
	MissEdge string
	// Fill writes a miss-fetched value back through Edge ("set") before
	// the op completes.
	Fill bool
}

// LoadSpec is the offered-load shape for the runner.
type LoadSpec struct {
	// Pattern is "steady" (default), "diurnal", "flashcrowd", or "burst".
	Pattern string
	// QPS is the base offered rate (pattern peak rates derive from it).
	QPS float64
	// Duration is the offered-load window.
	Duration time.Duration
	// Factor scales bursts/spikes over the base rate (default 4).
	Factor float64
	// Period and Duty shape the burst square wave.
	Period, Duty time.Duration
	// Steps is the diurnal staircase's steps per side (default 3).
	Steps int
	// Mix weights entry ops (op name → relative weight); empty drives the
	// entry's ops uniformly.
	Mix map[string]int
}

// EventSpec is one timed scenario event.  Exactly one of Target (a
// service-level degradation) or Edge (latency injection on a named
// "service/edge") must be set.
type EventSpec struct {
	// At is the event's start offset from the beginning of the run; For is
	// its duration (0 = permanent).
	At, For time.Duration
	// Target names a synthetic service to degrade.
	Target string
	// Slow adds simulated service time to every request of Target.
	Slow time.Duration
	// ErrorRate fails this fraction of Target's requests in [0,1].
	ErrorRate float64
	// Edge names a "service/edge" to inject latency on (caller side).
	Edge string
	// Delay is the injected per-call latency on Edge.
	Delay time.Duration
}

// LoadSpec pattern names.
const (
	PatternSteady     = "steady"
	PatternDiurnal    = "diurnal"
	PatternFlashCrowd = "flashcrowd"
	PatternBurst      = "burst"
)

// ParseSpec decodes and validates a topology spec from YAML source.
func ParseSpec(src []byte) (*Spec, error) {
	root, err := DecodeYAML(src)
	if err != nil {
		return nil, err
	}
	spec, err := decodeSpec(root)
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// LoadSpecFile reads and parses a topology spec file.
func LoadSpecFile(path string) (*Spec, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := ParseSpec(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// ServiceNames lists the spec's services in deterministic order.
func (s *Spec) ServiceNames() []string {
	names := make([]string, 0, len(s.Services))
	for n := range s.Services {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- strict tree → spec decoding ---

// obj wraps one decoded mapping for strict field-by-field extraction:
// every read marks its key used, and finish() fails on unknown keys, so a
// typo in a spec is an error instead of a silently ignored knob.
type obj struct {
	m    map[string]any
	used map[string]bool
	path string
}

func asObj(v any, path string) (*obj, error) {
	if v == nil {
		return &obj{m: map[string]any{}, used: map[string]bool{}, path: path}, nil
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("topo: %s: expected a mapping, got %s", path, typeName(v))
	}
	return &obj{m: m, used: map[string]bool{}, path: path}, nil
}

func typeName(v any) string {
	switch v.(type) {
	case map[string]any:
		return "mapping"
	case []any:
		return "sequence"
	case string:
		return "scalar"
	case nil:
		return "empty value"
	default:
		return fmt.Sprintf("%T", v)
	}
}

func (o *obj) raw(key string) (any, bool) {
	v, ok := o.m[key]
	if ok {
		o.used[key] = true
	}
	return v, ok
}

func (o *obj) str(key, def string) (string, error) {
	v, ok := o.raw(key)
	if !ok || v == nil {
		return def, nil
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("topo: %s.%s: expected a scalar, got %s", o.path, key, typeName(v))
	}
	return s, nil
}

func (o *obj) integer(key string, def int) (int, error) {
	s, err := o.str(key, "")
	if err != nil || s == "" {
		return def, err
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("topo: %s.%s: invalid integer %q", o.path, key, s)
	}
	return n, nil
}

func (o *obj) int64(key string, def int64) (int64, error) {
	s, err := o.str(key, "")
	if err != nil || s == "" {
		return def, err
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("topo: %s.%s: invalid integer %q", o.path, key, s)
	}
	return n, nil
}

func (o *obj) float(key string, def float64) (float64, error) {
	s, err := o.str(key, "")
	if err != nil || s == "" {
		return def, err
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("topo: %s.%s: invalid number %q", o.path, key, s)
	}
	return f, nil
}

func (o *obj) duration(key string, def time.Duration) (time.Duration, error) {
	s, err := o.str(key, "")
	if err != nil || s == "" {
		return def, err
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("topo: %s.%s: invalid duration %q", o.path, key, s)
	}
	if d < 0 {
		return 0, fmt.Errorf("topo: %s.%s: negative duration %q", o.path, key, s)
	}
	return d, nil
}

func (o *obj) boolean(key string, def bool) (bool, error) {
	s, err := o.str(key, "")
	if err != nil || s == "" {
		return def, err
	}
	switch s {
	case "true", "yes", "on":
		return true, nil
	case "false", "no", "off":
		return false, nil
	}
	return false, fmt.Errorf("topo: %s.%s: invalid boolean %q", o.path, key, s)
}

func (o *obj) finish() error {
	for k := range o.m {
		if !o.used[k] {
			return fmt.Errorf("topo: %s: unknown field %q", o.path, k)
		}
	}
	return nil
}

// sortedKeys iterates a mapping — decoded YAML, edges, ops, params —
// deterministically.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func decodeSpec(root any) (*Spec, error) {
	o, err := asObj(root, "spec")
	if err != nil {
		return nil, err
	}
	spec := &Spec{Services: map[string]*ServiceSpec{}}
	if spec.Name, err = o.str("topology", ""); err != nil {
		return nil, err
	}
	if spec.Entry, err = o.str("entry", ""); err != nil {
		return nil, err
	}
	if spec.Seed, err = o.int64("seed", 1); err != nil {
		return nil, err
	}
	rawSvcs, ok := o.raw("services")
	if !ok {
		return nil, fmt.Errorf("topo: spec: missing required field %q", "services")
	}
	svcs, err := asObj(rawSvcs, "services")
	if err != nil {
		return nil, err
	}
	for _, name := range sortedKeys(svcs.m) {
		v, _ := svcs.raw(name)
		svc, err := decodeService(name, v)
		if err != nil {
			return nil, err
		}
		spec.Services[name] = svc
	}
	if raw, ok := o.raw("load"); ok {
		if spec.Load, err = decodeLoad(raw); err != nil {
			return nil, err
		}
	}
	if raw, ok := o.raw("scenario"); ok {
		if spec.Scenario, err = decodeScenario(raw); err != nil {
			return nil, err
		}
	}
	return spec, o.finish()
}

func decodeService(name string, v any) (*ServiceSpec, error) {
	path := "services." + name
	o, err := asObj(v, path)
	if err != nil {
		return nil, err
	}
	svc := &ServiceSpec{Name: name}
	if svc.Kind, err = o.str("kind", ""); err != nil {
		return nil, err
	}
	if svc.Kind == "" {
		return nil, fmt.Errorf("topo: %s: missing required field %q", path, "kind")
	}
	if svc.Shards, err = o.integer("shards", 1); err != nil {
		return nil, err
	}
	if svc.Replicas, err = o.integer("replicas", 1); err != nil {
		return nil, err
	}
	if svc.Workers, err = o.integer("workers", 0); err != nil {
		return nil, err
	}
	if svc.Work, err = o.duration("work", 0); err != nil {
		return nil, err
	}
	if svc.ReplyBytes, err = o.integer("reply-bytes", 0); err != nil {
		return nil, err
	}
	if svc.HitRatio, err = o.float("hit-ratio", 0); err != nil {
		return nil, err
	}
	if svc.MaxInflight, err = o.integer("max-inflight", 0); err != nil {
		return nil, err
	}
	if raw, ok := o.raw("edges"); ok {
		eo, err := asObj(raw, path+".edges")
		if err != nil {
			return nil, err
		}
		svc.Edges = map[string]*EdgeSpec{}
		for _, en := range sortedKeys(eo.m) {
			ev, _ := eo.raw(en)
			edge, err := decodeEdge(path, en, ev)
			if err != nil {
				return nil, err
			}
			svc.Edges[en] = edge
		}
	}
	if raw, ok := o.raw("ops"); ok {
		oo, err := asObj(raw, path+".ops")
		if err != nil {
			return nil, err
		}
		svc.Ops = map[string]*OpSpec{}
		for _, on := range sortedKeys(oo.m) {
			ov, _ := oo.raw(on)
			op, err := decodeOp(path, on, ov)
			if err != nil {
				return nil, err
			}
			svc.Ops[on] = op
		}
	}
	if raw, ok := o.raw("params"); ok {
		po, err := asObj(raw, path+".params")
		if err != nil {
			return nil, err
		}
		svc.Params = map[string]string{}
		for _, pn := range sortedKeys(po.m) {
			pv, err := po.str(pn, "")
			if err != nil {
				return nil, err
			}
			svc.Params[pn] = pv
		}
	}
	return svc, o.finish()
}

func decodeEdge(svcPath, name string, v any) (*EdgeSpec, error) {
	path := svcPath + ".edges." + name
	o, err := asObj(v, path)
	if err != nil {
		return nil, err
	}
	e := &EdgeSpec{Name: name}
	if e.To, err = o.str("to", ""); err != nil {
		return nil, err
	}
	if e.To == "" {
		return nil, fmt.Errorf("topo: %s: missing required field %q", path, "to")
	}
	if e.Timeout, err = o.duration("timeout", 0); err != nil {
		return nil, err
	}
	if e.Tail.LeafRetries, err = o.integer("retries", 0); err != nil {
		return nil, err
	}
	if e.Tail.HedgePercentile, err = o.float("hedge-pct", 0); err != nil {
		return nil, err
	}
	if e.Tail.HedgeDelay, err = o.duration("hedge-delay", 0); err != nil {
		return nil, err
	}
	if e.Batch.MaxBatch, err = o.integer("max-batch", 0); err != nil {
		return nil, err
	}
	if e.Batch.Delay, err = o.duration("batch-delay", 0); err != nil {
		return nil, err
	}
	return e, o.finish()
}

func decodeOp(svcPath, name string, v any) (*OpSpec, error) {
	path := svcPath + ".ops." + name
	o, err := asObj(v, path)
	if err != nil {
		return nil, err
	}
	op := &OpSpec{Name: name}
	if op.Work, err = o.duration("work", 0); err != nil {
		return nil, err
	}
	if raw, ok := o.raw("calls"); ok && raw != nil {
		seq, ok := raw.([]any)
		if !ok {
			return nil, fmt.Errorf("topo: %s.calls: expected a sequence, got %s", path, typeName(raw))
		}
		for i, cv := range seq {
			call, err := decodeCallSpec(fmt.Sprintf("%s.calls[%d]", path, i), cv)
			if err != nil {
				return nil, err
			}
			op.Calls = append(op.Calls, call)
		}
	}
	return op, o.finish()
}

func decodeCallSpec(path string, v any) (CallSpec, error) {
	o, err := asObj(v, path)
	if err != nil {
		return CallSpec{}, err
	}
	var c CallSpec
	if c.Edge, err = o.str("edge", ""); err != nil {
		return c, err
	}
	if c.Edge == "" {
		return c, fmt.Errorf("topo: %s: missing required field %q", path, "edge")
	}
	if c.Method, err = o.str("method", "do"); err != nil {
		return c, err
	}
	if c.Mode, err = o.str("mode", "one"); err != nil {
		return c, err
	}
	if c.Mode != "one" && c.Mode != "all" {
		return c, fmt.Errorf("topo: %s: invalid mode %q (want \"one\" or \"all\")", path, c.Mode)
	}
	if c.Stage, err = o.integer("stage", 0); err != nil {
		return c, err
	}
	if c.Optional, err = o.boolean("optional", false); err != nil {
		return c, err
	}
	if c.MissEdge, err = o.str("miss-edge", ""); err != nil {
		return c, err
	}
	if c.Fill, err = o.boolean("fill", false); err != nil {
		return c, err
	}
	return c, o.finish()
}

func decodeLoad(v any) (LoadSpec, error) {
	o, err := asObj(v, "load")
	if err != nil {
		return LoadSpec{}, err
	}
	var l LoadSpec
	if l.Pattern, err = o.str("pattern", PatternSteady); err != nil {
		return l, err
	}
	switch l.Pattern {
	case PatternSteady, PatternDiurnal, PatternFlashCrowd, PatternBurst:
	default:
		return l, fmt.Errorf("topo: load.pattern: unknown pattern %q", l.Pattern)
	}
	if l.QPS, err = o.float("qps", 0); err != nil {
		return l, err
	}
	if l.Duration, err = o.duration("duration", 0); err != nil {
		return l, err
	}
	if l.Factor, err = o.float("factor", 0); err != nil {
		return l, err
	}
	if l.Period, err = o.duration("period", 0); err != nil {
		return l, err
	}
	if l.Duty, err = o.duration("duty", 0); err != nil {
		return l, err
	}
	if l.Steps, err = o.integer("steps", 0); err != nil {
		return l, err
	}
	if raw, ok := o.raw("mix"); ok {
		mo, err := asObj(raw, "load.mix")
		if err != nil {
			return l, err
		}
		l.Mix = map[string]int{}
		for _, k := range sortedKeys(mo.m) {
			w, err := mo.integer(k, 0)
			if err != nil {
				return l, err
			}
			if w <= 0 {
				return l, fmt.Errorf("topo: load.mix.%s: weight must be positive", k)
			}
			l.Mix[k] = w
		}
	}
	return l, o.finish()
}

func decodeScenario(v any) ([]EventSpec, error) {
	if v == nil {
		return nil, nil
	}
	seq, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("topo: scenario: expected a sequence, got %s", typeName(v))
	}
	var events []EventSpec
	for i, ev := range seq {
		path := fmt.Sprintf("scenario[%d]", i)
		o, err := asObj(ev, path)
		if err != nil {
			return nil, err
		}
		var e EventSpec
		if e.At, err = o.duration("at", 0); err != nil {
			return nil, err
		}
		if e.For, err = o.duration("for", 0); err != nil {
			return nil, err
		}
		if e.Target, err = o.str("target", ""); err != nil {
			return nil, err
		}
		if e.Slow, err = o.duration("slow", 0); err != nil {
			return nil, err
		}
		if e.ErrorRate, err = o.float("error-rate", 0); err != nil {
			return nil, err
		}
		if e.Edge, err = o.str("edge", ""); err != nil {
			return nil, err
		}
		if e.Delay, err = o.duration("delay", 0); err != nil {
			return nil, err
		}
		if err := o.finish(); err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	return events, nil
}
