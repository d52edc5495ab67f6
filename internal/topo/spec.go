package topo

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"musuite/internal/core"
)

// Spec is a parsed topology: a named DAG of services, the load shape to
// offer its entry, and an optional scenario script of timed degradations.
// Each field's `spec` tag names its key in the YAML format (see decode).
type Spec struct {
	// Name labels the topology in output.
	Name string `spec:"topology"`
	// Entry names the service the load generator drives.
	Entry string `spec:"entry"`
	// Seed drives every deterministic choice (datasets, key streams, load).
	Seed int64 `spec:"seed" default:"1"`
	// Services maps name → definition.
	Services map[string]*ServiceSpec `spec:"services,required"`
	// Load is the offered-load shape (optional; runners have defaults).
	Load LoadSpec `spec:"load"`
	// Scenario is the timed degradation script (optional).
	Scenario []EventSpec `spec:"scenario"`
}

// ServiceSpec defines one node of the DAG.
type ServiceSpec struct {
	// Name is the service's key in Spec.Services.
	Name string `spec:",key"`
	// Kind selects the builder: the synthetic kinds "synthetic" (a
	// mid-tier running declarative ops), "compute", "cache", and "store"
	// (leaf tiers), or a registered benchmark kind ("hdsearch", "router",
	// "setalgebra", "recommend").
	Kind string `spec:"kind,required"`
	// Shards and Replicas size the tier: Shards data partitions, each
	// served by Replicas instances (defaults 1/1).
	Shards   int `spec:"shards" default:"1"`
	Replicas int `spec:"replicas" default:"1"`
	// Workers sizes each instance's worker pool (default: core's; for a
	// leaf service, the instance's share of the cores).
	Workers int `spec:"workers"`
	// Work is the simulated service time per request of synthetic kinds.
	Work time.Duration `spec:"work"`
	// ReplyBytes pads synthetic replies to model response weight.
	ReplyBytes int `spec:"reply-bytes"`
	// HitRatio, for cache kinds, short-circuits a real store with a
	// key-stable probabilistic hit model in [0,1]; zero keeps real lookups.
	HitRatio float64 `spec:"hit-ratio"`
	// MaxInflight, when positive, arms the core admission controller with
	// this initial/max concurrency limit (synthetic mid-tiers only).
	MaxInflight int `spec:"max-inflight"`
	// Edges maps edge name → downstream policy (synthetic mid-tiers only).
	Edges map[string]*EdgeSpec `spec:"edges"`
	// Ops maps method name → declarative call program (synthetic mid-tiers
	// only).
	Ops map[string]*OpSpec `spec:"ops"`
	// Params carries kind-specific scalars (corpus sizes, value sizes...)
	// interpreted by registered kind builders.
	Params map[string]string `spec:"params"`
}

// EdgeSpec is one named downstream edge: its target service and the
// per-edge call policy the core framework applies to every call it carries.
type EdgeSpec struct {
	// Name is the edge's key in ServiceSpec.Edges.
	Name string `spec:",key"`
	// To names the target service.
	To string `spec:"to,required"`
	// EdgePolicy is the call policy, decoded straight into the framework's
	// own type: its tagged fields' keys (`timeout`, `retries`, `hedge-pct`,
	// `hedge-delay`, `max-batch`, `batch-delay`) sit beside `to`.
	core.EdgePolicy `spec:",inline"`
}

// OpSpec is one declarative operation of a synthetic mid-tier: simulated
// local work plus a staged program of downstream calls.
type OpSpec struct {
	// Name is the op's key in ServiceSpec.Ops and its RPC method name.
	Name string `spec:",key"`
	// Work is simulated local service time before the calls issue.
	Work time.Duration `spec:"work"`
	// Calls is the downstream program; calls sharing a Stage issue in
	// parallel, stages run in ascending order.
	Calls []CallSpec `spec:"calls"`
}

// CallSpec is one downstream call of an op.
type CallSpec struct {
	// Edge names the edge the call travels.
	Edge string `spec:"edge,required"`
	// Method is the downstream method ("do"/"get"/"set" for synthetic
	// leaves, an op name for synthetic mid-tiers).
	Method string `spec:"method" default:"do"`
	// Mode is "one" (route by key hash, default) or "all" (broadcast to
	// every shard and merge).
	Mode string `spec:"mode" default:"one"`
	// Stage orders the call; equal stages run in parallel (default 0).
	Stage int `spec:"stage"`
	// Optional calls tolerate failure: an error or miss degrades the
	// response instead of failing it.
	Optional bool `spec:"optional"`
	// MissEdge, on a cache-get miss, names the edge to fetch from.
	MissEdge string `spec:"miss-edge"`
	// Fill writes a miss-fetched value back through Edge ("set") before
	// the op completes.
	Fill bool `spec:"fill"`
}

// LoadSpec is the offered-load shape for the runner.
type LoadSpec struct {
	// Pattern is "steady" (default), "diurnal", "flashcrowd", or "burst".
	Pattern string `spec:"pattern" default:"steady"`
	// QPS is the base offered rate (pattern peak rates derive from it).
	QPS float64 `spec:"qps"`
	// Duration is the offered-load window.
	Duration time.Duration `spec:"duration"`
	// Factor scales bursts/spikes over the base rate (default 4).
	Factor float64 `spec:"factor"`
	// Period and Duty shape the burst square wave.
	Period time.Duration `spec:"period"`
	Duty   time.Duration `spec:"duty"`
	// Steps is the diurnal staircase's steps per side (default 3).
	Steps int `spec:"steps"`
	// Mix weights entry ops (op name → relative weight); empty drives the
	// entry's ops uniformly.
	Mix map[string]int `spec:"mix"`
}

// EventSpec is one timed scenario event.  Exactly one of Target (a
// service-level degradation) or Edge (latency injection on a named
// "service/edge") must be set.
type EventSpec struct {
	// At is the event's start offset from the beginning of the run; For is
	// its duration (0 = permanent).
	At  time.Duration `spec:"at"`
	For time.Duration `spec:"for"`
	// Target names a synthetic service to degrade.
	Target string `spec:"target"`
	// Slow adds simulated service time to every request of Target.
	Slow time.Duration `spec:"slow"`
	// ErrorRate fails this fraction of Target's requests in [0,1].
	ErrorRate float64 `spec:"error-rate"`
	// Edge names a "service/edge" to inject latency on (caller side).
	Edge string `spec:"edge"`
	// Delay is the injected per-call latency on Edge.
	Delay time.Duration `spec:"delay"`
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
	spec := &Spec{}
	if err := decode(root, reflect.ValueOf(spec).Elem(), "spec", ""); err != nil {
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

// decode fills rv from the decoded YAML tree v, walking the spec types by
// their tags: a field tagged `spec:"name"` takes the mapping's "name" key,
// with the options `,required` (absent or empty is an error), `,key` (the
// field takes the enclosing map key instead) and `,inline` (a struct whose
// keys sit in the enclosing mapping); `default:"v"` stands in for an absent
// scalar.  Untagged fields are not part of the format, and a key that names
// no field is an error, so a typo in a spec is not a silently ignored knob.
// path names v in errors; key is v's key in its enclosing map.
func decode(v any, rv reflect.Value, path, key string) error {
	switch rv.Kind() {
	case reflect.Pointer:
		rv.Set(reflect.New(rv.Type().Elem()))
		return decode(v, rv.Elem(), path, key)
	case reflect.Struct:
		m, err := mapping(v, path)
		if err != nil {
			return err
		}
		known := map[string]bool{}
		if err := decodeFields(m, known, rv, path, key); err != nil {
			return err
		}
		for _, k := range sortedKeys(m) {
			if !known[k] {
				return fmt.Errorf("topo: %s: unknown field %q", path, k)
			}
		}
	case reflect.Map:
		m, err := mapping(v, path)
		if err != nil {
			return err
		}
		rv.Set(reflect.MakeMapWithSize(rv.Type(), len(m)))
		for _, k := range sortedKeys(m) {
			ev := reflect.New(rv.Type().Elem()).Elem()
			if err := decode(m[k], ev, path+"."+k, k); err != nil {
				return err
			}
			rv.SetMapIndex(reflect.ValueOf(k), ev)
		}
	case reflect.Slice:
		if v == nil {
			return nil
		}
		seq, ok := v.([]any)
		if !ok {
			return fmt.Errorf("topo: %s: expected a sequence, got %s", path, typeName(v))
		}
		for i, ev := range seq {
			rv.Set(reflect.Append(rv, reflect.Zero(rv.Type().Elem())))
			if err := decode(ev, rv.Index(i), fmt.Sprintf("%s[%d]", path, i), ""); err != nil {
				return err
			}
		}
	default:
		return scalar(v, rv, path, "")
	}
	return nil
}

// decodeFields fills struct rv's tagged fields from mapping m, marking
// each key it reads in known.
func decodeFields(m map[string]any, known map[string]bool, rv reflect.Value, path, key string) error {
	for i := 0; i < rv.NumField(); i++ {
		sf, f := rv.Type().Field(i), rv.Field(i)
		tag, ok := sf.Tag.Lookup("spec")
		if !ok {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		opt := strings.Split(opts, ",")
		switch {
		case slices.Contains(opt, "key"):
			f.SetString(key)
			continue
		case slices.Contains(opt, "inline"):
			if err := decodeFields(m, known, f, path, ""); err != nil {
				return err
			}
			continue
		}
		known[name] = true
		// The root's containers are named by their bare key ("services.fe",
		// not "spec.services.fe"); its scalars read "spec.seed".
		p := path + "." + name
		var err error
		switch raw, present := m[name]; {
		case !composite(f.Kind()):
			err = scalar(raw, f, p, sf.Tag.Get("default"))
		case present:
			if path == "spec" {
				p = name
			}
			err = decode(raw, f, p, "")
		}
		if err != nil {
			return err
		}
		if slices.Contains(opt, "required") && f.IsZero() {
			return fmt.Errorf("topo: %s: missing required field %q", path, name)
		}
	}
	return nil
}

func composite(k reflect.Kind) bool {
	return k == reflect.Struct || k == reflect.Map || k == reflect.Slice || k == reflect.Pointer
}

// mapping reads v as a mapping; an empty value is an empty mapping.
func mapping(v any, path string) (map[string]any, error) {
	m, ok := v.(map[string]any)
	if !ok && v != nil {
		return nil, fmt.Errorf("topo: %s: expected a mapping, got %s", path, typeName(v))
	}
	return m, nil
}

var durationType = reflect.TypeOf(time.Duration(0))

// scalar fills a string, integer, float, boolean or non-negative
// time.Duration from v.  def stands in for an absent value, and for an
// empty one except in a string.
func scalar(v any, rv reflect.Value, path, def string) error {
	if v == nil {
		v = def
	}
	s, ok := v.(string)
	if !ok {
		return fmt.Errorf("topo: %s: expected a scalar, got %s", path, typeName(v))
	}
	if rv.Kind() == reflect.String {
		rv.SetString(s)
		return nil
	}
	if s == "" {
		s = def
	}
	if s == "" {
		return nil
	}
	switch {
	case rv.Type() == durationType:
		d, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("topo: %s: invalid duration %q", path, s)
		}
		if d < 0 {
			return fmt.Errorf("topo: %s: negative duration %q", path, s)
		}
		rv.SetInt(int64(d))
	case rv.CanInt():
		n, err := strconv.ParseInt(s, 10, rv.Type().Bits())
		if err != nil {
			return fmt.Errorf("topo: %s: invalid integer %q", path, s)
		}
		rv.SetInt(n)
	case rv.CanFloat():
		f, err := strconv.ParseFloat(s, rv.Type().Bits())
		if err != nil {
			return fmt.Errorf("topo: %s: invalid number %q", path, s)
		}
		rv.SetFloat(f)
	case rv.Kind() == reflect.Bool:
		switch s {
		case "true", "yes", "on":
			rv.SetBool(true)
		case "false", "no", "off":
		default:
			return fmt.Errorf("topo: %s: invalid boolean %q", path, s)
		}
	default:
		panic(fmt.Sprintf("topo: %s: a spec field cannot be a %s", path, rv.Type()))
	}
	return nil
}

func typeName(v any) string {
	switch v.(type) {
	case map[string]any:
		return "mapping"
	case []any:
		return "sequence"
	case string:
		return "scalar"
	default:
		return fmt.Sprintf("%T", v)
	}
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
